// Package service is the concurrent query-serving subsystem: a long-lived
// Engine owning a named-table catalog, one shared embedding store, a
// bounded prepared-query cache, and an admission controller, so many
// concurrent sessions can run context-enhanced joins against the same
// process safely.
//
// The paper frames context-enhanced joins as a declarative engine feature;
// the batch cmds run one query and exit. This package is the on-ramp from
// that reproduction to a system under sustained traffic:
//
//   - every query shares one embstore.Store, so the E_µ cost that dominates
//     end-to-end time is paid once per distinct input across all sessions;
//   - parse+bind cost is paid once per distinct query text via a
//     generation-validated prepared-plan cache over sqlish.Prepare;
//   - admission control bounds aggregate memory pressure with a weighted
//     semaphore over each query's estimated intermediate footprint
//     (plan.EstimateFootprint), plus a hard cap on concurrently executing
//     queries;
//   - per-query deadlines and cancellation propagate through the executor
//     into the join inner loops, so an abandoned request stops computing
//     within one block/stride boundary;
//   - ServerStats aggregates executor JoinStats, store stats, admission
//     counters, and plan-cache counters into one observability surface.
package service

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/embstore"
	"ejoin/internal/feedback"
	"ejoin/internal/model"
	"ejoin/internal/obs"
	"ejoin/internal/plan"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
	"ejoin/internal/sqlish"
	"ejoin/internal/vec"
)

// Config tunes an Engine. The zero value is usable: hash model (dim 100),
// a 256 MiB embedding store, GOMAXPROCS execution slots, a 1 GiB
// admission budget, a 256-entry plan cache, and no default deadline.
type Config struct {
	// Model is the embedding model µ shared by every query; nil builds the
	// deterministic hash embedder with dimensionality Dim.
	Model model.Model
	// Dim is the hash model dimensionality when Model is nil (default 100).
	Dim int
	// Store is the shared embedding store; nil builds one bounded by
	// StoreBytes.
	Store *embstore.Store
	// StoreBytes bounds the built store's resident bytes (default 256 MiB;
	// ignored when Store is set).
	StoreBytes int64
	// MaxConcurrent caps concurrently executing queries (default
	// GOMAXPROCS). Queries past the cap wait for a slot.
	MaxConcurrent int
	// AdmissionBytes is the weighted-semaphore capacity over estimated
	// intermediate bytes (default 1 GiB). A query whose estimate exceeds
	// the whole budget is clamped to it — it runs, but alone.
	AdmissionBytes int64
	// DefaultTimeout bounds each query when the request carries none;
	// 0 means no engine-imposed deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request timeout override, so clients cannot
	// extend their deadline past the operator's bound and camp on an
	// execution slot; 0 means requests may set any timeout.
	MaxTimeout time.Duration
	// PlanCacheSize bounds the prepared-query cache entries (default 256).
	PlanCacheSize int
	// Threads caps each query's operator parallelism; <=0 defaults to
	// GOMAXPROCS/MaxConcurrent (at least 1), so the slots x threads
	// product stays near GOMAXPROCS instead of oversubscribing the CPU
	// quadratically under full admission.
	Threads int
	// Kernel selects the compute kernel. The zero value resolves to
	// vec.DefaultKernel() (SIMD) — the scalar kernel exists for ablation
	// benchmarks and cannot be selected through the service.
	Kernel vec.Kernel
	// BudgetBytes bounds each query's tensor-join intermediate block
	// (default 32 MiB); serving should never materialize D whole.
	BudgetBytes int64
	// CostParams parametrizes the planner; zero value uses defaults.
	CostParams cost.Params
	// PrecisionSlack opts the planner into the precision ladder: the
	// result drift tolerated at a threshold join's boundary. When > 0 the
	// optimizer may pick F16/INT8 scans (cost.ChooseJoinPrecision) under
	// the admission byte budget; 0 (the default) keeps every plan exact
	// unless a per-table precision is declared (SetTablePrecision).
	PrecisionSlack float64
	// DataDir, when non-empty, makes the engine durable: Open recovers
	// tables and cached embeddings from it, the embedding store persists
	// write-behind into it, and ingested tables are written to it. Empty
	// means a memory-only engine (NewEngine ignores this field; use Open).
	DataDir string
	// SegmentBytes rotates embedding log segments past this size
	// (default 64 MiB).
	SegmentBytes int64
	// PersistQueue is the write-behind queue depth (default 4096).
	PersistQueue int
	// IndexTables maintains an IVF-Flat vector index per table with a
	// vector column: inserts append to posting lists, deletes tombstone,
	// and the coarse quantizer re-clusters in the background past
	// ReclusterFraction. Off by default — an attached index makes the
	// planner eligible to pick the approximate index access path.
	IndexTables bool
	// ReclusterFraction is the deleted fraction of a table's rows that
	// triggers a background index re-cluster (default 0.3; negative
	// disables re-clustering).
	ReclusterFraction float64
	// MaterializeExec forces the legacy materializing executor (both join
	// inputs fully resident). Off by default — queries stream block-at-a-
	// time through internal/exec, with admission charged build-side +
	// O(block) bytes. The flag exists for differential testing and as an
	// escape hatch, not as a recommended mode.
	MaterializeExec bool
	// ExecBlockRows is the streaming executor's probe-side block size
	// (0 = exec.DefaultBlockSize).
	ExecBlockRows int
	// DisableTracing turns off per-query traces (and with them the
	// slow-query log); an explicit explain request still traces its own
	// query. Latency histograms and counters record regardless.
	DisableTracing bool
	// SlowQueryThreshold gates admission to the slow-query ring: only
	// queries at least this slow are retained. 0 (the default) retains
	// every traced query — the worst-N set is kept regardless.
	SlowQueryThreshold time.Duration
	// SlowLogSize is the slow-query ring capacity (default 128).
	SlowLogSize int
	// SlowLogWorst is how many all-time-slowest traces are pinned outside
	// the ring (default 8).
	SlowLogWorst int
	// RecallSLO is the audited recall@k target the auto-tuner steers
	// index knobs toward (default 0.95). Only meaningful with
	// AuditFraction > 0.
	RecallSLO float64
	// AuditFraction samples this fraction of index-path queries for an
	// online accuracy audit: the probe re-runs exactly (brute force over
	// the pinned snapshot) off the request path and the observed recall@k
	// feeds the SLO tuner. 0 (the default) disables auditing.
	AuditFraction float64
	// DisableAutoTune keeps the auditor recording recall but never lets
	// it move index knobs — observe-only mode.
	DisableAutoTune bool
	// CalibrateCost measures this machine's relative access/compare/model
	// costs and the F16/int8 scan factors at engine build (cost.Calibrate —
	// a few milliseconds plus 64 model calls) and plans with the result
	// instead of CostParams.
	CalibrateCost bool
	// ForceStrategy, when non-nil, bypasses cost-based strategy selection
	// for every query (test/differential harnesses pin exact strategies).
	ForceStrategy *cost.Strategy
	// DisableReorder switches off the optimizer's smaller-inner swap rule.
	// The shard router sets this: it makes one global orientation decision
	// across shards and per-shard re-swaps would break stream merging.
	DisableReorder bool
}

// TableInfo describes one catalog entry.
type TableInfo struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
	// Precision is the table's declared join precision ("auto" unless set
	// via SetTablePrecision).
	Precision string `json:"precision"`
}

// Engine is a long-lived, concurrency-safe query engine: one per process,
// shared by every session/request handler.
type Engine struct {
	cfg     Config
	model   model.Model
	store   *embstore.Store
	exec    *plan.Executor
	opt     *plan.Optimizer
	catalog *sqlish.Catalog
	plans   *planCache
	slots   chan struct{}
	bytes   *byteSemaphore

	// durable is non-nil for engines built with Open over a data
	// directory; nil engines are memory-only.
	durable *durableState

	// mut is the live-mutation arm (see mutation.go): per-table MVCC
	// state, optional maintained indexes, and (durable engines) the WAL.
	mut mutationState

	// tablePrec is the per-table precision knob (see precision.go).
	tablePrec tablePrecisions

	// feedback is the estimate-vs-observation registry closing the loop
	// between planner and runtime; aud is the background recall auditor
	// feeding it (see feedback.go).
	feedback   *feedback.Registry
	aud        *auditor
	calibrated bool

	counters counters
	obs      engineObs
	start    time.Time
}

// NewEngine builds an Engine from cfg (zero value = defaults).
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Dim <= 0 {
		cfg.Dim = 100
	}
	m := cfg.Model
	if m == nil {
		hm, err := model.NewHashEmbedder(cfg.Dim)
		if err != nil {
			return nil, fmt.Errorf("service: building default model: %w", err)
		}
		m = hm
	}
	store := cfg.Store
	if store == nil {
		if cfg.StoreBytes <= 0 {
			cfg.StoreBytes = 256 << 20
		}
		store = embstore.New(embstore.Config{MaxBytes: cfg.StoreBytes})
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.Threads <= 0 {
		cfg.Threads = runtime.GOMAXPROCS(0) / cfg.MaxConcurrent
		if cfg.Threads < 1 {
			cfg.Threads = 1
		}
	}
	if cfg.AdmissionBytes <= 0 {
		cfg.AdmissionBytes = 1 << 30
	}
	if cfg.PlanCacheSize <= 0 {
		cfg.PlanCacheSize = 256
	}
	if cfg.BudgetBytes <= 0 {
		cfg.BudgetBytes = 32 << 20
	}
	if cfg.CostParams.Validate() != nil {
		cfg.CostParams = cost.DefaultParams()
	}
	calibrated := false
	if cfg.CalibrateCost {
		// Calibration embeds through the model directly, not the store, so
		// cache statistics and executor model-call counts stay untouched.
		if p, err := cost.Calibrate(m, m.Dim()); err == nil {
			cfg.CostParams = p
			calibrated = true
		}
	}
	if cfg.Kernel == vec.KernelScalar {
		// The zero value means "unset", not a scalar-kernel request.
		cfg.Kernel = vec.DefaultKernel()
	}

	ex := &plan.Executor{
		Options: core.Options{
			Kernel:      cfg.Kernel,
			Threads:     cfg.Threads,
			BudgetBytes: cfg.BudgetBytes,
		},
		Store:     store,
		BlockRows: cfg.ExecBlockRows,
	}
	opt := &plan.Optimizer{
		Params:         cfg.CostParams,
		ScanOptions:    ex.Options,
		Store:          store,
		ForceStrategy:  cfg.ForceStrategy,
		DisableReorder: cfg.DisableReorder,
	}
	if cfg.PrecisionSlack > 0 {
		opt.PrecisionSlack = cfg.PrecisionSlack
		// Precision planning budgets against the same byte budget that
		// gates admission: the quantity both exist to protect.
		opt.MemoryBudget = cfg.AdmissionBytes
	}

	eng := &Engine{
		cfg:        cfg,
		model:      m,
		store:      store,
		exec:       ex,
		opt:        opt,
		catalog:    sqlish.NewCatalog(),
		plans:      newPlanCache(cfg.PlanCacheSize),
		slots:      make(chan struct{}, cfg.MaxConcurrent),
		bytes:      newByteSemaphore(cfg.AdmissionBytes),
		feedback:   feedback.NewRegistry(cfg.RecallSLO),
		calibrated: calibrated,
		start:      time.Now(),
	}
	eng.obs.slow = obs.NewSlowLog(cfg.SlowLogSize, cfg.SlowLogWorst, cfg.SlowQueryThreshold)
	// The planner consults the learned corrections on every Optimize.
	opt.Feedback = eng.feedback
	eng.aud = newAuditor()
	go eng.auditLoop()
	return eng, nil
}

// Model is the engine's shared embedding model.
func (e *Engine) Model() model.Model { return e.model }

// Store is the engine's shared embedding store.
func (e *Engine) Store() *embstore.Store { return e.store }

// Catalog exposes the engine's table catalog (concurrency-safe).
func (e *Engine) Catalog() *sqlish.Catalog { return e.catalog }

// ErrTableExists reports a create-mode ingest against an existing name.
// The HTTP layer maps it to 409 Conflict.
var ErrTableExists = errors.New("service: table already exists")

// ErrPersist marks a durable-write failure (disk full, permissions). The
// in-memory registration already succeeded when this is returned — the
// table serves queries but will not survive a restart — so the HTTP
// layer maps it to 500, not 400.
var ErrPersist = errors.New("service: durable write failed")

// ErrNotDurable reports a durability operation against a memory-only
// engine (no DataDir).
var ErrNotDurable = errors.New("service: engine has no data directory")

// RegisterTable adds or replaces a named table. Registration advances the
// catalog generation, invalidating prepared plans bound to the old table.
// On a durable engine the table is also written to the data directory.
// A replaced table's precision knob is cleared — new contents opt into
// quantization explicitly, matching drop-then-create semantics.
func (e *Engine) RegisterTable(name string, t *relational.Table) error {
	if name == "" {
		return fmt.Errorf("service: empty table name")
	}
	if t == nil {
		return fmt.Errorf("service: nil table %q", name)
	}
	return e.registerTableWithPrecision(name, t, quant.PrecisionAuto)
}

// registerTableWithPrecision registers (or replaces) a table and its
// precision knob together, so one durable manifest write carries both.
func (e *Engine) registerTableWithPrecision(name string, t *relational.Table, prec quant.Precision) error {
	e.catalog.Register(name, t)
	e.installMutable(name, t)   // fresh incarnation: replaces any old MVCC state
	e.tablePrec.set(name, prec) // Auto clears any previous knob
	// Eagerly drop bindings taken under older generations: lazy get-time
	// invalidation only fires when the same text is re-queried, which
	// would otherwise pin replaced tables in memory indefinitely.
	e.plans.purgeStale(e.catalog.Generation())
	return e.persistTable(name, t)
}

// HasTable reports whether a table is registered under name.
func (e *Engine) HasTable(name string) bool {
	_, ok := e.catalog.Get(name)
	return ok
}

// RegisterCSV parses CSV content under the schema and registers it.
// Create-vs-replace is explicit: with replace false an existing name is
// rejected with ErrTableExists — cheaply before any CSV is read, and
// atomically at registration time, so two concurrent creates of one
// name cannot both succeed (a duplicate POST used to silently re-read
// the whole upload and clobber the table). With replace true the new
// contents take over.
func (e *Engine) RegisterCSV(name string, schema relational.Schema, r io.Reader, replace bool) (int, error) {
	return e.RegisterCSVWithPrecision(name, schema, r, replace, quant.PrecisionAuto)
}

// RegisterCSVWithPrecision is RegisterCSV with the table's precision
// knob declared as part of the registration: the knob and the table land
// in one durable manifest write, so a crash cannot keep the table while
// losing the declared precision.
func (e *Engine) RegisterCSVWithPrecision(name string, schema relational.Schema, r io.Reader, replace bool, prec quant.Precision) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("service: empty table name")
	}
	if err := ValidateScanPrecision(prec); err != nil {
		return 0, err
	}
	if !replace && e.HasTable(name) {
		return 0, fmt.Errorf("%w: %q (pass replace to overwrite)", ErrTableExists, name)
	}
	t, err := relational.ReadCSV(r, schema)
	if err != nil {
		return 0, err
	}
	if replace {
		err = e.registerTableWithPrecision(name, t, prec)
	} else if !e.catalog.RegisterIfAbsent(name, t) {
		// Lost a create-create race after the cheap pre-check.
		err = fmt.Errorf("%w: %q (pass replace to overwrite)", ErrTableExists, name)
	} else {
		e.installMutable(name, t)
		e.tablePrec.set(name, prec)
		e.plans.purgeStale(e.catalog.Generation())
		err = e.persistTable(name, t)
	}
	if err != nil {
		return 0, err
	}
	return t.NumRows(), nil
}

// DropTable removes a named table, reporting whether it existed. On a
// durable engine its table file and manifest entry are removed too.
func (e *Engine) DropTable(name string) bool {
	ok := e.catalog.Drop(name)
	if ok {
		e.plans.purgeStale(e.catalog.Generation())
		e.tablePrec.drop(name)
		// Learned corrections and audit history describe the dropped
		// contents, not the name; a recreated table starts neutral.
		e.feedback.Drop(name)
		// Purge MVCC state with the table: generations, key maps, index,
		// and tombstones must not leak into a recreated same-name table
		// (which gets a fresh incarnation, so the old one's WAL records
		// cannot replay into it either).
		e.mut.remove(name)
		e.unpersistTable(name)
	}
	return ok
}

// Tables lists the registered tables, sorted by name.
func (e *Engine) Tables() []TableInfo {
	names := e.catalog.Names()
	out := make([]TableInfo, 0, len(names))
	for _, n := range names {
		t, ok := e.catalog.Get(n)
		if !ok {
			continue // dropped between Names and Get
		}
		out = append(out, TableInfo{Name: n, Rows: t.NumRows(), Cols: t.NumCols(), Precision: e.tablePrec.get(n).String()})
	}
	return out
}

// planCache is a bounded LRU of prepared queries keyed by query text.
// Entries are validated against the catalog generation on every hit, so
// registering or dropping a table lazily invalidates stale bindings.
type planCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*planElem
	order   []string // LRU order, front = least recently used

	hits, misses, invalidations int64
}

type planElem struct {
	p *sqlish.Prepared
}

func newPlanCache(max int) *planCache {
	return &planCache{max: max, entries: make(map[string]*planElem)}
}

// get returns the cached prepared query when present and bound under the
// current catalog generation.
func (c *planCache) get(text string, gen uint64) (*sqlish.Prepared, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[text]
	if !ok {
		c.misses++
		return nil, false
	}
	if el.p.Generation() != gen {
		delete(c.entries, text)
		c.removeOrder(text)
		c.invalidations++
		c.misses++
		return nil, false
	}
	c.touch(text)
	c.hits++
	return el.p, true
}

// put caches a prepared query, evicting the least recently used entry
// past capacity.
func (c *planCache) put(text string, p *sqlish.Prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[text]; ok {
		c.entries[text] = &planElem{p: p}
		c.touch(text)
		return
	}
	c.entries[text] = &planElem{p: p}
	c.order = append(c.order, text)
	for len(c.entries) > c.max && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, victim)
	}
}

func (c *planCache) touch(text string) {
	c.removeOrder(text)
	c.order = append(c.order, text)
}

func (c *planCache) removeOrder(text string) {
	for i, t := range c.order {
		if t == text {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}

// purgeStale removes every entry not bound under gen, releasing the
// table pointers its plans hold.
func (c *planCache) purgeStale(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for text, el := range c.entries {
		if el.p.Generation() != gen {
			delete(c.entries, text)
			c.removeOrder(text)
			c.invalidations++
		}
	}
}

func (c *planCache) snapshot() (hits, misses, invalidations int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.invalidations, len(c.entries)
}
