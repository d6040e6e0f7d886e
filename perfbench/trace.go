package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/embstore"
	"ejoin/internal/mat"
	"ejoin/internal/model"
	"ejoin/internal/plan"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
	"ejoin/internal/service"
	"ejoin/internal/shard"
	"ejoin/internal/sqlish"
	"ejoin/internal/vec"
)

// The traced run replays a workload's requests one at a time. Each replayed
// request goes once over HTTP to a booted ejserve and once through each
// layer's public entry point in process, with the benchmark timing every
// call from outside; the program itself is unchanged. A layer's self time
// is its call's time minus the calls of the layers below it, so the self
// times of one request add up to its HTTP latency. A reported figure is
// the median over each shape's replays, averaged over the shapes as the
// traffic weighs them; unattributed_ms is the HTTP latency folded the
// same way minus the sum of the reported self times.

const (
	scanTraceReps  = 3  // replays of each scan shape
	matchTraceReqs = 24 // replayed fresh-match requests
	// kernelBudget is the engine's default tensor-join block budget.
	kernelBudget = 32 << 20
	// serverThreads is ejserve's default per-query parallelism:
	// GOMAXPROCS divided over GOMAXPROCS query slots.
	serverThreads = 1
)

// span is one timed call. Start and End are nanoseconds since the run
// began; Parent indexes the enclosing span (-1 for a request's root).
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request string `json:"request_id"`
}

// tracer keeps spans in memory; the run writes them out when it ends.
// The replay is sequential, so it needs no lock.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) start(name string, parent int, req string) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Request: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// timed runs fn as a child span of parent and returns its duration.
func (t *tracer) timed(name string, parent int, req string, fn func() error) (time.Duration, error) {
	i := t.start(name, parent, req)
	err := fn()
	return t.end(i), err
}

// timingModel counts and times the calls into the model it wraps.
type timingModel struct {
	model.Model
	calls atomic.Int64
	nanos atomic.Int64
}

func (m *timingModel) Embed(s string) ([]float32, error) {
	start := time.Now()
	v, err := m.Model.Embed(s)
	m.nanos.Add(int64(time.Since(start)))
	m.calls.Add(1)
	return v, err
}

// Fingerprint keeps the wrapped model's cache identity.
func (m *timingModel) Fingerprint() string { return embstore.Fingerprint(m.Model) }

// layerTimes is one replayed request's breakdown.
type layerTimes struct {
	shape                   int
	http, httpSelf          time.Duration
	readCSV, register       time.Duration
	query, serviceSelf      time.Duration
	prepare, optimize       time.Duration
	exec, execSelf          time.Duration
	embedCold, embedWarm    time.Duration
	kernel                  time.Duration
	router, shardSelf       time.Duration
	pairs                   float64 // kernel comparisons
	storeHits, storeLookups int64
	evictions, modelCalls   int64
	modelNanos              int64
	prepared                bool // Engine.Query missed its plan cache
}

// components are the request's layer self times; they add up to its
// HTTP latency.
func (l layerTimes) components() map[string]time.Duration {
	c := map[string]time.Duration{
		"ejserve.http_self":   l.httpSelf,
		"relational.read_csv": l.readCSV,
		"durable.register":    l.register,
		"service.self":        l.serviceSelf,
		"plan.optimize":       l.optimize,
		"exec.self":           l.execSelf,
		"embstore.embed":      l.embedCold,
		"core.kernel":         l.kernel,
		"shard.self":          l.shardSelf,
	}
	if l.prepared {
		c["sqlish.prepare"] = l.prepare
	} else {
		c["sqlish.prepare"] = 0
	}
	return c
}

// inproc is the in-process side of a traced run: an engine loaded with
// the same data as the server, optionally a shard router too, and a
// standalone store that mirrors the engine store's contents so cold
// embedding can be timed apart from the query that would warm it.
type inproc struct {
	eng    *service.Engine
	router *shard.Router
	opt    *plan.Optimizer
	ex     *plan.Executor
	store  *embstore.Store
	tm     *timingModel
	prec   map[string]quant.Precision
	kopts  core.Options
	bopts  embstore.BatchOptions
}

func engineConfig(w workload, dataDir string) service.Config {
	// ejserve's defaults, so the in-process engine plans and runs as the
	// server does.
	cfg := service.Config{
		Dim:            embedDim,
		StoreBytes:     256 << 20,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     5 * time.Minute,
		RecallSLO:      0.95,
		AuditFraction:  0.05,
		DataDir:        dataDir,
	}
	if w.Durable {
		cfg.StoreBytes = matchStoreBytes
	}
	return cfg
}

func newInproc(w workload, dataDir string) (*inproc, error) {
	cfg := engineConfig(w, dataDir)
	eng, err := service.Open(cfg)
	if err != nil {
		return nil, err
	}
	hm, err := model.NewHashEmbedder(embedDim)
	if err != nil {
		return nil, err
	}
	p := &inproc{
		eng:   eng,
		opt:   &plan.Optimizer{Params: cost.DefaultParams(), Store: eng.Store()},
		store: embstore.New(embstore.Config{MaxBytes: cfg.StoreBytes}),
		tm:    &timingModel{Model: hm},
		prec:  map[string]quant.Precision{},
		kopts: core.Options{Kernel: vec.DefaultKernel(), Threads: serverThreads, BudgetBytes: kernelBudget},
		bopts: embstore.BatchOptions{Threads: serverThreads},
	}
	p.ex = &plan.Executor{Options: p.kopts, Store: eng.Store()}
	if w.Shards > 1 {
		rc := engineConfig(w, "")
		p.router, err = shard.Open(shard.Config{Shards: w.Shards, Partitioner: "hash", Engine: rc})
		if err != nil {
			eng.Close()
			return nil, err
		}
	}
	return p, nil
}

func (p *inproc) close() error {
	if p.router != nil {
		p.router.Close()
	}
	return p.eng.Close()
}

// parseSchema reads the "col:type,..." form the benchmark's tables use.
func parseSchema(spec string) (relational.Schema, error) {
	var s relational.Schema
	for _, part := range strings.Split(spec, ",") {
		col, typ, _ := strings.Cut(part, ":")
		switch typ {
		case "int":
			s = append(s, relational.Field{Name: col, Type: relational.Int64})
		case "text":
			s = append(s, relational.Field{Name: col, Type: relational.String})
		default:
			return nil, fmt.Errorf("schema %q: unsupported type %q", spec, typ)
		}
	}
	return s, nil
}

// ingest parses and registers t on the engine (and the router), timing
// the parse and the registration.
func (p *inproc) ingest(tr *tracer, parent int, req string, t tableSpec) (readCSV, register time.Duration, err error) {
	schema, err := parseSchema(t.Schema)
	if err != nil {
		return 0, 0, err
	}
	var tbl *relational.Table
	readCSV, err = tr.timed("relational.read_csv", parent, req, func() (err error) {
		tbl, err = relational.ReadCSV(strings.NewReader(t.CSV), schema)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	register, err = tr.timed("durable.register", parent, req, func() error {
		return p.eng.RegisterTable(t.Name, tbl)
	})
	if err != nil {
		return 0, 0, err
	}
	if t.Prec != quant.PrecisionAuto {
		if err := p.eng.SetTablePrecision(t.Name, t.Prec); err != nil {
			return 0, 0, err
		}
	}
	p.prec[t.Name] = t.Prec
	if p.router != nil {
		if _, err := p.router.RegisterCSVWithPrecision(t.Name, schema, strings.NewReader(t.CSV), true, t.Prec); err != nil {
			return 0, 0, err
		}
	}
	return readCSV, register, nil
}

// coarser is the precision knob the engine applies to a pair of tables.
func coarser(a, b quant.Precision) quant.Precision {
	rank := func(p quant.Precision) int {
		switch p {
		case quant.PrecisionInt8:
			return 3
		case quant.PrecisionF16:
			return 2
		case quant.PrecisionF32:
			return 1
		}
		return 0
	}
	if rank(b) > rank(a) {
		return b
	}
	return a
}

// kernel times the shape's core operator on already-embedded inputs.
func (p *inproc) kernel(ctx context.Context, s shape, left, right *mat.Matrix) (time.Duration, error) {
	var run func() error
	thr := float32(s.Threshold)
	switch {
	case s.TopK > 0:
		run = func() error { _, err := core.TensorTopK(ctx, left, right, s.TopK, p.kopts); return err }
	case s.Prec == quant.PrecisionF16:
		l, r := mat.EncodeF16(left), mat.EncodeF16(right)
		run = func() error { _, err := core.NLJF16(ctx, l, r, thr, p.kopts); return err }
	case s.Prec == quant.PrecisionInt8:
		l, r := quant.EncodeInt8(left), quant.EncodeInt8(right)
		run = func() error { _, err := core.NLJI8(ctx, l, r, thr, p.kopts); return err }
	default:
		run = func() error { _, err := core.TensorJoin(ctx, left, right, thr, p.kopts); return err }
	}
	start := time.Now()
	err := run()
	return time.Since(start), err
}

// replay runs one request through every layer. texts are the join's
// left (after the shape's filter) and right inputs; issue sends the same
// request over HTTP and returns its answer.
func (p *inproc) replay(ctx context.Context, tr *tracer, req string, si int, s shape, leftTexts, rightTexts []string,
	ingest *tableSpec, issue func() ([]match, error)) (layerTimes, []match, []match, error) {
	lt := layerTimes{shape: si}
	root := tr.start("request", -1, req)
	defer tr.end(root)
	sql := s.SQL()

	var httpAns []match
	var err error
	lt.http, err = tr.timed("ejserve.http", root, req, func() (err error) {
		httpAns, err = issue()
		return err
	})
	if err != nil {
		return lt, nil, nil, fmt.Errorf("http: %w", err)
	}
	if ingest != nil {
		if lt.readCSV, lt.register, err = p.ingest(tr, root, req, *ingest); err != nil {
			return lt, nil, nil, err
		}
	}

	// The standalone store sees the same lookups the query is about to
	// make, so its first pass is as cold as the engine's store is now.
	st0 := p.store.Stats()
	calls0, nanos0 := p.tm.calls.Load(), p.tm.nanos.Load()
	var lm, rm *mat.Matrix
	lt.embedCold, err = tr.timed("embstore.embed", root, req, func() (err error) {
		if lm, _, err = p.store.EmbedAll(ctx, p.tm, leftTexts, p.bopts); err != nil {
			return err
		}
		rm, _, err = p.store.EmbedAll(ctx, p.tm, rightTexts, p.bopts)
		return err
	})
	if err != nil {
		return lt, nil, nil, err
	}
	st1 := p.store.Stats()
	lt.storeHits = st1.Hits - st0.Hits
	lt.storeLookups = lt.storeHits + st1.Misses - st0.Misses + st1.Merged - st0.Merged
	lt.evictions = st1.Evictions - st0.Evictions
	lt.modelCalls = p.tm.calls.Load() - calls0
	lt.modelNanos = p.tm.nanos.Load() - nanos0
	lt.embedWarm, err = tr.timed("embstore.embed_warm", root, req, func() error {
		if _, _, err := p.store.EmbedAll(ctx, p.tm, leftTexts, p.bopts); err != nil {
			return err
		}
		_, _, err := p.store.EmbedAll(ctx, p.tm, rightTexts, p.bopts)
		return err
	})
	if err != nil {
		return lt, nil, nil, err
	}

	var inAns []match
	if p.router != nil {
		lt.router, err = tr.timed("shard.query", root, req, func() error {
			res, err := p.router.Query(ctx, service.QueryRequest{SQL: sql})
			if err == nil {
				inAns = toMatches(res.Matches)
			}
			return err
		})
		if err != nil {
			return lt, nil, nil, err
		}
	}
	lt.query, err = tr.timed("service.query", root, req, func() error {
		res, err := p.eng.Query(ctx, service.QueryRequest{SQL: sql})
		if err == nil {
			lt.prepared = !res.PlanCacheHit
			if p.router == nil {
				inAns = toMatches(res.Matches)
			}
		}
		return err
	})
	if err != nil {
		return lt, nil, nil, err
	}

	var q plan.Query
	lt.prepare, err = tr.timed("sqlish.prepare", root, req, func() error {
		pr, err := sqlish.Prepare(sql, p.eng.Catalog(), p.eng.Model())
		if err == nil {
			q = pr.Query()
		}
		return err
	})
	if err != nil {
		return lt, nil, nil, err
	}
	var optimized *plan.EJoin
	lt.optimize, err = tr.timed("plan.optimize", root, req, func() error {
		naive, err := plan.NewNaivePlan(q)
		if err != nil {
			return err
		}
		optimized, err = p.opt.Optimize(naive)
		return err
	})
	if err != nil {
		return lt, nil, nil, err
	}
	// The engine's per-table precision knob, as Engine.Query applies it.
	if pr := coarser(p.prec[s.Left], p.prec[s.Right]); optimized.Quantizable() && pr != quant.PrecisionAuto {
		optimized.Precision = pr
		optimized.PrecisionSlack = 0
		optimized.PrecisionEstimates = nil
	}
	lt.exec, err = tr.timed("plan.execute", root, req, func() error {
		_, err := p.ex.ExecuteStreaming(ctx, optimized, 0)
		return err
	})
	if err != nil {
		return lt, nil, nil, err
	}
	k := tr.start("core.kernel", root, req)
	lt.kernel, err = p.kernel(ctx, s, lm, rm)
	tr.end(k)
	if err != nil {
		return lt, nil, nil, err
	}
	lt.pairs = float64(lm.Rows()) * float64(rm.Rows())

	lt.execSelf = lt.exec - lt.embedWarm - lt.kernel
	lt.serviceSelf = lt.query - lt.optimize - lt.exec - (lt.embedCold - lt.embedWarm)
	if lt.prepared {
		lt.serviceSelf -= lt.prepare
	}
	served := lt.query
	if p.router != nil {
		lt.shardSelf = lt.router - lt.query
		served = lt.router
	}
	lt.httpSelf = lt.http - lt.readCSV - lt.register - served
	return lt, httpAns, inAns, nil
}

func toMatches(ms []core.Match) []match {
	out := make([]match, len(ms))
	for i, m := range ms {
		out[i] = match{Left: m.Left, Right: m.Right, Sim: m.Sim}
	}
	return out
}

// tracedRun is the --trace 1 run: per-layer metrics for w.
func tracedRun(ctx context.Context, e env, w workload, host *hostInfo) (*result, error) {
	host.FMAGflops = fmaProbe(serverThreads)
	host.CopyGBps = copyProbe()

	d, _, err := setUp(ctx, e, w, 0)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer d.close()

	var inDir string
	if w.Durable {
		inDir = filepath.Join(e.Work, "tmp", fmt.Sprintf("%s-%d-inproc", w.Name, os.Getpid()))
		if err := os.RemoveAll(inDir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(inDir)
	}
	p, err := newInproc(w, inDir)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			p.close()
		}
	}()

	tr := &tracer{t0: time.Now()}
	v, err := newVerifier(ctx, e, w, d)
	if err != nil {
		return nil, fmt.Errorf("verifier: %w", err)
	}
	st0, err := d.Srv.stats(ctx)
	if err != nil {
		return nil, err
	}

	var (
		reqs      []layerTimes
		ingestCSV []time.Duration
		ingestReg []time.Duration
		samples   []sample // answers to verify, HTTP and in process
		userBytes int64
		dir0      int64
	)
	if d.Stream == nil {
		for _, t := range scanTables(d.Scan) {
			rc, rg, err := p.ingest(tr, -1, "ingest/"+t.Name, t)
			if err != nil {
				return nil, err
			}
			ingestCSV, ingestReg = append(ingestCSV, rc), append(ingestReg, rg)
		}
		for _, s := range scanShapes {
			if _, err := p.eng.Query(ctx, service.QueryRequest{SQL: s.SQL()}); err != nil {
				return nil, err
			}
			if p.router != nil {
				if _, err := p.router.Query(ctx, service.QueryRequest{SQL: s.SQL()}); err != nil {
					return nil, err
				}
			}
		}
		if _, _, err := p.store.EmbedAll(ctx, p.tm, append(append([]string(nil), d.Scan.Left...), d.Scan.Right...), p.bopts); err != nil {
			return nil, err
		}
		for rep := 0; rep < scanTraceReps; rep++ {
			for si, s := range scanShapes {
				left := d.Scan.Left
				if s.LeftIDBelow > 0 {
					left = left[:s.LeftIDBelow]
				}
				sql := s.SQL()
				lt, httpAns, inAns, err := p.replay(ctx, tr, fmt.Sprintf("%s/%d", s.Name, rep), si, s, left, d.Scan.Right, nil,
					func() ([]match, error) { return d.Srv.query(ctx, sql) })
				if err != nil {
					return nil, fmt.Errorf("%s: %w", s.Name, err)
				}
				reqs = append(reqs, lt)
				samples = append(samples, sample{Shape: si, Batch: -1, Matches: httpAns}, sample{Shape: si, Batch: -1, Matches: inAns})
			}
		}
	} else {
		if _, _, err := p.ingest(tr, -1, "ingest/catalog", catalogTable(d.Stream)); err != nil {
			return nil, err
		}
		// Bring the in-process engine and store to the server's state:
		// full and evicting.
		si := len(allShapes) - 1
		for b := 0; b < d.NextBatch; b++ {
			t := probeTable("probe0", d.Stream.Batch(b))
			if _, _, err := p.ingest(tr, -1, "warm", t); err != nil {
				return nil, err
			}
			if _, err := p.eng.Query(ctx, service.QueryRequest{SQL: matchShape.withLeft("probe0").SQL()}); err != nil {
				return nil, err
			}
			if _, _, err := p.store.EmbedAll(ctx, p.tm, d.Stream.Batch(b), p.bopts); err != nil {
				return nil, err
			}
			if _, _, err := p.store.EmbedAll(ctx, p.tm, d.Stream.Catalog, p.bopts); err != nil {
				return nil, err
			}
		}
		tr.spans = tr.spans[:0]
		if dir0, err = dirBytes(inDir); err != nil {
			return nil, err
		}
		s := matchShape.withLeft("probe0")
		for i := 0; i < matchTraceReqs; i++ {
			b := d.NextBatch + i
			batch := d.Stream.Batch(b)
			t := probeTable("probe0", batch)
			userBytes += int64(len(t.CSV))
			lt, httpAns, inAns, err := p.replay(ctx, tr, fmt.Sprintf("match/%d", b), si, s, batch, d.Stream.Catalog, &t,
				func() ([]match, error) { return d.matchRequest(ctx, 0, batch) })
			if err != nil {
				return nil, fmt.Errorf("match batch %d: %w", b, err)
			}
			reqs = append(reqs, lt)
			samples = append(samples, sample{Shape: si, Batch: b, Matches: httpAns}, sample{Shape: si, Batch: b, Matches: inAns})
		}
	}
	st1, err := d.Srv.stats(ctx)
	if err != nil {
		return nil, err
	}
	// Close flushes the write-behind queue, so the data directory holds
	// everything the replay persisted.
	closed = true
	if err := p.close(); err != nil {
		return nil, err
	}
	var dirGrowth int64
	if w.Durable {
		dir1, err := dirBytes(inDir)
		if err != nil {
			return nil, err
		}
		dirGrowth = dir1 - dir0
	}

	wrong := v.check(samples)
	failed := 0
	for i, why := range wrong {
		if why != "" {
			failed++
			fmt.Fprintf(os.Stderr, "traced answer %d (%s): %s\n", i, allShapes[samples[i].Shape].Name, why)
		}
	}

	m := layerMetrics(w, reqs, host)
	n := float64(len(reqs))
	m["service.admission_waits_per_req"] = metric{float64(st1.AdmissionWaits-st0.AdmissionWaits) / n, "count"}
	m["ejserve.model_calls_per_req"] = metric{float64(st1.store().ModelCalls-st0.store().ModelCalls) / n, "count"}
	if len(ingestCSV) > 0 {
		m["relational.read_csv_ms"] = metric{medianMS(ingestCSV), "ms"}
		m["durable.register_ms"] = metric{medianMS(ingestReg), "ms"}
	}
	if w.Durable && userBytes > 0 {
		m["durable.bytes_per_user_byte"] = metric{float64(dirGrowth) / float64(userBytes), "ratio"}
	}
	if p.router != nil {
		m["shard.partition_skew"] = metric{p.router.Stats().PartitionSkew, "ratio"}
	}
	reconcile(w, reqs)

	if err := writeSpans(e, w, host, tr.spans); err != nil {
		return nil, err
	}
	return &result{Correct: failed == 0, Attempted: len(samples), Failed: failed, Metrics: m}, nil
}

func medianMS(ds []time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = ms(d)
	}
	return median(v)
}

// shapeMS is f's median over the requests of shape si; ok is false when
// the workload ran no such request.
func shapeMS(reqs []layerTimes, si int, f func(layerTimes) time.Duration) (v float64, ok bool) {
	var ds []time.Duration
	for _, r := range reqs {
		if r.shape == si {
			ds = append(ds, f(r))
		}
	}
	if len(ds) == 0 {
		return 0, false
	}
	return medianMS(ds), true
}

// perLayerNames lists every per-layer metric with its unit, in the order
// BENCHMARK.json declares them. A layer a workload does not reach reports
// 0.
func perLayerNames() [][2]string {
	var out [][2]string
	out = append(out, [2]string{"host.fma_gflops", "GFLOP/s"}, [2]string{"host.copy_gbps", "GB/s"})
	for _, s := range allShapes {
		out = append(out,
			[2]string{"core." + s.Name + ".kernel_ms", "ms"},
			[2]string{"core." + s.Name + ".gflops", "GFLOP/s"},
			[2]string{"core." + s.Name + ".roofline_frac", "frac"},
			[2]string{"exec." + s.Name + ".self_ms", "ms"},
			[2]string{"service." + s.Name + ".query_ms", "ms"})
	}
	return append(out,
		[2]string{"service.self_ms", "ms"},
		[2]string{"service.admission_waits_per_req", "count"},
		[2]string{"embstore.embed_ms", "ms"},
		[2]string{"embstore.hit_ratio", "frac"},
		[2]string{"embstore.evictions_per_req", "count"},
		[2]string{"model.calls_per_req", "count"},
		[2]string{"model.embed_us", "us"},
		[2]string{"sqlish.prepare_us", "us"},
		[2]string{"plan.optimize_us", "us"},
		[2]string{"relational.read_csv_ms", "ms"},
		[2]string{"durable.register_ms", "ms"},
		[2]string{"durable.bytes_per_user_byte", "ratio"},
		[2]string{"shard.query_ms", "ms"},
		[2]string{"shard.self_ms", "ms"},
		[2]string{"shard.partition_skew", "ratio"},
		[2]string{"ejserve.http_self_ms", "ms"},
		[2]string{"ejserve.model_calls_per_req", "count"},
		[2]string{"unattributed_ms", "ms"},
	)
}

// layerMetrics folds the replayed requests into the per-layer metrics.
func layerMetrics(w workload, reqs []layerTimes, host *hostInfo) map[string]metric {
	m := map[string]metric{}
	for _, nu := range perLayerNames() {
		m[nu[0]] = metric{0, nu[1]}
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	set("host.fma_gflops", host.FMAGflops)
	set("host.copy_gbps", host.CopyGBps)
	for si, s := range allShapes {
		kms, ok := shapeMS(reqs, si, func(r layerTimes) time.Duration { return r.kernel })
		if !ok {
			continue
		}
		var pairs float64
		for _, r := range reqs {
			if r.shape == si {
				pairs = r.pairs
			}
		}
		gflops := 2 * pairs * embedDim / (kms / 1e3) / 1e9
		execSelf, _ := shapeMS(reqs, si, func(r layerTimes) time.Duration { return r.execSelf })
		query, _ := shapeMS(reqs, si, func(r layerTimes) time.Duration { return r.query })
		set("core."+s.Name+".kernel_ms", kms)
		set("core."+s.Name+".gflops", gflops)
		set("core."+s.Name+".roofline_frac", gflops/host.FMAGflops)
		set("exec."+s.Name+".self_ms", execSelf)
		set("service."+s.Name+".query_ms", query)
	}
	set("service.self_ms", mixMS(reqs, func(r layerTimes) time.Duration { return r.serviceSelf }))
	set("embstore.embed_ms", mixMS(reqs, func(r layerTimes) time.Duration { return r.embedCold }))
	set("sqlish.prepare_us", 1e3*mixMS(reqs, func(r layerTimes) time.Duration { return r.prepare }))
	set("plan.optimize_us", 1e3*mixMS(reqs, func(r layerTimes) time.Duration { return r.optimize }))
	set("ejserve.http_self_ms", mixMS(reqs, func(r layerTimes) time.Duration { return r.httpSelf }))
	if w.Durable {
		set("relational.read_csv_ms", mixMS(reqs, func(r layerTimes) time.Duration { return r.readCSV }))
		set("durable.register_ms", mixMS(reqs, func(r layerTimes) time.Duration { return r.register }))
	}
	if w.Shards > 1 {
		set("shard.query_ms", mixMS(reqs, func(r layerTimes) time.Duration { return r.router }))
		set("shard.self_ms", mixMS(reqs, func(r layerTimes) time.Duration { return r.shardSelf }))
	}
	var hits, lookups, evictions, calls, nanos int64
	for _, r := range reqs {
		hits += r.storeHits
		lookups += r.storeLookups
		evictions += r.evictions
		calls += r.modelCalls
		nanos += r.modelNanos
	}
	n := float64(len(reqs))
	if lookups > 0 {
		set("embstore.hit_ratio", float64(hits)/float64(lookups))
	}
	set("embstore.evictions_per_req", float64(evictions)/n)
	set("model.calls_per_req", float64(calls)/n)
	if calls > 0 {
		set("model.embed_us", float64(nanos)/float64(calls)/1e3)
	}
	set("unattributed_ms", unattributed(reqs))
	return m
}

// mixMS is f's median over each shape's requests, averaged over the
// shapes with equal weight, as the traffic mixes them.
func mixMS(reqs []layerTimes, f func(layerTimes) time.Duration) float64 {
	byShape := map[int][]time.Duration{}
	for _, r := range reqs {
		byShape[r.shape] = append(byShape[r.shape], f(r))
	}
	sum := 0.0
	for _, ds := range byShape {
		sum += medianMS(ds)
	}
	return sum / float64(len(byShape))
}

// unattributed is the HTTP latency minus the layer self times, each
// folded by mixMS: what the reported layer figures leave unexplained.
func unattributed(reqs []layerTimes) float64 {
	rest := mixMS(reqs, func(r layerTimes) time.Duration { return r.http })
	for name := range reqs[0].components() {
		rest -= mixMS(reqs, func(r layerTimes) time.Duration { return r.components()[name] })
	}
	return rest
}

// reconcile prints, to standard error, each layer's self time and the
// unattributed remainder against the sequential HTTP latency.
func reconcile(w workload, reqs []layerTimes) {
	http := mixMS(reqs, func(r layerTimes) time.Duration { return r.http })
	fmt.Fprintf(os.Stderr, "%s: %d traced requests, sequential HTTP latency %.3f ms\n", w.Name, len(reqs), http)
	var names []string
	for name := range reqs[0].components() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := mixMS(reqs, func(r layerTimes) time.Duration { return r.components()[name] })
		fmt.Fprintf(os.Stderr, "  %-20s %10.3f ms\n", name, v)
	}
	fmt.Fprintf(os.Stderr, "  %-20s %10.3f ms\n", "unattributed", unattributed(reqs))
}

// writeSpans writes the run's spans, with the host descriptor, under the
// scratch directory.
func writeSpans(e env, w workload, host *hostInfo, spans []span) error {
	path := filepath.Join(e.Work, fmt.Sprintf("spans-%s-%d.json", w.Name, e.Seed))
	b, err := json.Marshal(map[string]any{"workload": w.Name, "seed": e.Seed, "host": host, "spans": spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spans: %s\n", path)
	return nil
}
