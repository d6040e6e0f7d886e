package service

import (
	"sync"
	"sync/atomic"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/embstore"
	"ejoin/internal/plan"
	"ejoin/internal/quant"
)

// counters holds the engine's mutable statistics. Scalar counts are
// atomics; the aggregated join stats and per-strategy counts are guarded
// by a mutex (they are multi-field updates).
type counters struct {
	queries        atomic.Int64
	errors         atomic.Int64
	rejected       atomic.Int64
	admissionWaits atomic.Int64
	inFlight       atomic.Int64

	// Streaming-executor shape counters: which engine ran, how many
	// batches flowed, and how many rows/matches early-out skipped.
	streamed     atomic.Int64
	materialized atomic.Int64
	truncated    atomic.Int64
	execBatches  atomic.Int64
	execEarlyOut atomic.Int64

	mu         sync.Mutex
	join       core.Stats
	strategies map[string]int64
	precisions map[string]int64
}

// recordExecution folds one successful execution into the aggregates.
func (e *Engine) recordExecution(strategy string, precision quant.Precision, s core.Stats) {
	c := &e.counters
	c.mu.Lock()
	defer c.mu.Unlock()
	c.join.ModelCalls += s.ModelCalls
	c.join.Comparisons += s.Comparisons
	c.join.Blocks += s.Blocks
	c.join.EmbedTime += s.EmbedTime
	c.join.JoinTime += s.JoinTime
	if s.PeakIntermediateBytes > c.join.PeakIntermediateBytes {
		c.join.PeakIntermediateBytes = s.PeakIntermediateBytes
	}
	if c.strategies == nil {
		c.strategies = make(map[string]int64)
	}
	c.strategies[strategy]++
	if c.precisions == nil {
		c.precisions = make(map[string]int64)
	}
	c.precisions[precision.String()]++
}

// recordExecShape folds one execution's streaming-pipeline accounting
// into the counters and the per-operator latency histograms.
func (e *Engine) recordExecShape(res *plan.ExecResult) {
	c := &e.counters
	if res.Streamed {
		c.streamed.Add(1)
	} else {
		c.materialized.Add(1)
	}
	if res.Truncated {
		c.truncated.Add(1)
	}
	for _, op := range res.Ops {
		c.execBatches.Add(op.Batches)
		c.execEarlyOut.Add(op.EarlyOutRows)
		e.obs.byOperator.With(op.Name).Observe(op.Elapsed)
	}
}

// ExecStats is the streaming execution engine's observability surface.
type ExecStats struct {
	// StreamedQueries/MaterializedQueries split served queries by which
	// executor ran them (naive-strategy fallbacks count as materialized).
	StreamedQueries     int64 `json:"streamed_queries"`
	MaterializedQueries int64 `json:"materialized_queries"`
	// TruncatedQueries counts streams a LIMIT short-circuited.
	TruncatedQueries int64 `json:"truncated_queries"`
	// Batches is the total batches emitted across all pipeline operators.
	Batches int64 `json:"batches"`
	// EarlyOutRows counts rows and matches skipped by early termination
	// (semantic-filter rejections, residual-threshold drops, LIMIT cuts).
	EarlyOutRows int64 `json:"early_out_rows"`
	// BlockRows is the configured probe-side block size (0 = default).
	BlockRows int `json:"block_rows"`
}

// QuantStats is the precision ladder's observability surface.
type QuantStats struct {
	// TablePrecisions maps tables with a declared precision knob to it.
	TablePrecisions map[string]string `json:"table_precisions,omitempty"`
	// JoinsByPrecision counts executed joins per effective scan precision.
	JoinsByPrecision map[string]int64 `json:"joins_by_precision,omitempty"`
	// PrecisionSlack is the configured planner slack (0 = exact plans
	// unless a table knob forces otherwise).
	PrecisionSlack float64 `json:"precision_slack"`
}

// ServerStats is the engine's aggregated observability surface: request
// counters, admission state, plan-cache behavior, cumulative executor
// work, and the shared store's statistics.
type ServerStats struct {
	// Uptime is time since the engine was built.
	Uptime time.Duration `json:"uptime_ns"`
	// Queries is the number of successfully served queries.
	Queries int64 `json:"queries"`
	// Errors counts failed queries (parse, bind, execution, deadline).
	Errors int64 `json:"errors"`
	// Rejected counts queries whose context ended while waiting for
	// admission (a subset of Errors).
	Rejected int64 `json:"rejected"`
	// InFlight is the number of queries currently executing.
	InFlight int64 `json:"in_flight"`
	// AdmissionWaits counts queries that had to queue for a slot or for
	// byte budget before executing.
	AdmissionWaits int64 `json:"admission_waits"`
	// AdmittedBytes is the intermediate-footprint weight currently held.
	AdmittedBytes int64 `json:"admitted_bytes"`
	// AdmissionWaiting is the number of queries queued right now.
	AdmissionWaiting int `json:"admission_waiting"`
	// PlanCacheHits/Misses/Invalidations/Entries describe the prepared
	// query cache (invalidations are generation mismatches after catalog
	// changes).
	PlanCacheHits          int64 `json:"plan_cache_hits"`
	PlanCacheMisses        int64 `json:"plan_cache_misses"`
	PlanCacheInvalidations int64 `json:"plan_cache_invalidations"`
	PlanCacheEntries       int   `json:"plan_cache_entries"`
	// Tables is the current catalog size.
	Tables int `json:"tables"`
	// Join is the cumulative executor work across all served queries
	// (PeakIntermediateBytes is the high-water mark, not a sum).
	Join core.Stats `json:"join"`
	// Strategies counts executions per physical strategy. Omitted until
	// the first query so the schema is stable: absent or populated, never
	// an empty object. encoding/json renders map keys sorted, so the
	// serialized form is deterministic.
	Strategies map[string]int64 `json:"strategies,omitempty"`
	// Quant describes the precision ladder: per-table knobs and joins
	// executed per precision.
	Quant QuantStats `json:"quant"`
	// Store is the shared embedding store's statistics.
	Store embstore.Stats `json:"store"`
	// StoreModels counts cached entries per model fingerprint (the
	// export iterator PR 1 lacked made this unreportable).
	StoreModels map[string]int `json:"store_models,omitempty"`
	// Durable describes the persistence layer; nil for memory-only
	// engines.
	Durable *DurableStats `json:"durable,omitempty"`
	// Mutation describes the live-update arm: WAL, applied batches,
	// tombstones, replay, and index re-clustering.
	Mutation *MutationStats `json:"mutation,omitempty"`
	// Exec describes the streaming execution engine: which executor served
	// queries, batch counts, and early-out savings.
	Exec ExecStats `json:"exec"`
	// Obs describes the tracing subsystem: traced queries, slow-log
	// retention, and latency-histogram sample counts.
	Obs ObsStats `json:"obs"`
	// Cost surfaces the planner's effective cost-model coefficients and
	// whether they came from machine calibration.
	Cost CostStats `json:"cost"`
	// Feedback describes the closed loop: audit counts, tuner moves, and
	// the recall SLO driving them.
	Feedback FeedbackStats `json:"feedback"`
}

// Stats snapshots the engine's statistics.
func (e *Engine) Stats() ServerStats {
	c := &e.counters
	// Query bumps counters.queries before it observes latency, so the obs
	// snapshot is read first: every latency sample it counts then belongs
	// to a query the counter load below already sees.
	obsSt := e.obsStats()
	hits, misses, invalidations, entries := e.plans.snapshot()
	st := ServerStats{
		Uptime:                 time.Since(e.start),
		Queries:                c.queries.Load(),
		Errors:                 c.errors.Load(),
		Rejected:               c.rejected.Load(),
		InFlight:               c.inFlight.Load(),
		AdmissionWaits:         c.admissionWaits.Load(),
		AdmittedBytes:          e.bytes.InUse(),
		AdmissionWaiting:       e.bytes.Waiting(),
		PlanCacheHits:          hits,
		PlanCacheMisses:        misses,
		PlanCacheInvalidations: invalidations,
		PlanCacheEntries:       entries,
		Tables:                 e.catalog.Len(),
		Store:                  e.store.Stats(),
		StoreModels:            e.store.ModelEntries(),
		Durable:                e.durableStats(),
		Mutation:               e.mutationStats(),
	}
	st.Exec = ExecStats{
		StreamedQueries:     c.streamed.Load(),
		MaterializedQueries: c.materialized.Load(),
		TruncatedQueries:    c.truncated.Load(),
		Batches:             c.execBatches.Load(),
		EarlyOutRows:        c.execEarlyOut.Load(),
		BlockRows:           e.cfg.ExecBlockRows,
	}
	st.Quant.TablePrecisions = e.tablePrec.snapshot()
	st.Quant.PrecisionSlack = e.cfg.PrecisionSlack
	st.Obs = obsSt
	st.Cost = e.costStats()
	st.Feedback = e.feedbackStats()
	c.mu.Lock()
	st.Join = c.join
	if len(c.strategies) > 0 {
		st.Strategies = make(map[string]int64, len(c.strategies))
		for k, v := range c.strategies {
			st.Strategies[k] = v
		}
	}
	if len(c.precisions) > 0 {
		st.Quant.JoinsByPrecision = make(map[string]int64, len(c.precisions))
		for k, v := range c.precisions {
			st.Quant.JoinsByPrecision[k] = v
		}
	}
	c.mu.Unlock()
	return st
}
