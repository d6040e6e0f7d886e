// Package exec is the streaming block-at-a-time execution engine: a
// pull-based (Volcano-style) operator pipeline over fixed-size columnar
// batches, replacing whole-input materialization for the join shapes that
// do not need it.
//
// The paper's cost model treats intermediate footprint as a first-class
// term; materializing both join inputs makes that footprint whole-table-
// sized regardless of what the query returns. Streaming keeps only the
// build side resident and pulls the probe side through the pipeline one
// block at a time, so peak residency is build-side + O(block) and a LIMIT
// can short-circuit upstream work (scan, embed, probe) it will never use.
//
// Operators compose bottom-up: Scan (predicate + projection pushdown) →
// Embed (chunked through embstore) → optional SemFilter (fused: the same
// block embeddings feed both the filter and the probe, and dropped rows
// are never probed) → one probe operator (ThresholdProbe, TopKProbe, or
// IndexProbe; build side resident) → optional Limit. Each operator tracks
// its own OpStats (rows in/out, batches, early-out counts, self time) for
// EXPLAIN ANALYZE and the /metrics exposition.
package exec

import (
	"context"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/mat"
)

// DefaultBlockSize is the number of probe-side rows per batch when the
// caller does not override it: large enough to amortize per-batch
// dispatch and keep the SIMD kernels fed, small enough that a block of
// embeddings stays cache- and admission-friendly.
const DefaultBlockSize = 4096

// Batch is one block of rows flowing through a pipeline. Source-side
// operators (Scan, Embed, SemFilter) populate Rows/Emb/Sims; probe and
// limit operators emit Matches. A batch is owned by its consumer: an
// operator may compact or mutate a batch it received before passing it on.
type Batch struct {
	// Rows are global row ids into the probe-side base table, ascending.
	Rows []int
	// Emb holds one unit-norm embedding row per entry of Rows (set by
	// Embed, or by Scan when projecting a vector column).
	Emb *mat.Matrix
	// Sims are per-row similarities against a semantic filter's query
	// vector (set by SemFilter).
	Sims []float32
	// Matches are join outputs with global row ids on both sides.
	Matches []core.Match
}

// Len is the number of source rows in the batch.
func (b *Batch) Len() int { return len(b.Rows) }

// OpStats is one operator's account of its work. Counters are cumulative
// over the operator's lifetime; Elapsed is self time (time inside this
// operator's Next, excluding time spent pulling its input).
type OpStats struct {
	// Name identifies the operator in metrics and EXPLAIN ANALYZE
	// ("scan", "embed", "semfilter", "probe:nlj", "probe:tensor", "probe:topk",
	// "probe:index", "limit").
	Name string
	// RowsIn/RowsOut count source rows (or matches, for match-valued
	// operators) entering and leaving the operator.
	RowsIn  int64
	RowsOut int64
	// Batches is the number of non-empty batches emitted.
	Batches int64
	// EarlyOutRows counts rows (or matches) the operator dropped or never
	// produced because of early termination: semantic-filter rejections,
	// residual-threshold drops in top-k, matches discarded by LIMIT.
	EarlyOutRows int64
	// Elapsed is cumulative self time.
	Elapsed time.Duration
}

// Operator is a pull-based pipeline stage. Open cascades to the input and
// acquires resources; Next returns the next batch or (nil, nil) at end of
// stream; Close cascades and releases. Operators are single-consumer and
// not safe for concurrent Next calls — parallelism lives inside the
// kernels a block is handed to, not across blocks.
type Operator interface {
	Open(ctx context.Context) error
	Next(ctx context.Context) (*Batch, error)
	Close() error
	Stats() OpStats
}

// Drain pulls op to end of stream, concatenating emitted matches. The
// batch-local match slices are appended, never aliased, so the result
// survives operator Close.
func Drain(ctx context.Context, op Operator) ([]core.Match, error) {
	var out []core.Match
	for {
		b, err := op.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out = append(out, b.Matches...)
	}
}
