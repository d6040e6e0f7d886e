package plan

import (
	"context"
	"fmt"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/embstore"
	"ejoin/internal/exec"
	"ejoin/internal/mat"
	"ejoin/internal/model"
	"ejoin/internal/obs"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
)

// Executor runs optimized plans on the block-at-a-time pipeline of
// package exec (see ExecuteStreaming): the build (inner) side is
// evaluated resident, and the probe (outer) side streams through it.
type Executor struct {
	// Options tunes the physical operators (kernel, threads, memory budget).
	Options core.Options
	// IndexEf overrides probe beam width for index joins.
	IndexEf int
	// Store, when set, is the shared cross-query embedding store: Embed
	// nodes are evaluated through it, so repeated queries over the same
	// corpus reuse embeddings and concurrent queries share in-flight model
	// calls. Stats.ModelCalls then reports actual model work (misses), not
	// input cardinality.
	Store *embstore.Store
	// BlockRows is the probe-side block size; <=0 uses
	// exec.DefaultBlockSize. Results do not depend on it.
	BlockRows int
}

// ExecResult is the output of executing a join plan. Matches carry global
// row ids into the original (pre-filter) left and right tables, in the
// query's original orientation even if the optimizer swapped inputs.
type ExecResult struct {
	Matches  []core.Match
	Stats    core.Stats
	Strategy cost.Strategy
	// LeftRows/RightRows are the selections that survived relational
	// predicates (original orientation).
	LeftRows  relational.Selection
	RightRows relational.Selection
	// Analysis is the EXPLAIN ANALYZE tree (estimated vs observed
	// cardinality, per-node wall time), mirroring the executed plan. Built
	// only when the context carries an obs.Trace.
	Analysis *obs.NodeStats
	// Truncated reports the execution stopped early because its LIMIT
	// was satisfied: Matches holds exactly the first limit matches
	// and downstream consumers must treat observed cardinality as censored.
	Truncated bool
	// Ops are the pipeline's per-operator statistics (rows in/out,
	// batches, early-out counts, self time), source to sink.
	Ops []exec.OpStats
}

// evaluatedInput is one join input after scan/filter/embed evaluation.
type evaluatedInput struct {
	ref        TableRef
	rows       relational.Selection // surviving global row ids
	embeddings *mat.Matrix          // one row per entry of rows
	modelCalls int64
	embedTime  time.Duration
	analysis   *obs.NodeStats // per-node observations (explain executions only)
}

// evalInput walks a Scan/Filter/Embed subtree in its written order.
// evalEmbeds=false skips Embed nodes (the naive strategy's per-pair
// probe invokes the model itself). analyze=true additionally builds
// the per-node observation tree for EXPLAIN ANALYZE.
func (ex *Executor) evalInput(ctx context.Context, n Node, evalEmbeds, analyze bool) (*evaluatedInput, error) {
	switch t := n.(type) {
	case *Scan:
		start := time.Now()
		rows := relational.All(t.Ref.Table.NumRows())
		if t.Ref.Visible != nil {
			// MVCC visibility: the query pinned a generation snapshot and
			// only its live rows exist for this scan; tombstoned rows are
			// never compared, embedded, or matched.
			rows = t.Ref.Visible
		}
		out := &evaluatedInput{ref: t.Ref, rows: rows}
		if t.Ref.VectorColumn != "" {
			vc, err := t.Ref.Table.Vectors(t.Ref.VectorColumn)
			if err != nil {
				return nil, err
			}
			if t.Ref.Visible == nil {
				m, err := mat.FromFlat(vc.Len(), vc.Dim, vc.Data)
				if err != nil {
					return nil, err
				}
				m = m.Clone() // never mutate stored columns
				m.NormalizeRows()
				out.embeddings = m
			} else {
				m := mat.New(len(rows), vc.Dim)
				for i, r := range rows {
					copy(m.Row(i), vc.Row(r))
				}
				m.NormalizeRows()
				out.embeddings = m
			}
		}
		if analyze {
			// est = physical rows, obs = visible rows: the gap is the
			// snapshot's tombstone overhang.
			out.analysis = &obs.NodeStats{
				Name:    t.Explain(),
				EstRows: int64(t.Ref.Table.NumRows()),
				ObsRows: int64(len(rows)),
				Elapsed: time.Since(start),
			}
		}
		return out, nil

	case *Filter:
		in, err := ex.evalInput(ctx, t.Input, evalEmbeds, analyze)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		sel, err := relational.And(in.ref.Table, t.Preds...)
		if err != nil {
			return nil, err
		}
		keep := relational.BitmapFromSelection(in.ref.Table.NumRows(), sel)
		var rows relational.Selection
		var kept []int // positions within in.rows that survive
		for pos, r := range in.rows {
			if keep.Get(r) {
				rows = append(rows, r)
				kept = append(kept, pos)
			}
		}
		out := &evaluatedInput{
			ref:        in.ref,
			rows:       rows,
			modelCalls: in.modelCalls,
			embedTime:  in.embedTime,
		}
		if in.embeddings != nil {
			g := mat.New(len(kept), in.embeddings.Cols())
			for i, pos := range kept {
				copy(g.Row(i), in.embeddings.Row(pos))
			}
			out.embeddings = g
		}
		if analyze {
			// est = the pre-selection (child) estimate: the gap is the
			// observed predicate selectivity this engine cannot yet predict.
			out.analysis = &obs.NodeStats{
				Name:     t.Explain(),
				EstRows:  childEst(in.analysis),
				ObsRows:  int64(len(rows)),
				Elapsed:  time.Since(start),
				Children: []*obs.NodeStats{in.analysis},
			}
		}
		return out, nil

	case *Embed:
		in, err := ex.evalInput(ctx, t.Input, evalEmbeds, analyze)
		if err != nil {
			return nil, err
		}
		if !evalEmbeds || in.embeddings != nil {
			// Naive strategy (the join embeds per pair), or already
			// embedded (vector column).
			if analyze {
				in.analysis = &obs.NodeStats{
					Name:     t.Explain(),
					EstRows:  childEst(in.analysis),
					ObsRows:  int64(len(in.rows)),
					Detail:   "deferred",
					Children: []*obs.NodeStats{in.analysis},
				}
			}
			return in, nil
		}
		col, err := in.ref.Table.Strings(t.Column)
		if err != nil {
			return nil, err
		}
		texts := make([]string, len(in.rows))
		for i, r := range in.rows {
			texts[i] = col[r]
		}
		start := time.Now()
		sp := obs.FromContext(ctx).StartSpan("embed")
		emb, bs, err := ex.embed(ctx, t.Model, texts)
		if err != nil {
			return nil, err
		}
		sp.Attr("hits", bs.Hits).Attr("misses", bs.Misses).
			Attr("merged", bs.Merged).Attr("model_calls", bs.ModelCalls).End()
		in.embedTime += time.Since(start)
		in.modelCalls += bs.ModelCalls
		in.embeddings = emb
		if analyze {
			in.analysis = &obs.NodeStats{
				Name:    t.Explain(),
				EstRows: childEst(in.analysis),
				ObsRows: int64(len(in.rows)),
				Elapsed: time.Since(start),
				Detail: obs.AttrsDetail(map[string]int64{
					"hits": bs.Hits, "misses": bs.Misses,
					"merged": bs.Merged, "model_calls": bs.ModelCalls,
				}),
				Children: []*obs.NodeStats{in.analysis},
			}
		}
		return in, nil

	default:
		return nil, fmt.Errorf("plan: unsupported input node %T", n)
	}
}

// childEst propagates a child's estimate upward (-1 when absent).
func childEst(child *obs.NodeStats) int64 {
	if child == nil {
		return -1
	}
	return child.EstRows
}

// strategyLabel is the span-vocabulary name for a scan strategy.
func strategyLabel(s cost.Strategy) string {
	switch s {
	case cost.StrategyNaiveNLJ:
		return "naive-nlj"
	case cost.StrategyNLJ:
		return "nlj"
	case cost.StrategyTensor:
		return "tensor"
	default:
		return s.String()
	}
}

func (ex *Executor) indexCond(j *EJoin) core.IndexJoinCondition {
	cond := core.IndexJoinCondition{K: j.Spec.K, MinSim: -2, Ef: ex.IndexEf}
	if j.Spec.Kind == ThresholdJoin {
		// Range condition emulated by widened top-k probes (Figure 17).
		cond.K = 32
		cond.MinSim = j.Spec.Threshold
	} else if j.Spec.Threshold > -1 {
		cond.MinSim = j.Spec.Threshold
	}
	return cond
}

// embed evaluates E_µ over texts: through the shared store when one is
// attached (cache hits and merged in-flight calls skip the model), through
// the parallel scheduler otherwise. The returned BatchStats carry the
// hit/miss split (all misses on the store-less path).
func (ex *Executor) embed(ctx context.Context, m model.Model, texts []string) (*mat.Matrix, embstore.BatchStats, error) {
	if ex.Store != nil {
		return ex.Store.EmbedAll(ctx, m, texts, embstore.BatchOptions{Threads: ex.Options.Threads})
	}
	bs := embstore.BatchStats{Misses: int64(len(texts)), ModelCalls: int64(len(texts))}
	emb, err := core.EmbedParallel(ctx, m, texts, ex.Options.Threads)
	if err != nil {
		return nil, embstore.BatchStats{}, err
	}
	return emb, bs, nil
}

// MaterializeResult builds the joined output table: left columns (l_),
// right columns (r_), and a similarity column, one row per match.
func MaterializeResult(q Query, res *ExecResult) (*relational.Table, error) {
	pairs := make([]relational.Pair, len(res.Matches))
	sims := make(relational.Float64Column, len(res.Matches))
	for i, m := range res.Matches {
		pairs[i] = relational.Pair{Left: m.Left, Right: m.Right}
		sims[i] = float64(m.Sim)
	}
	joined, err := relational.MaterializeJoin(q.Left.Table, q.Right.Table, pairs)
	if err != nil {
		return nil, err
	}
	return joined.WithColumn("similarity", sims)
}

// Run is the one-call path: build the naive plan, optimize, execute.
func Run(ctx context.Context, q Query, ex *Executor, opt *Optimizer) (*ExecResult, *EJoin, error) {
	naive, err := NewNaivePlan(q)
	if err != nil {
		return nil, nil, err
	}
	if opt == nil {
		opt = NewOptimizer()
	}
	optimized, err := opt.Optimize(naive)
	if err != nil {
		return nil, nil, err
	}
	if ex == nil {
		ex = &Executor{Options: core.Options{Kernel: vec.DefaultKernel()}}
	}
	res, err := ex.ExecuteStreaming(ctx, optimized, 0)
	if err != nil {
		return nil, nil, err
	}
	return res, optimized, nil
}
