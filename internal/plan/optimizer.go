package plan

import (
	"math"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/embstore"
	"ejoin/internal/model"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
)

// Optimizer rewrites logical plans and selects physical strategies.
type Optimizer struct {
	// Params parametrizes the cost model; zero value uses defaults.
	Params cost.Params
	// DisablePushdown/DisablePrefetch/DisableReorder switch off individual
	// rules for ablation studies (Figure 8 compares exactly these).
	DisablePushdown bool
	DisablePrefetch bool
	DisableReorder  bool
	// ForceStrategy, if not nil, bypasses cost-based selection.
	ForceStrategy *cost.Strategy
	// Store, when set, makes access path selection cache-aware: the
	// optimizer samples each input's text column against the shared
	// embedding store and discounts the E_µ cost term by the observed hit
	// ratio, so a warm cache can flip the scan-versus-probe choice.
	Store *embstore.Store
	// Precision forces the scan precision for threshold joins; Auto (the
	// zero value) selects it with cost.ChooseJoinPrecision under
	// PrecisionSlack and MemoryBudget.
	Precision quant.Precision
	// PrecisionSlack is the result drift tolerated at the threshold
	// boundary when precision selection is cost-based: a quantized rung is
	// eligible only if its dot-product error bound fits within it. Zero
	// (the default) demands exactness, so plans stay F32 unless the
	// deployment opts into the trade.
	PrecisionSlack float64
	// MemoryBudget bounds the resident bytes precision selection plans for
	// (<=0 = unconstrained): each rung's embeddings plus the intermediate
	// its scan holds under ScanOptions' batching.
	MemoryBudget int64
	// ScanOptions are the executor's scan options; only their batching
	// (BudgetBytes, BatchRows, BatchCols) matters to the optimizer.
	ScanOptions core.Options
	// Feedback, when set, supplies multiplicative cardinality corrections
	// learned from executed queries; the optimizer scales its selectivity
	// and output estimates by them before cost comparison, so strategy,
	// precision, and EXPLAIN cardinalities track the observed workload.
	Feedback FeedbackSource
}

// FeedbackSource is the planner's view of the runtime feedback registry:
// learned observed/estimated ratios for a join of leftTable against
// rightTable (in the query's original orientation). Implementations must
// return neutral factors for pairs they have no evidence on.
type FeedbackSource interface {
	Corrections(leftTable, rightTable string) cost.Corrections
}

// NewOptimizer returns an optimizer with default cost parameters.
func NewOptimizer() *Optimizer {
	return &Optimizer{Params: cost.DefaultParams()}
}

// Optimize applies, in order: filter pushdown below E_µ, embedding
// prefetch, smaller-inner reordering, and cost-based strategy selection.
// The input plan is not mutated.
func (o *Optimizer) Optimize(root *EJoin) (*EJoin, error) {
	params := o.Params
	if params.Validate() != nil {
		params = cost.DefaultParams()
	}

	out := &EJoin{
		Left:     o.rewriteInput(root.Left),
		Right:    o.rewriteInput(root.Right),
		Spec:     root.Spec,
		Prefetch: root.Prefetch,
		Strategy: root.Strategy,
	}
	// Output cardinality estimate, from the original (pre-reorder) left:
	// match counts are orientation-independent, and the pre-swap left is
	// the side the condition is phrased around. The static heuristic is
	// kept alongside the feedback-corrected value so executed queries can
	// score both against the observed output.
	corr := cost.NeutralCorrections()
	if o.Feedback != nil {
		corr = o.Feedback.Corrections(inputName(out.Left), inputName(out.Right)).Clamped()
	}
	out.StaticRows = estimateJoinRows(out.Spec, out.Left)
	out.EstRows = out.StaticRows
	if corr.Rows != 1 && out.EstRows > 0 {
		out.EstRows = int64(math.Round(float64(out.StaticRows) * corr.Rows))
		if out.EstRows < 1 {
			out.EstRows = 1
		}
	}

	// Rule 2 (E-θ-Join equivalence): R ⋈_{E,µ,θ} S ⇔ E_µ(R) ⋈_θ E_µ(S) —
	// embeddings are computed once per input, not once per compared pair.
	if !o.DisablePrefetch {
		out.Prefetch = true
	}

	// Rule 3: smaller (estimated, post-filter) relation becomes the right
	// (inner) input for cache locality; Figure 10 measures ~35% impact.
	// Top-k joins are per-left-row and therefore not symmetric: reordering
	// would change results, so only threshold joins reorder.
	lr, rr := estimateRows(out.Left), estimateRows(out.Right)
	if !o.DisableReorder && out.Spec.Kind == ThresholdJoin && lr < rr && !hasIndex(out.Right) {
		out.Left, out.Right = out.Right, out.Left
		out.Swapped = true
		lr, rr = rr, lr
	}
	// Corrections were fetched in the original orientation; if the reorder
	// rule swapped the inputs, swap the side factors with them.
	ccorr := corr
	if out.Swapped {
		ccorr.SelLeft, ccorr.SelRight = corr.SelRight, corr.SelLeft
	}

	// Rule 4: cost-based access path selection (Table I, Figures 15-17).
	if o.ForceStrategy != nil {
		out.Strategy = *o.ForceStrategy
	} else if !out.Prefetch {
		out.Strategy = cost.StrategyNaiveNLJ
	} else {
		selL := estimateSelectivity(out.Left)
		selR := estimateSelectivity(out.Right)
		k := 0
		if out.Spec.Kind == TopKJoin {
			k = out.Spec.K
		}
		baseL, baseR := baseRows(out.Left), baseRows(out.Right)
		hitL, hitR := o.expectedHitRatio(out.Left), o.expectedHitRatio(out.Right)
		choice := params.ChooseJoinStrategyCorrected(baseL, baseR, selL, selR, k, hasIndex(out.Right), hitL, hitR, ccorr)
		// An index join without an index would have to build one; allow it
		// only when the right side actually carries an index.
		if choice.Strategy == cost.StrategyIndex && !hasIndex(out.Right) {
			choice.Strategy = cost.StrategyTensor
		}
		out.Strategy = choice.Strategy
		out.Estimates = choice.Estimates
	}

	// Rule 5 (precision ladder): threshold scans may trade bounded
	// accuracy for memory traffic under planner control.
	if out.Quantizable() {
		if o.Precision != quant.PrecisionAuto {
			out.Precision = o.Precision
		} else if o.PrecisionSlack > 0 || o.MemoryBudget > 0 {
			lr, rr := estimateRows(out.Left), estimateRows(out.Right)
			dim := inputDim(out.Left)
			if d := inputDim(out.Right); d > dim {
				dim = d
			}
			shape := cost.ScanShape{Strategy: out.Strategy, Batch: scanBatch(o.ScanOptions)}
			pc := params.ChooseJoinPrecisionCorrected(lr, rr, dim, shape, o.MemoryBudget, o.PrecisionSlack, ccorr)
			out.Precision = pc.Precision
			out.PrecisionEstimates = pc.Estimates
			out.PrecisionSlack = o.PrecisionSlack
		}
	}
	return out, nil
}

// inputDim is the embedding dimensionality an input will carry: a vector
// column's declared dim, or the embedding model's output dim.
func inputDim(n Node) int {
	for cur := n; cur != nil; {
		switch t := cur.(type) {
		case *Scan:
			if t.Ref.Table != nil && t.Ref.VectorColumn != "" {
				if vc, err := t.Ref.Table.Vectors(t.Ref.VectorColumn); err == nil {
					return vc.Dim
				}
			}
			return 0
		case *Embed:
			if t.Model != nil {
				return t.Model.Dim()
			}
			cur = t.Input
		case *Filter:
			cur = t.Input
		default:
			return 0
		}
	}
	return 0
}

// rewriteInput applies the E-Selection equivalence to one join input:
// σθ(E_µ(R)) ⇔ E_µ(σθ(R)). Pushing the relational filter below the
// embedding means only surviving tuples are embedded — the cardinality
// of the costliest operator drops without user intervention.
func (o *Optimizer) rewriteInput(n Node) Node {
	f, ok := n.(*Filter)
	if !ok || o.DisablePushdown {
		return n
	}
	e, ok := f.Input.(*Embed)
	if !ok {
		return n
	}
	return &Embed{
		Input:  &Filter{Input: e.Input, Preds: f.Preds},
		Column: e.Column,
		Model:  e.Model,
	}
}

// estimateRows walks the input subtree and estimates output cardinality,
// applying predicate selectivities when computable exactly (predicates are
// evaluated against the base table — cheap, and this engine has no
// histogram substrate).
func estimateRows(n Node) int {
	switch t := n.(type) {
	case *Scan:
		if t.Ref.Table == nil {
			return 0
		}
		return t.Ref.Table.NumRows()
	case *Embed:
		return estimateRows(t.Input)
	case *Filter:
		base := findScan(t.Input)
		if base == nil || base.Ref.Table == nil {
			return estimateRows(t.Input)
		}
		sel, err := relational.And(base.Ref.Table, t.Preds...)
		if err != nil {
			return estimateRows(t.Input)
		}
		return len(sel)
	default:
		return 0
	}
}

// ShardedChoice is a shard router's one global access-path decision for a
// fan-out: the physical strategy every probe×build pair is pinned to, plus
// (when Rule 5 ran) the one scan precision.
type ShardedChoice struct {
	Strategy cost.Strategy
	// Precision is meaningful only when PrecisionChosen is true.
	Precision quant.Precision
	// PrecisionChosen reports whether cost-based precision selection ran
	// (the optimizer has PrecisionAuto plus a slack or memory budget).
	PrecisionChosen bool
}

// ChooseSharded evaluates the optimizer's cost-based rules (4 and 5) once
// over global cardinalities summed from per-shard table references. Shards
// partition each table's physical rows exactly, so the sums equal the
// estimates an unsharded optimizer would compute from the whole tables —
// pinning every pair of a fan-out to this choice makes the sharded
// execution take the same access path (and, with shape-stable kernels,
// produce the same bits) as the equivalent unsharded plan. Per-pair
// cost decisions would instead flip strategies on slice shapes, and two
// strategies' similarity sums reassociate differently.
//
// q is the bound query in its original orientation (feedback corrections
// are keyed on it); probe and build are the executed-orientation per-shard
// references; swapped says whether the router's global reorder rule
// flipped the sides.
func (o *Optimizer) ChooseSharded(q Query, probe, build []TableRef, swapped bool) ShardedChoice {
	params := o.Params
	if params.Validate() != nil {
		params = cost.DefaultParams()
	}
	corr := cost.NeutralCorrections()
	if o.Feedback != nil {
		corr = o.Feedback.Corrections(q.Left.Name, q.Right.Name).Clamped()
	}
	if swapped {
		corr.SelLeft, corr.SelRight = corr.SelRight, corr.SelLeft
	}

	baseP, estP := sumRefRows(probe)
	baseB, estB := sumRefRows(build)

	var ch ShardedChoice
	switch {
	case o.ForceStrategy != nil:
		ch.Strategy = *o.ForceStrategy
	case o.DisablePrefetch:
		ch.Strategy = cost.StrategyNaiveNLJ
	default:
		selP, selB := 1.0, 1.0
		if baseP > 0 {
			selP = float64(estP) / float64(baseP)
		}
		if baseB > 0 {
			selB = float64(estB) / float64(baseB)
		}
		k := 0
		if q.Join.Kind == TopKJoin {
			k = q.Join.K
		}
		// The unsharded plan either has one index over the whole build side
		// or none; sharded, the analogue is every populated build shard
		// carrying one. A partially indexed fan-out (shards lag index builds
		// independently) prices and executes as unindexed.
		allIdx := false
		for _, ref := range build {
			if ref.Table == nil || ref.Table.NumRows() == 0 {
				continue
			}
			if ref.Index == nil {
				allIdx = false
				break
			}
			allIdx = true
		}
		hitP := o.shardedHitRatio(probe, q.Model)
		hitB := o.shardedHitRatio(build, q.Model)
		choice := params.ChooseJoinStrategyCorrected(baseP, baseB, selP, selB, k, allIdx, hitP, hitB, corr)
		if choice.Strategy == cost.StrategyIndex && !allIdx {
			choice.Strategy = cost.StrategyTensor
		}
		ch.Strategy = choice.Strategy
	}

	// Rule 5, globally: one precision for every pair's scan. When the
	// deployment forces a precision (o.Precision) the per-pair Optimize
	// already applies it uniformly, so only the cost-based path needs the
	// global row counts.
	if o.Precision == quant.PrecisionAuto && (o.PrecisionSlack > 0 || o.MemoryBudget > 0) {
		dim := 0
		if q.Model != nil {
			dim = q.Model.Dim()
		}
		for _, refs := range [][]TableRef{probe, build} {
			for _, ref := range refs {
				if ref.Table != nil && ref.VectorColumn != "" {
					if vc, err := ref.Table.Vectors(ref.VectorColumn); err == nil && vc.Dim > dim {
						dim = vc.Dim
					}
				}
			}
		}
		shape := cost.ScanShape{Strategy: ch.Strategy, Batch: scanBatch(o.ScanOptions)}
		pc := params.ChooseJoinPrecisionCorrected(estP, estB, dim, shape, o.MemoryBudget, o.PrecisionSlack, corr)
		ch.Precision = pc.Precision
		ch.PrecisionChosen = true
	}
	return ch
}

// sumRefRows sums base and post-predicate row counts across shard refs.
func sumRefRows(refs []TableRef) (base, est int) {
	for _, ref := range refs {
		if ref.Table == nil {
			continue
		}
		base += ref.Table.NumRows()
		est += EstimateRefRows(ref)
	}
	return base, est
}

// shardedHitRatio is expectedHitRatio over a sharded column: each shard's
// sampled ratio, weighted by its row count.
func (o *Optimizer) shardedHitRatio(refs []TableRef, m model.Model) float64 {
	if o.Store == nil || m == nil {
		return 0
	}
	totalRows, weighted := 0, 0.0
	for _, ref := range refs {
		if ref.Table == nil || ref.TextColumn == "" {
			continue
		}
		n := ref.Table.NumRows()
		if n == 0 {
			continue
		}
		node := &Embed{Input: &Scan{Ref: ref}, Column: ref.TextColumn, Model: m}
		weighted += o.expectedHitRatio(node) * float64(n)
		totalRows += n
	}
	if totalRows == 0 {
		return 0
	}
	return weighted / float64(totalRows)
}

// EstimateRefRows estimates a table reference's post-predicate row count
// the same way the reorder rule does: physical rows, narrowed by exact
// relational selectivity when predicates are present. The shard router
// sums these across shards to make its one global swap decision.
func EstimateRefRows(ref TableRef) int {
	if ref.Table == nil {
		return 0
	}
	if len(ref.Predicates) == 0 {
		return ref.Table.NumRows()
	}
	sel, err := relational.And(ref.Table, ref.Predicates...)
	if err != nil {
		return ref.Table.NumRows()
	}
	return len(sel)
}

// baseRows returns the unfiltered base cardinality of an input subtree.
func baseRows(n Node) int {
	s := findScan(n)
	if s == nil || s.Ref.Table == nil {
		return 0
	}
	return s.Ref.Table.NumRows()
}

// estimateSelectivity is estimateRows / baseRows.
func estimateSelectivity(n Node) float64 {
	base := baseRows(n)
	if base == 0 {
		return 1
	}
	return float64(estimateRows(n)) / float64(base)
}

// expectedHitRatio estimates how much of one input's E_µ work the shared
// store will absorb, by probing a uniform sample of the column against the
// cache (Contains does not promote entries or touch statistics). Inputs
// with precomputed vector columns have no Embed node and return 0 — their
// cost model carries no M term to discount.
func (o *Optimizer) expectedHitRatio(n Node) float64 {
	if o.Store == nil {
		return 0
	}
	var em *Embed
	for cur := n; cur != nil; {
		switch t := cur.(type) {
		case *Embed:
			em = t
			cur = t.Input
		case *Filter:
			cur = t.Input
		default:
			cur = nil
		}
	}
	if em == nil || em.Model == nil {
		return 0
	}
	s := findScan(n)
	if s == nil || s.Ref.Table == nil {
		return 0
	}
	texts, err := s.Ref.Table.Strings(em.Column)
	if err != nil || len(texts) == 0 {
		return 0
	}
	const samples = 64
	stride := len(texts) / samples
	if stride < 1 {
		stride = 1
	}
	seen, hit := 0, 0
	for i := 0; i < len(texts); i += stride {
		seen++
		if o.Store.Contains(em.Model, texts[i]) {
			hit++
		}
	}
	return float64(hit) / float64(seen)
}

func findScan(n Node) *Scan {
	for {
		switch t := n.(type) {
		case *Scan:
			return t
		case *Embed:
			n = t.Input
		case *Filter:
			n = t.Input
		default:
			return nil
		}
	}
}

func hasIndex(n Node) bool {
	s := findScan(n)
	return s != nil && s.Ref.Index != nil
}

// inputName is the catalog name of an input subtree's base table.
func inputName(n Node) string {
	s := findScan(n)
	if s == nil {
		return ""
	}
	return s.Ref.Name
}
