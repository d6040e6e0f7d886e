package plan

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/hnsw"
	"ejoin/internal/model"
	"ejoin/internal/obs"
	"ejoin/internal/oracle"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
	"ejoin/internal/workload"
)

// streamCorpus builds a probe/build table pair large enough for many
// blocks, with the build side a strided subset of the probe side's
// strings so every query shape has guaranteed matches (identical strings
// embed identically: similarity 1).
func streamCorpus(t *testing.T, probeRows, buildStride int) (left, right *relational.Table) {
	t.Helper()
	words := workload.Strings(11, probeRows, nil)
	var buildWords []string
	var scores []int64
	for i := 0; i < len(words); i += buildStride {
		buildWords = append(buildWords, words[i])
		scores = append(scores, int64(i))
	}
	probeScores := make(relational.Int64Column, len(words))
	for i := range probeScores {
		probeScores[i] = int64(i)
	}
	var err error
	left, err = relational.NewTable(
		relational.Schema{{Name: "word", Type: relational.String}, {Name: "n", Type: relational.Int64}},
		[]relational.Column{relational.StringColumn(words), probeScores},
	)
	if err != nil {
		t.Fatal(err)
	}
	right, err = relational.NewTable(
		relational.Schema{{Name: "term", Type: relational.String}, {Name: "n", Type: relational.Int64}},
		[]relational.Column{relational.StringColumn(buildWords), relational.Int64Column(scores)},
	)
	if err != nil {
		t.Fatal(err)
	}
	return left, right
}

// streamQuery is the base query over the stream corpus.
func streamQuery(t *testing.T, spec JoinSpec) Query {
	t.Helper()
	left, right := streamCorpus(t, 300, 7)
	m, err := model.NewHashEmbedder(32)
	if err != nil {
		t.Fatal(err)
	}
	return Query{
		Left:  TableRef{Name: "L", Table: left, TextColumn: "word"},
		Right: TableRef{Name: "R", Table: right, TextColumn: "term"},
		Model: m,
		Join:  spec,
	}
}

// oracleOf evaluates q with the brute-force oracle.
func oracleOf(t *testing.T, q Query) *oracle.Result {
	t.Helper()
	side := func(r TableRef) oracle.Side {
		return oracle.Side{
			Table: r.Table, TextColumn: r.TextColumn, VectorColumn: r.VectorColumn,
			Visible: r.Visible, Preds: r.Predicates,
		}
	}
	j := oracle.Join{Left: side(q.Left), Right: side(q.Right), Model: q.Model, Threshold: float64(q.Join.Threshold)}
	if q.Join.Kind == TopKJoin {
		j.K = q.Join.K
	}
	res, err := oracle.Run(j)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// executedPrecision is the precision a finished plan's scan ran at.
func executedPrecision(j *EJoin) quant.Precision {
	if j.Precision == quant.PrecisionAuto {
		return quant.PrecisionF32
	}
	return j.Precision
}

// assertOracle checks one execution against the oracle: pair ids within
// the precision's bound, similarities within it, the surviving row
// selections exactly, and — for scan strategies — one comparison per
// surviving pair.
func assertOracle(t *testing.T, want *oracle.Result, res *ExecResult, j *EJoin) {
	t.Helper()
	if err := want.Check(res.Matches, executedPrecision(j)); err != nil {
		t.Fatal(err)
	}
	assertSameSelection(t, "LeftRows", want.LeftRows, res.LeftRows)
	assertSameSelection(t, "RightRows", want.RightRows, res.RightRows)
	if res.Strategy != cost.StrategyIndex && res.Stats.Comparisons != want.Pairs() {
		t.Errorf("comparisons = %d, want |L'|·|R'| = %d", res.Stats.Comparisons, want.Pairs())
	}
}

func assertSameSelection(t *testing.T, name string, want, got relational.Selection) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: want %d rows, got %d rows", name, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s[%d]: want %d, got %d", name, i, want[i], got[i])
		}
	}
}

// assertIdentical requires two executions of one plan to agree exactly:
// match lists (ids, similarities, and order), surviving row selections,
// strategy, model calls, and comparisons.
func assertIdentical(t *testing.T, label string, want, got *ExecResult) {
	t.Helper()
	if want.Strategy != got.Strategy {
		t.Fatalf("%s: strategy %v, want %v", label, got.Strategy, want.Strategy)
	}
	if len(want.Matches) != len(got.Matches) {
		t.Fatalf("%s: %d matches, want %d", label, len(got.Matches), len(want.Matches))
	}
	for i := range want.Matches {
		if want.Matches[i] != got.Matches[i] {
			t.Fatalf("%s: match %d is %+v, want %+v", label, i, got.Matches[i], want.Matches[i])
		}
	}
	assertSameSelection(t, label+" LeftRows", want.LeftRows, got.LeftRows)
	assertSameSelection(t, label+" RightRows", want.RightRows, got.RightRows)
	if want.Stats.ModelCalls != got.Stats.ModelCalls {
		t.Errorf("%s: model calls %d, want %d", label, got.Stats.ModelCalls, want.Stats.ModelCalls)
	}
	if want.Stats.Comparisons != got.Stats.Comparisons {
		t.Errorf("%s: comparisons %d, want %d", label, got.Stats.Comparisons, want.Stats.Comparisons)
	}
}

// runShape optimizes q under opt and executes it with the given block
// size on a fresh executor (no shared store, so model-call counts are
// comparable across runs).
func runShape(t *testing.T, q Query, opt *Optimizer, blockRows int, tune func(*Executor)) (*ExecResult, *EJoin) {
	t.Helper()
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	optimized, err := opt.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Options: core.Options{Kernel: vec.DefaultKernel(), Threads: 2}, IndexEf: 16, BlockRows: blockRows}
	if tune != nil {
		tune(ex)
	}
	res, err := ex.ExecuteStreaming(context.Background(), optimized, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res, optimized
}

// checkShape is the differential contract every query shape is held to:
// the result agrees with the brute-force oracle, and it is byte-identical
// at block sizes 1, 7, 16, and one block holding the whole probe side
// (the whole-input computation).
func checkShape(t *testing.T, q Query, opt *Optimizer, tune func(*Executor)) *ExecResult {
	t.Helper()
	ref, j := runShape(t, q, opt, 16, tune)
	if len(ref.Matches) == 0 {
		t.Fatal("shape produced no matches; differential assertion is vacuous")
	}
	assertOracle(t, oracleOf(t, q), ref, j)
	whole := max(q.Left.Table.NumRows(), q.Right.Table.NumRows())
	for _, rows := range []int{1, 7, whole} {
		got, _ := runShape(t, q, opt, rows, tune)
		assertIdentical(t, fmt.Sprintf("BlockRows=%d", rows), ref, got)
	}
	return ref
}

func forced(s cost.Strategy) *Optimizer {
	o := NewOptimizer()
	o.ForceStrategy = &s
	return o
}

func TestStreamingDifferentialThresholdNLJ(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	checkShape(t, q, forced(cost.StrategyNLJ), nil)
}

func TestStreamingDifferentialThresholdTensor(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	// Small GEMM budget: multiple mini-batches per probe block.
	checkShape(t, q, forced(cost.StrategyTensor), func(ex *Executor) { ex.Options.BudgetBytes = 1 << 12 })
}

func TestStreamingDifferentialTopK(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: TopKJoin, K: 3, Threshold: -2})
	checkShape(t, q, forced(cost.StrategyNLJ), nil)
}

func TestStreamingDifferentialTopKResidual(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: TopKJoin, K: 3, Threshold: 0.9})
	checkShape(t, q, forced(cost.StrategyTensor), nil)
}

func TestStreamingDifferentialFiltered(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	q.Left.Predicates = []relational.Pred{{Column: "n", Op: relational.LE, Value: int64(200)}}
	q.Right.Predicates = []relational.Pred{{Column: "n", Op: relational.LE, Value: int64(250)}}
	checkShape(t, q, NewOptimizer(), nil)
}

func TestStreamingDifferentialFilterAboveEmbed(t *testing.T) {
	// Pushdown disabled: the filter stays above E_µ, so execution must
	// embed every scanned row (through a RowFilter) — the model work the
	// un-pushed-down plan was costed with.
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	q.Left.Predicates = []relational.Pred{{Column: "n", Op: relational.LE, Value: int64(150)}}
	o := forced(cost.StrategyNLJ)
	o.DisablePushdown = true
	res := checkShape(t, q, o, nil)
	if want := int64(q.Left.Table.NumRows() + q.Right.Table.NumRows()); res.Stats.ModelCalls != want {
		t.Errorf("model calls = %d, want every scanned row embedded (%d)", res.Stats.ModelCalls, want)
	}
}

// TestStreamingDifferentialNaiveFallback covers both lowerings of the
// naive strategy: over two text columns it runs the per-pair probe,
// paying two model calls per compared pair; with a vector column on one
// side there is no per-pair model call to make, and it falls back to the
// prefetched tuple-at-a-time NLJ.
func TestStreamingDifferentialNaiveFallback(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	res := checkShape(t, q, forced(cost.StrategyNaiveNLJ), nil)
	if want := 2 * res.Stats.Comparisons; res.Stats.ModelCalls != want {
		t.Errorf("naive model calls = %d, want 2 per compared pair (%d)", res.Stats.ModelCalls, want)
	}
	if name := res.Ops[len(res.Ops)-1].Name; name != "probe:naive-nlj" {
		t.Errorf("probe operator %q, want probe:naive-nlj", name)
	}

	// Precompute the right side's vectors: the naive plan now embeds only
	// the text side, once per row.
	rw, _ := q.Right.Table.Strings("term")
	rv, err := core.Embed(context.Background(), q.Model, rw)
	if err != nil {
		t.Fatal(err)
	}
	col, err := relational.NewVectorColumn(rowsOf(rv))
	if err != nil {
		t.Fatal(err)
	}
	if q.Right.Table, err = q.Right.Table.WithColumn("emb", col); err != nil {
		t.Fatal(err)
	}
	q.Right.TextColumn, q.Right.VectorColumn = "", "emb"
	res = checkShape(t, q, forced(cost.StrategyNaiveNLJ), nil)
	if want := int64(q.Left.Table.NumRows()); res.Stats.ModelCalls != want {
		t.Errorf("vector-column naive model calls = %d, want one per probe row (%d)", res.Stats.ModelCalls, want)
	}
	if name := res.Ops[len(res.Ops)-1].Name; name != "probe:nlj" {
		t.Errorf("probe operator %q, want probe:nlj", name)
	}
}

func TestStreamingDifferentialQuantized(t *testing.T) {
	for _, p := range []quant.Precision{quant.PrecisionF16, quant.PrecisionInt8} {
		t.Run(p.String(), func(t *testing.T) {
			q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.8})
			o := forced(cost.StrategyNLJ)
			// Forced precision, zero slack: no demotion guard, and per-row
			// scales make block-wise int8/f16 encoding identical to
			// whole-matrix encoding.
			o.Precision = p
			checkShape(t, q, o, nil)
		})
	}
}

func TestStreamingDifferentialIndex(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: TopKJoin, K: 2, Threshold: -2})
	// Precompute right-side vectors and attach an HNSW index; restrict
	// visibility to a prefix to exercise the RightFilter mask.
	rw, _ := q.Right.Table.Strings("term")
	rv, err := core.Embed(context.Background(), q.Model, rw)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.BuildIndex(rv, hnsw.Config{M: 8, EfConstruction: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	q.Right.Index = idx
	q.Right.Visible = relational.All(q.Right.Table.NumRows())[:30]

	o := forced(cost.StrategyIndex)
	o.DisableReorder = true
	checkShape(t, q, o, nil)
}

func TestStreamingDifferentialIndexBuiltOnDemand(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: TopKJoin, K: 1, Threshold: -2})
	o := forced(cost.StrategyIndex)
	o.DisableReorder = true
	checkShape(t, q, o, nil)
}

func TestStreamingDifferentialMVCCSnapshot(t *testing.T) {
	// Pinned visibility sets: every third probe row tombstoned, build side
	// truncated past row 30.
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	var vis relational.Selection
	for r := 0; r < q.Left.Table.NumRows(); r++ {
		if r%3 != 0 {
			vis = append(vis, r)
		}
	}
	q.Left.Visible = vis
	q.Right.Visible = relational.All(q.Right.Table.NumRows())[:30]
	checkShape(t, q, forced(cost.StrategyNLJ), nil)
}

func TestStreamingLimitFirstN(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	optimized, err := forced(cost.StrategyNLJ).Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Options: core.Options{Kernel: vec.DefaultKernel(), Threads: 2}, BlockRows: 16}
	full, err := ex.ExecuteStreaming(context.Background(), optimized, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertOracle(t, oracleOf(t, q), full, optimized)
	if full.Truncated {
		t.Error("an unlimited run must not be marked truncated")
	}
	const limit = 7
	if len(full.Matches) <= limit {
		t.Fatalf("need more than %d total matches, have %d", limit, len(full.Matches))
	}
	st, err := ex.ExecuteStreaming(context.Background(), optimized, limit)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Truncated {
		t.Error("limit below total matches must mark the stream truncated")
	}
	if len(st.Matches) != limit {
		t.Fatalf("streamed %d matches, want %d", len(st.Matches), limit)
	}
	for i := 0; i < limit; i++ {
		if full.Matches[i] != st.Matches[i] {
			t.Fatalf("match %d: full run %+v, limited %+v", i, full.Matches[i], st.Matches[i])
		}
	}
	// The short-circuit must be real: a truncated stream embeds fewer
	// rows than the full run.
	if st.Stats.ModelCalls >= full.Stats.ModelCalls {
		t.Errorf("limit did not short-circuit: limited %d model calls, full %d",
			st.Stats.ModelCalls, full.Stats.ModelCalls)
	}
	// The post-predicate selections are computed at Open and stay
	// complete even though the stream stopped early.
	assertSameSelection(t, "LeftRows", full.LeftRows, st.LeftRows)
	assertSameSelection(t, "RightRows", full.RightRows, st.RightRows)
}

// cancelAfterModel cancels a context after n embeddings, so the stream is
// interrupted mid-flight rather than before it starts.
type cancelAfterModel struct {
	model.Model
	n      int64
	calls  atomic.Int64
	cancel context.CancelFunc
}

func (m *cancelAfterModel) Embed(s string) ([]float32, error) {
	if m.calls.Add(1) == m.n {
		m.cancel()
	}
	return m.Model.Embed(s)
}

func TestStreamingCancelledMidStream(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Build side has ~43 rows; cancel well into the probe-side stream.
	cm := &cancelAfterModel{Model: q.Model, n: 100, cancel: cancel}
	q.Model = cm

	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	optimized, err := forced(cost.StrategyNLJ).Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Options: core.Options{Kernel: vec.DefaultKernel(), Threads: 1}, BlockRows: 8}
	_, err = ex.ExecuteStreaming(ctx, optimized, 0)
	if err == nil {
		t.Fatal("cancelled stream must fail, not return partial results")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

func TestStreamingAnalysisTree(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	q.Left.Predicates = []relational.Pred{{Column: "n", Op: relational.LE, Value: int64(100)}}
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	optimized, err := forced(cost.StrategyNLJ).Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Options: core.Options{Kernel: vec.DefaultKernel(), Threads: 1}, BlockRows: 16}
	tr := obs.NewTrace("", "streamed query")
	ctx := obs.WithAnalyze(obs.NewContext(context.Background(), tr))
	res, err := ex.ExecuteStreaming(ctx, optimized, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Analysis == nil {
		t.Fatal("analyze context must build the EXPLAIN ANALYZE tree")
	}
	if res.Analysis.ObsRows != int64(len(res.Matches)) {
		t.Errorf("root ObsRows = %d, want %d", res.Analysis.ObsRows, len(res.Matches))
	}
	if len(res.Analysis.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(res.Analysis.Children))
	}
	if res.Ops == nil {
		t.Error("streamed result must carry per-operator stats")
	}
	var batches int64
	for _, op := range res.Ops {
		batches += op.Batches
	}
	if batches == 0 {
		t.Error("operator stats recorded no batches")
	}
	// The trace must carry aggregated phase spans (one "embed" for the
	// build side, one aggregated "embed" and one "join:nlj" for the whole
	// probe stream) — not one span per block, or traces would grow with
	// stream length.
	snap := tr.Finish("", "", nil, res.Analysis)
	var embedSpans, joinSpans int
	for _, sp := range snap.Spans {
		switch sp.Name {
		case "embed":
			embedSpans++
		case "join:nlj":
			joinSpans++
		}
	}
	if embedSpans != 2 || joinSpans != 1 {
		t.Errorf("spans: embed=%d join:nlj=%d, want 2 and 1", embedSpans, joinSpans)
	}
	if len(snap.Spans) > 8 {
		t.Errorf("%d spans recorded for a %d-block stream; spans must not scale with blocks",
			len(snap.Spans), res.Ops[0].Batches)
	}
}
