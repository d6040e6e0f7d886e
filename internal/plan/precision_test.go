package plan

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/model"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
)

// TestOptimizerPrecisionDefaultsExact: with no slack, budget, or forced
// precision, plans carry no quantization — results stay bit-exact.
func TestOptimizerPrecisionDefaultsExact(t *testing.T) {
	q := testQuery(t)
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewOptimizer().Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Precision != quant.PrecisionAuto && pl.Precision != quant.PrecisionF32 {
		t.Fatalf("default plan precision %v", pl.Precision)
	}
}

// TestOptimizerPrecisionSlackChoosesQuantized: opting into slack under a
// memory budget makes the planner pick a narrower rung for threshold
// scans, record its estimates, and the executor run it with agreement
// away from the boundary. (Every rung runs the same tiled kernel, so
// slack alone keeps F32: the narrow rungs buy footprint, not speed.)
func TestOptimizerPrecisionSlackChoosesQuantized(t *testing.T) {
	q := testQuery(t)
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewOptimizer()
	opt.PrecisionSlack = 0.05
	opt.MemoryBudget = 64 // bytes: below every rung, so the smallest (int8) wins
	pl, err := opt.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Precision != quant.PrecisionInt8 {
		t.Fatalf("slack 0.05 chose %v (estimates %v)", pl.Precision, pl.PrecisionEstimates)
	}
	if len(pl.PrecisionEstimates) != 3 {
		t.Fatalf("precision estimates %v", pl.PrecisionEstimates)
	}
	if !strings.Contains(pl.Explain(), "precision=int8") {
		t.Fatalf("explain misses precision: %s", pl.Explain())
	}

	ctx := context.Background()
	exact, _, err := Run(ctx, q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	quantized, err := (&Executor{}).ExecuteStreaming(ctx, pl, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The test threshold (0.5) sits far from any pair's similarity
	// relative to the int8 bound, so match sets agree exactly here.
	if len(exact.Matches) != len(quantized.Matches) {
		t.Fatalf("exact %d matches, int8 %d", len(exact.Matches), len(quantized.Matches))
	}
	for i := range exact.Matches {
		if exact.Matches[i].Left != quantized.Matches[i].Left ||
			exact.Matches[i].Right != quantized.Matches[i].Right {
			t.Fatalf("match %d differs: %+v vs %+v", i, exact.Matches[i], quantized.Matches[i])
		}
	}
}

// TestOptimizerForcedPrecision: an explicit precision overrides the
// cost-based choice, and top-k joins ignore it (they rank by exact
// similarity).
func TestOptimizerForcedPrecision(t *testing.T) {
	q := testQuery(t)
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewOptimizer()
	opt.Precision = quant.PrecisionF16
	pl, err := opt.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Precision != quant.PrecisionF16 {
		t.Fatalf("forced precision not honored: %v", pl.Precision)
	}
	if _, err := (&Executor{}).ExecuteStreaming(context.Background(), pl, 0); err != nil {
		t.Fatal(err)
	}

	q.Join = JoinSpec{Kind: TopKJoin, K: 2, Threshold: -2}
	naive, err = NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	pl, err = opt.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Precision != quant.PrecisionAuto {
		t.Fatalf("top-k plan carries precision %v", pl.Precision)
	}
}

// TestOptimizerMemoryBudgetQuantizes: a tight memory budget alone (no
// slack) keeps F32 — accuracy gates before memory — while budget plus
// slack picks the rung that fits.
func TestOptimizerMemoryBudgetQuantizes(t *testing.T) {
	q := testQuery(t)
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewOptimizer()
	opt.MemoryBudget = 64 // bytes: nothing fits
	pl, err := opt.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Precision != quant.PrecisionF32 {
		t.Fatalf("budget without slack chose %v", pl.Precision)
	}
	opt.PrecisionSlack = 0.05
	pl, err = opt.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Precision != quant.PrecisionInt8 {
		t.Fatalf("budget with slack chose %v", pl.Precision)
	}
}

// vectorTable is a one-column VECTOR table.
func vectorTable(t *testing.T, rows [][]float32) *relational.Table {
	t.Helper()
	col, err := relational.NewVectorColumn(rows)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := relational.NewTable(
		relational.Schema{{Name: "emb", Type: relational.Vector}},
		[]relational.Column{col},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// int8Plan plans q as the planner's cost-based int8 choice: slack above
// int8's planning constant (0.032) but below the exact bound of one-hot
// data (≈ √d/127 ≈ 0.079), and a budget only the smallest rung fits.
func int8Plan(t *testing.T, q Query) *EJoin {
	t.Helper()
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewOptimizer()
	opt.PrecisionSlack = 0.05
	opt.MemoryBudget = 64 // bytes: below every rung, so the smallest (int8) wins
	pl, err := opt.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Precision != quant.PrecisionInt8 {
		t.Fatalf("planner chose %v; test needs an int8 plan", pl.Precision)
	}
	return pl
}

// TestExecutorDemotesInt8OnSparseData: the planner's int8 constant
// assumes dense embeddings; when the encoded scales of a probe block give
// an error bound above the promised slack (near-one-hot vectors), that
// block runs the exact scan instead of silently drifting. The plan
// reports F32 only when every block demoted; a plan whose dense blocks
// ran int8 keeps reporting int8.
func TestExecutorDemotesInt8OnSparseData(t *testing.T) {
	const dim, n = 100, 8
	oneHot := make([][]float32, n)
	for i := range oneHot {
		oneHot[i] = make([]float32, dim)
		oneHot[i][i] = 1 // maxabs = 1
	}
	sparse := vectorTable(t, oneHot)
	q := Query{
		Left:  TableRef{Name: "L", Table: sparse, VectorColumn: "emb"},
		Right: TableRef{Name: "R", Table: sparse, VectorColumn: "emb"},
		Join:  JoinSpec{Kind: ThresholdJoin, Threshold: 0.9},
	}
	for _, rows := range []int{1, 3, 0} {
		pl := int8Plan(t, q)
		res, err := (&Executor{BlockRows: rows}).ExecuteStreaming(context.Background(), pl, 0)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Precision != quant.PrecisionF32 {
			t.Fatalf("BlockRows=%d: sparse data not demoted: plan still %v", rows, pl.Precision)
		}
		// Exact self-join: exactly the n diagonal pairs.
		if len(res.Matches) != n {
			t.Fatalf("BlockRows=%d: %d matches, want %d", rows, len(res.Matches), n)
		}
	}

	// Four one-hot probe rows, then four dense ones, against the dense
	// rows: the first block demotes, the second runs int8.
	rng := rand.New(rand.NewSource(5))
	dense := make([][]float32, 4)
	for i := range dense {
		dense[i] = make([]float32, dim)
		for d := range dense[i] {
			dense[i][d] = float32(rng.NormFloat64())
		}
	}
	q.Left.Table = vectorTable(t, append(oneHot[:4:4], dense...))
	q.Right.Table = vectorTable(t, dense)
	pl := int8Plan(t, q)
	res, err := (&Executor{BlockRows: 4}).ExecuteStreaming(context.Background(), pl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Precision != quant.PrecisionInt8 {
		t.Fatalf("mixed blocks: plan reports %v, want int8 (only one block demoted)", pl.Precision)
	}
	assertOracle(t, oracleOf(t, q), res, pl)
	if len(res.Matches) != len(dense) {
		t.Fatalf("mixed blocks: %d matches, want the %d dense self-pairs", len(res.Matches), len(dense))
	}
}

// TestExecutorRejectsPQScan: PQ is an index access path; a plan that
// names it as a scan precision fails loudly instead of silently running
// exact.
func TestExecutorRejectsPQScan(t *testing.T) {
	q := testQuery(t)
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewOptimizer()
	opt.ForceStrategy = strategyPtr(cost.StrategyTensor)
	pl, err := opt.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	pl.Precision = quant.PrecisionPQ
	if _, err := (&Executor{}).ExecuteStreaming(context.Background(), pl, 0); err == nil {
		t.Fatal("expected error for pq scan precision")
	}
}

func strategyPtr(s cost.Strategy) *cost.Strategy { return &s }

// TestNarrowScanAdmissionCoversIntermediate: the admission weight of an
// F16/int8 plan is at least the similarity block its scan reports
// holding, under either scan strategy (narrow scans always run the
// blocked driver). The inputs are large enough that an unbatched block
// outweighs their embeddings.
func TestNarrowScanAdmissionCoversIntermediate(t *testing.T) {
	left, right := streamCorpus(t, 1000, 1)
	m, err := model.NewHashEmbedder(32)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{
		Left:  TableRef{Name: "L", Table: left, TextColumn: "word"},
		Right: TableRef{Name: "R", Table: right, TextColumn: "term"},
		Model: m,
		Join:  JoinSpec{Kind: ThresholdJoin, Threshold: 0.85},
	}
	dim := m.Dim()
	ctx := context.Background()
	for _, s := range []cost.Strategy{cost.StrategyNLJ, cost.StrategyTensor} {
		for _, prec := range []quant.Precision{quant.PrecisionF16, quant.PrecisionInt8} {
			for _, budget := range []int64{0, 1 << 12} {
				naive, err := NewNaivePlan(q)
				if err != nil {
					t.Fatal(err)
				}
				opt := forced(s)
				opt.Precision = prec
				pl, err := opt.Optimize(naive)
				if err != nil {
					t.Fatal(err)
				}
				ex := &Executor{Options: core.Options{BudgetBytes: budget}, BlockRows: 64}
				res, err := ex.ExecuteStreaming(ctx, pl, 0)
				if err != nil {
					t.Fatal(err)
				}
				peak := res.Stats.PeakIntermediateBytes
				if peak == 0 {
					t.Fatalf("%v %v budget %d: scan reports no intermediate", s, prec, budget)
				}
				if w := EstimateFootprint(pl, dim, ex.Options, ex.BlockRows); w < peak {
					t.Errorf("%v %v budget %d: admission weight %d < scan peak %d", s, prec, budget, w, peak)
				}
			}
		}
	}
}
