package cost

import (
	"testing"

	"ejoin/internal/mat"
	"ejoin/internal/model"
	"ejoin/internal/quant"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	bad := []Params{
		{Access: -1, TensorSpeedup: 1, ProbeWidth: 1},
		{TensorSpeedup: 0, ProbeWidth: 1},
		{TensorSpeedup: 1, ProbeWidth: 0},
		{TensorSpeedup: 1, ProbeWidth: 1, ProbeHop: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected error for %+v", i, p)
		}
	}
}

func TestESelectionLinear(t *testing.T) {
	p := DefaultParams()
	if got := p.ESelection(0); got != 0 {
		t.Errorf("ESelection(0) = %v", got)
	}
	c1 := p.ESelection(100)
	c2 := p.ESelection(200)
	if c2 != 2*c1 {
		t.Errorf("not linear: %v vs %v", c1, c2)
	}
}

// TestNaiveVsPrefetch is the central claim of Section IV-A: naive model
// cost is quadratic, prefetch linear, so the gap grows with input size.
func TestNaiveVsPrefetch(t *testing.T) {
	p := DefaultParams()
	sizes := []int{100, 1000, 10000}
	prevRatio := 0.0
	for _, n := range sizes {
		naive := p.NaiveENLJoin(n, n)
		pre := p.PrefetchENLJoin(n, n)
		if pre >= naive {
			t.Fatalf("n=%d: prefetch %v not cheaper than naive %v", n, pre, naive)
		}
		ratio := naive / pre
		if ratio <= prevRatio {
			t.Fatalf("n=%d: gap should grow with size: %v <= %v", n, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

func TestTensorCheaperThanNLJ(t *testing.T) {
	p := DefaultParams()
	for _, n := range []int{100, 10000} {
		if p.TensorJoin(n, n) >= p.PrefetchENLJoin(n, n) {
			t.Errorf("n=%d: tensor not cheaper", n)
		}
	}
}

func TestIndexProbeSublinear(t *testing.T) {
	p := DefaultParams()
	probe1k := p.IndexProbe(1000, 1)
	probe1m := p.IndexProbe(1000000, 1)
	if probe1m >= probe1k*5 {
		t.Errorf("probe cost should grow logarithmically: %v vs %v", probe1k, probe1m)
	}
	if p.IndexProbe(1, 1) != p.ProbeHop {
		t.Error("degenerate index probe")
	}
	// Larger k costs more.
	if p.IndexProbe(10000, 32) <= p.IndexProbe(10000, 1) {
		t.Error("probe cost should grow with k")
	}
	// Beam floor of 1 even with tiny k and width.
	small := Params{ProbeHop: 1, ProbeWidth: 0.001}
	if small.IndexProbe(1000, 1) <= 0 {
		t.Error("beam floor violated")
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		StrategyNaiveNLJ: "NaiveNLJ",
		StrategyNLJ:      "NLJ",
		StrategyTensor:   "TensorJoin",
		StrategyIndex:    "IndexJoin",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d = %q, want %q", s, s.String(), want)
		}
	}
	if Strategy(9).String() != "Strategy(9)" {
		t.Error("unknown strategy name")
	}
}

// TestAccessPathCrossover reproduces Figure 15's shape in the model: with
// top-1 conditions, low selectivity favors the scan (tensor), high
// selectivity favors the index.
func TestAccessPathCrossover(t *testing.T) {
	p := DefaultParams()
	nr, ns := 10000, 1000000

	low := p.ChooseJoinStrategy(nr, ns, 0.05, 0.05, 1, true)
	if low.Strategy == StrategyIndex {
		t.Errorf("5%% selectivity should favor scan, got %v (est %v)", low.Strategy, low.Estimates)
	}
	high := p.ChooseJoinStrategy(nr, ns, 1.0, 1.0, 1, true)
	if high.Strategy != StrategyIndex {
		t.Errorf("100%% selectivity top-1 should favor index, got %v (est %v)", high.Strategy, high.Estimates)
	}
}

// TestRangeConditionPenalizesIndex reproduces Figure 17's direction:
// threshold (range) conditions make the index strategy less attractive
// than the equivalent top-k condition.
func TestRangeConditionPenalizesIndex(t *testing.T) {
	p := DefaultParams()
	nr, ns := 10000, 1000000
	topk := p.ChooseJoinStrategy(nr, ns, 1, 1, 1, true)
	rng := p.ChooseJoinStrategy(nr, ns, 1, 1, 0, true)
	if rng.Estimates[StrategyIndex] <= topk.Estimates[StrategyIndex] {
		t.Errorf("range should cost the index more: %v vs %v",
			rng.Estimates[StrategyIndex], topk.Estimates[StrategyIndex])
	}
}

// TestLargerKPenalizesIndex reproduces Figure 16: top-32 shifts the
// crossover toward the scan.
func TestLargerKPenalizesIndex(t *testing.T) {
	p := DefaultParams()
	nr, ns := 10000, 1000000
	k1 := p.ChooseJoinStrategy(nr, ns, 0.5, 0.5, 1, true)
	k32 := p.ChooseJoinStrategy(nr, ns, 0.5, 0.5, 32, true)
	if k32.Estimates[StrategyIndex] <= k1.Estimates[StrategyIndex] {
		t.Error("larger k should cost the index more")
	}
}

func TestMissingIndexAddsBuildCost(t *testing.T) {
	p := DefaultParams()
	with := p.ChooseJoinStrategy(1000, 100000, 1, 1, 1, true)
	without := p.ChooseJoinStrategy(1000, 100000, 1, 1, 1, false)
	if without.Estimates[StrategyIndex] <= with.Estimates[StrategyIndex] {
		t.Error("missing index should add build cost")
	}
}

func TestChooseHandlesDegenerateSelectivity(t *testing.T) {
	p := DefaultParams()
	// Out-of-range selectivities are clamped, not propagated.
	c := p.ChooseJoinStrategy(100, 100, -1, 2, 1, true)
	if c.Estimates[StrategyTensor] < 0 {
		t.Error("negative cost")
	}
	zero := p.ChooseJoinStrategy(0, 0, 0, 0, 1, true)
	if zero.Strategy == StrategyNaiveNLJ {
		t.Error("degenerate inputs should still pick a real strategy")
	}
}

// TestCostMonotonicity: all join costs are non-decreasing in input size.
func TestCostMonotonicity(t *testing.T) {
	p := DefaultParams()
	prevN, prevP, prevT, prevI := 0.0, 0.0, 0.0, 0.0
	for _, n := range []int{10, 100, 1000, 10000} {
		cn := p.NaiveENLJoin(n, n)
		cp := p.PrefetchENLJoin(n, n)
		ct := p.TensorJoin(n, n)
		ci := p.IndexJoin(n, n*10, 1)
		if cn <= prevN || cp <= prevP || ct <= prevT || ci <= prevI {
			t.Fatalf("n=%d: costs not increasing", n)
		}
		prevN, prevP, prevT, prevI = cn, cp, ct, ci
	}
}

func TestCalibrate(t *testing.T) {
	m, err := model.NewHashEmbedder(32)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Calibrate(m, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Access != 1 {
		t.Errorf("Access should be the unit: %v", p.Access)
	}
	if p.Model <= 0 || p.Compare <= 0 || p.f16ScanFactor <= 0 || p.int8ScanFactor <= 0 {
		t.Errorf("non-positive calibrated costs: %+v", p)
	}
	// A real embedding model costs far more than one dot product.
	if p.Model < p.Compare {
		t.Errorf("expected model >= compare: %+v", p)
	}
}

func TestCalibrateFailingModel(t *testing.T) {
	inner, _ := model.NewHashEmbedder(8)
	bad := &model.FailingModel{Inner: inner, Match: func(string) bool { return true }, Err: errSentinel}
	if _, err := Calibrate(bad, 8); err == nil {
		t.Error("expected calibration error")
	}
}

type sentinelErr string

func (e sentinelErr) Error() string { return string(e) }

var errSentinel = sentinelErr("calibration failure")

func TestWarmCostsDiscountModelTerm(t *testing.T) {
	p := DefaultParams()
	nr, ns := 1000, 1000

	if got, want := p.PrefetchENLJoinWarm(nr, ns, 0, 0), p.PrefetchENLJoin(nr, ns); got != want {
		t.Errorf("cold warm-variant %v != legacy %v", got, want)
	}
	if got, want := p.TensorJoinWarm(nr, ns, 0, 0), p.TensorJoin(nr, ns); got != want {
		t.Errorf("cold tensor warm-variant %v != legacy %v", got, want)
	}
	if got, want := p.IndexJoinWarm(nr, ns, 4, 0), p.IndexJoin(nr, ns, 4); got != want {
		t.Errorf("cold index warm-variant %v != legacy %v", got, want)
	}

	// A fully warm cache removes exactly the embedding term.
	cold := p.TensorJoin(nr, ns)
	warm := p.TensorJoinWarm(nr, ns, 1, 1)
	if diff := cold - warm; diff != p.EmbedCost(nr+ns, 0) {
		t.Errorf("discount = %v, want %v", diff, p.EmbedCost(nr+ns, 0))
	}
	// Hit ratios outside [0,1] clamp instead of going negative.
	if p.EmbedCost(100, 2) != 0 || p.EmbedCost(100, -1) != p.EmbedCost(100, 0) {
		t.Error("hit ratio not clamped")
	}
}

func TestChooseJoinStrategyWarmCanFlip(t *testing.T) {
	p := DefaultParams()
	// A regime where probes win cold because scans pay the model per run:
	// small surviving R against a large indexed S, small k.
	nr, ns, k := 2000, 2_000_000, 1
	selL := 0.02
	cold := p.ChooseJoinStrategyWarm(nr, ns, selL, 1, k, true, 0, 0)
	if cold.Strategy != StrategyIndex {
		t.Skipf("cold regime did not pick index (%v); parameters shifted", cold.Strategy)
	}
	warm := p.ChooseJoinStrategyWarm(nr, ns, selL, 1, k, true, 1, 1)
	if warm.Estimates[StrategyTensor] >= cold.Estimates[StrategyTensor] {
		t.Errorf("warm tensor estimate did not drop: %v vs %v",
			warm.Estimates[StrategyTensor], cold.Estimates[StrategyTensor])
	}
	if warm.Estimates[StrategyIndex] > cold.Estimates[StrategyIndex] {
		t.Errorf("warm index estimate rose: %v vs %v",
			warm.Estimates[StrategyIndex], cold.Estimates[StrategyIndex])
	}
}

func TestChooseJoinPrecisionExactByDefault(t *testing.T) {
	p := DefaultParams()
	// Zero slack demands exactness: F32 regardless of sizes or budget.
	c := p.ChooseJoinPrecision(10000, 10000, 100, ScanShape{}, 1<<20, 0)
	if c.Precision != quant.PrecisionF32 {
		t.Fatalf("zero slack chose %v", c.Precision)
	}
	if len(c.Estimates) != 1 {
		t.Fatalf("zero slack should leave only f32 eligible, got %v", c.Estimates)
	}
	// Negative slack clamps to zero rather than excluding everything.
	if c := p.ChooseJoinPrecision(100, 100, 32, ScanShape{}, 0, -1); c.Precision != quant.PrecisionF32 {
		t.Fatalf("negative slack chose %v", c.Precision)
	}
}

func TestChooseJoinPrecisionSlackUnlocksLadder(t *testing.T) {
	p := DefaultParams()
	nr, ns, dim := 5000, 5000, 100
	footprint := func(prec quant.Precision) int64 { return int64(nr+ns) * prec.BytesPerVector(dim) }
	// Slack above the f16 bound but below int8's unlocks f16 only. Every
	// rung runs the same tiled kernel, so without a budget the exact scan
	// stays cheapest; a budget F32 overflows makes f16 the choice.
	f16Only := quant.PrecisionF16.DotErrorBound(dim) + 1e-6
	if c := p.ChooseJoinPrecision(nr, ns, dim, ScanShape{}, 0, f16Only); c.Precision != quant.PrecisionF32 || len(c.Estimates) != 2 {
		t.Fatalf("f16-slack, no budget chose %v (estimates %v)", c.Precision, c.Estimates)
	}
	if c := p.ChooseJoinPrecision(nr, ns, dim, ScanShape{}, footprint(quant.PrecisionF16), f16Only); c.Precision != quant.PrecisionF16 {
		t.Fatalf("f16-slack, f16 budget chose %v (estimates %v)", c.Precision, c.Estimates)
	}
	// Generous slack: all three rungs are estimated, each scan priced at
	// its measured per-pair factor plus the encode pass.
	c := p.ChooseJoinPrecision(nr, ns, dim, ScanShape{}, footprint(quant.PrecisionInt8), 0.05)
	if c.Precision != quant.PrecisionInt8 {
		t.Fatalf("wide slack, int8 budget chose %v (estimates %v)", c.Precision, c.Estimates)
	}
	if len(c.Estimates) != 3 {
		t.Fatalf("expected all three rungs estimated, got %v", c.Estimates)
	}
	for _, prec := range []quant.Precision{quant.PrecisionF16, quant.PrecisionInt8} {
		want := float64(nr)*float64(ns)*p.Compare*p.ScanCostFactor(prec) + float64(nr+ns)*p.Access
		if c.Estimates[prec] != want {
			t.Fatalf("%v estimate %v, want %v", prec, c.Estimates[prec], want)
		}
	}
	if c.FootprintBytes != footprint(quant.PrecisionInt8) {
		t.Fatalf("footprint %d", c.FootprintBytes)
	}
}

// TestChooseJoinPrecisionNeverPrefersCostlierRung: under a budget every
// rung fits, a narrow rung whose scan factor is >= 1 never beats F32 —
// it would cost at least as much per pair and add an encode pass — while
// a factor below 1 can win on cost alone.
func TestChooseJoinPrecisionNeverPrefersCostlierRung(t *testing.T) {
	for _, factor := range []float64{1, 1.05, 1.5, 3} {
		p := DefaultParams()
		p.f16ScanFactor, p.int8ScanFactor = factor, factor
		for _, n := range []int{1, 10, 1000, 100000} {
			for _, dim := range []int{8, 100, 768} {
				f32Bytes := int64(2*n) * quant.PrecisionF32.BytesPerVector(dim)
				for _, budget := range []int64{0, f32Bytes, 4 * f32Bytes} {
					if c := p.ChooseJoinPrecision(n, n, dim, ScanShape{}, budget, 1); c.Precision != quant.PrecisionF32 {
						t.Fatalf("factor %v n %d dim %d budget %d chose %v (estimates %v)",
							factor, n, dim, budget, c.Precision, c.Estimates)
					}
				}
			}
		}
	}
	p := DefaultParams()
	p.int8ScanFactor = 0.5
	if c := p.ChooseJoinPrecision(5000, 5000, 100, ScanShape{}, 0, 1); c.Precision != quant.PrecisionInt8 {
		t.Fatalf("factor 0.5 chose %v (estimates %v)", c.Precision, c.Estimates)
	}
}

func TestChooseJoinPrecisionBudgetForcesNarrow(t *testing.T) {
	p := DefaultParams()
	nr, ns, dim := 1000, 1000, 100
	f32Bytes := int64(nr+ns) * quant.PrecisionF32.BytesPerVector(dim)
	// Budget admits f16 but not f32; slack admits everything. Int8 both
	// fits and is cheapest.
	c := p.ChooseJoinPrecision(nr, ns, dim, ScanShape{}, f32Bytes/2, 0.05)
	if c.Precision != quant.PrecisionInt8 {
		t.Fatalf("budgeted choice %v", c.Precision)
	}
	// Budget admits nothing: smallest eligible footprint wins anyway.
	c = p.ChooseJoinPrecision(nr, ns, dim, ScanShape{}, 1, 0.05)
	if c.Precision != quant.PrecisionInt8 {
		t.Fatalf("over-budget fallback chose %v", c.Precision)
	}
	// Budget admits nothing and slack admits only f32: degrade to f32.
	c = p.ChooseJoinPrecision(nr, ns, dim, ScanShape{}, 1, 0)
	if c.Precision != quant.PrecisionF32 {
		t.Fatalf("exact over-budget fallback chose %v", c.Precision)
	}
}

// TestChooseJoinPrecisionChargesScanIntermediate: the memory gate counts
// what the scan holds besides its inputs. F16/int8 scans always run the
// blocked driver, so under an F32 NLJ shape a narrow rung with a large
// similarity block is not the smaller footprint.
func TestChooseJoinPrecisionChargesScanIntermediate(t *testing.T) {
	p := DefaultParams()
	nr, ns, dim := 5000, 5000, 100
	batch := mat.BatchOptions{BudgetBytes: 32 << 20}
	block := mat.PeakBlockBytes(nr, ns, batch)
	inputs := func(prec quant.Precision) int64 { return int64(nr+ns) * prec.BytesPerVector(dim) }

	for _, prec := range []quant.Precision{quant.PrecisionF32, quant.PrecisionF16, quant.PrecisionInt8} {
		if got := ScanIntermediateBytes(StrategyTensor, prec, nr, ns, batch); got != block {
			t.Fatalf("tensor %v intermediate %d, want block %d", prec, got, block)
		}
	}
	if got := ScanIntermediateBytes(StrategyNLJ, quant.PrecisionF32, nr, ns, batch); got != int64(ns)*4 {
		t.Fatalf("f32 nlj intermediate %d, want one row %d", got, ns*4)
	}
	for _, prec := range []quant.Precision{quant.PrecisionF16, quant.PrecisionInt8} {
		if got := ScanIntermediateBytes(StrategyNLJ, prec, nr, ns, batch); got != block {
			t.Fatalf("nlj %v intermediate %d, want block %d", prec, got, block)
		}
	}

	nlj := ScanShape{Strategy: StrategyNLJ, Batch: batch}
	f32NLJ := inputs(quant.PrecisionF32) + int64(ns)*4
	// A budget below F32 NLJ's footprint fits nothing, and F32 NLJ holds
	// far less than int8 codes plus a block: it is the smallest rung.
	c := p.ChooseJoinPrecision(nr, ns, dim, nlj, f32NLJ-1, 1)
	if c.Precision != quant.PrecisionF32 || c.FootprintBytes != f32NLJ {
		t.Fatalf("nlj, tight budget chose %v (%d bytes)", c.Precision, c.FootprintBytes)
	}
	// Under the tensor shape every rung holds the block, so the narrow
	// encodings are smaller again and the budget selects int8.
	tensor := ScanShape{Strategy: StrategyTensor, Batch: batch}
	want := inputs(quant.PrecisionInt8) + block
	c = p.ChooseJoinPrecision(nr, ns, dim, tensor, want, 1)
	if c.Precision != quant.PrecisionInt8 || c.FootprintBytes != want {
		t.Fatalf("tensor, int8 budget chose %v (%d bytes, want %d)", c.Precision, c.FootprintBytes, want)
	}
}
