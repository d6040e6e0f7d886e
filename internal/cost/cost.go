// Package cost implements the abstract cost model of Section IV-A and the
// scan-versus-probe access path selection of Section VI-E.
//
// Costs are expressed in abstract work units. As the paper notes, "the cost
// model should be parametrized based on their mutually normalized relative
// performance": Params carries those relative weights, and Calibrate
// measures them on the running machine.
package cost

import (
	"fmt"
	"math"
	"time"

	"ejoin/internal/mat"
	"ejoin/internal/model"
	"ejoin/internal/quant"
	"ejoin/internal/vec"
)

// Params are the cost-model coefficients, per the paper's notation:
// A (data access per tuple), M (model embedding per tuple), C (comparison
// of one vector pair). Index terms extend the model for Section IV-B.
type Params struct {
	// Access is A: per-tuple data access cost.
	Access float64
	// Model is M: per-tuple embedding cost (lookup or inference).
	Model float64
	// Compare is C: cost of one d-dimensional pair comparison.
	Compare float64
	// TensorSpeedup is how much cheaper a comparison is inside the blocked
	// tensor formulation than in tuple-at-a-time NLJ (cache locality +
	// kernel quality); > 1 means faster.
	TensorSpeedup float64
	// ProbeHop is the cost of one graph hop during an index probe; a probe
	// visits ~ProbeWidth·log2(|S|) nodes.
	ProbeHop float64
	// ProbeWidth scales probe cost with beam width / k.
	ProbeWidth float64
	// Build is the per-tuple index construction cost.
	Build float64

	// f16ScanFactor and int8ScanFactor are the per-pair cost of an F16 or
	// int8 threshold scan relative to F32 as Calibrate measured it on this
	// machine; zero means the measured defaults (see ScanCostFactor).
	f16ScanFactor, int8ScanFactor float64
}

// DefaultParams returns coefficients that reproduce the paper's qualitative
// regimes: model ≫ comparison ≫ access, tensor ~5x better cache behavior,
// probes logarithmic in |S| but with a large constant — a top-1 probe with
// pre-filtering costs about as much as a blocked scan of a few hundred
// thousand vectors, which is what places the Figure 15 crossover at
// ~20-30% selectivity.
func DefaultParams() Params {
	return Params{
		Access:        1,
		Model:         200,
		Compare:       25,
		TensorSpeedup: 5,
		ProbeHop:      2000,
		ProbeWidth:    1.5,
		Build:         300,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Access < 0 || p.Model < 0 || p.Compare < 0 || p.Build < 0 {
		return fmt.Errorf("cost: negative coefficients: %+v", p)
	}
	if p.TensorSpeedup <= 0 {
		return fmt.Errorf("cost: TensorSpeedup must be positive, got %v", p.TensorSpeedup)
	}
	if p.ProbeHop < 0 || p.ProbeWidth <= 0 {
		return fmt.Errorf("cost: invalid probe parameters: %+v", p)
	}
	return nil
}

// ESelection is Cost(σ_{E,µ,θ}(R)) = |R|·(A + M + C): scan, embed, apply
// the condition per tuple.
func (p Params) ESelection(n int) float64 {
	return float64(n) * (p.Access + p.Model + p.Compare)
}

// NaiveENLJoin is Cost(R ⋈ S) = |R|·|S|·(A + M + C): the direct NLJ
// extension with per-pair model access (quadratic model cost).
func (p Params) NaiveENLJoin(nr, ns int) float64 {
	return float64(nr) * float64(ns) * (p.Access + p.Model + p.Compare)
}

// PrefetchENLJoin is Cost = |R|·|S|·(A + C) + (|R|+|S|)·M: the logically
// optimized join embedding each tuple exactly once.
func (p Params) PrefetchENLJoin(nr, ns int) float64 {
	return p.PrefetchENLJoinWarm(nr, ns, 0, 0)
}

// PrefetchENLJoinWarm is PrefetchENLJoin under a warm shared embedding
// store: hitR/hitS are the expected cache hit ratios per side, and the
// model term M is paid only for expected misses. With a fully warm cache
// the join cost collapses to its comparison term, which can flip the
// planner's access path choice (scans stop being dominated by E_µ).
func (p Params) PrefetchENLJoinWarm(nr, ns int, hitR, hitS float64) float64 {
	return float64(nr)*float64(ns)*(p.Access+p.Compare) + p.EmbedCost(nr, hitR) + p.EmbedCost(ns, hitS)
}

// TensorJoin is the prefetched join with block-matrix execution: the same
// asymptotic shape with the comparison constant divided by TensorSpeedup.
func (p Params) TensorJoin(nr, ns int) float64 {
	return p.TensorJoinWarm(nr, ns, 0, 0)
}

// TensorJoinWarm is TensorJoin with cache-discounted embedding cost.
func (p Params) TensorJoinWarm(nr, ns int, hitR, hitS float64) float64 {
	return float64(nr)*float64(ns)*(p.Access+p.Compare/p.TensorSpeedup) + p.EmbedCost(nr, hitR) + p.EmbedCost(ns, hitS)
}

// EmbedCost is the expected embedding cost of n tuples under a cache with
// the given expected hit ratio: n·M·(1-hit). hit is clamped to [0, 1];
// a cold (or absent) store is hit=0, reproducing the paper's n·M term.
func (p Params) EmbedCost(n int, hit float64) float64 {
	return float64(n) * p.Model * (1 - clamp01(hit))
}

// IndexProbe is Iprobe(S) for one query: beam-scaled logarithmic traversal.
func (p Params) IndexProbe(ns, k int) float64 {
	if ns <= 1 {
		return p.ProbeHop
	}
	beam := p.ProbeWidth * float64(k)
	if beam < 1 {
		beam = 1
	}
	return p.ProbeHop * beam * math.Log2(float64(ns))
}

// IndexJoin is Cost = |R|·Iprobe(S)·(A + C), per Equation (E-Index Join
// Cost). Embeddings of R still cost |R|·M; the index stores S embeddings.
// Pre-filtering does not reduce probe cost (traversal is still paid) —
// that asymmetry is what moves the crossovers in Figures 15-17.
func (p Params) IndexJoin(nr, ns, k int) float64 {
	return p.IndexJoinWarm(nr, ns, k, 0)
}

// IndexJoinWarm is IndexJoin with the probe side's embedding cost
// discounted by the expected cache hit ratio (the index already stores S
// embeddings, so only R's term is cache-sensitive).
func (p Params) IndexJoinWarm(nr, ns, k int, hitR float64) float64 {
	return float64(nr)*p.IndexProbe(ns, k)*(p.Access+p.Compare) + p.EmbedCost(nr, hitR)
}

// IndexBuild is the one-time construction cost over |S| tuples.
func (p Params) IndexBuild(ns int) float64 {
	return float64(ns) * p.Build
}

// Strategy enumerates physical E-join strategies.
type Strategy int

const (
	// StrategyNaiveNLJ embeds per pair; never chosen, present for explain
	// output and ablation.
	StrategyNaiveNLJ Strategy = iota
	// StrategyNLJ is the prefetched tuple-at-a-time nested loop join.
	StrategyNLJ
	// StrategyTensor is the blocked matrix formulation.
	StrategyTensor
	// StrategyIndex probes a vector index.
	StrategyIndex
)

// String names the strategy as used in plan explain output.
func (s Strategy) String() string {
	switch s {
	case StrategyNaiveNLJ:
		return "NaiveNLJ"
	case StrategyNLJ:
		return "NLJ"
	case StrategyTensor:
		return "TensorJoin"
	case StrategyIndex:
		return "IndexJoin"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Choice is the outcome of access path selection.
type Choice struct {
	Strategy Strategy
	// Estimates maps each considered strategy to its estimated cost.
	Estimates map[Strategy]float64
}

// ChooseJoinStrategy picks the cheapest strategy for joining |R|=nr against
// |S|=ns after relational filtering with the given selectivities, under a
// top-k (k>0) or threshold (k<=0) condition. hasIndex reports whether an
// index over S's embeddings exists (building one mid-query is counted
// against the index strategy).
//
// The decision reproduces the paper's findings: scans win at low
// selectivity (they skip filtered tuples for free, and the tensor
// formulation makes comparisons cheap), index probes win for small k and
// high selectivity over large S, and range (threshold) conditions penalize
// the index (probes must over-fetch).
func (p Params) ChooseJoinStrategy(nr, ns int, selLeft, selRight float64, k int, hasIndex bool) Choice {
	return p.ChooseJoinStrategyWarm(nr, ns, selLeft, selRight, k, hasIndex, 0, 0)
}

// ChooseJoinStrategyWarm is ChooseJoinStrategy under a shared embedding
// store: hitL/hitR are the expected cache hit ratios of the two inputs
// (0 = cold, reproducing ChooseJoinStrategy exactly). A warm cache
// removes the E_µ term from scan strategies but leaves probe traversal
// untouched, shifting the scan-versus-probe crossover of Section VI-E.
func (p Params) ChooseJoinStrategyWarm(nr, ns int, selLeft, selRight float64, k int, hasIndex bool, hitL, hitR float64) Choice {
	fr := int(math.Ceil(float64(nr) * clamp01(selLeft)))
	fs := int(math.Ceil(float64(ns) * clamp01(selRight)))

	est := map[Strategy]float64{
		StrategyNLJ:    p.PrefetchENLJoinWarm(fr, fs, hitL, hitR),
		StrategyTensor: p.TensorJoinWarm(fr, fs, hitL, hitR),
	}

	// Index probes pay traversal over the full S (pre-filter semantics),
	// probe only surviving R tuples, and over-fetch for range conditions.
	probeK := k
	if probeK <= 0 {
		// Threshold probe: emulated with widened top-k (Figure 17); the
		// effective k grows with how many S tuples could qualify.
		probeK = 32
	}
	idxCost := p.IndexJoinWarm(fr, ns, probeK, hitL)
	if k <= 0 {
		// Over-fetch + retry widening for range conditions.
		idxCost *= 2
	}
	if !hasIndex {
		idxCost += p.IndexBuild(ns)
	}
	est[StrategyIndex] = idxCost

	best := StrategyTensor
	for _, s := range []Strategy{StrategyNLJ, StrategyIndex} {
		if est[s] < est[best] {
			best = s
		}
	}
	return Choice{Strategy: best, Estimates: est}
}

// Default per-pair scan cost of the narrow rungs relative to F32, from
// BenchmarkThresholdScan (internal/core: 2048×2048 pairs, d=100, one
// thread, 2-vCPU Xeon, best of five runs): f32 35.2 ns/pair, f16 41.8,
// int8 38.9. All three rungs run the same register-tiled float32 GEMM;
// the narrow ones add a panel decode (and, for int8, a rescale per
// cell), so they cost slightly more per pair, not less. What they buy is
// resident footprint, which the memory gate of ChooseJoinPrecision weighs.
const (
	defaultF16ScanFactor  = 1.19
	defaultInt8ScanFactor = 1.10
)

// ScanCostFactor is the relative per-comparison cost of a threshold scan
// at prec against F32: the factor Calibrate measured, or the default.
func (p Params) ScanCostFactor(prec quant.Precision) float64 {
	f, def := 1.0, 1.0
	switch prec {
	case quant.PrecisionF16:
		f, def = p.f16ScanFactor, defaultF16ScanFactor
	case quant.PrecisionInt8:
		f, def = p.int8ScanFactor, defaultInt8ScanFactor
	}
	if f <= 0 {
		return def
	}
	return f
}

// ScanShape is how a threshold scan will execute: its strategy and the
// blocked driver's batching, which together fix the intermediate each
// precision rung holds besides its inputs (ScanIntermediateBytes).
type ScanShape struct {
	Strategy Strategy
	Batch    mat.BatchOptions
}

// ScanIntermediateBytes is what a scan join over nr x ns inputs holds
// besides them: the blocked driver's similarity block (mat.PeakBlockBytes)
// for tensor scans and for every F16/int8 scan, which always run blocked,
// or one row of ns partial similarities for F32 tuple-at-a-time NLJ.
// Other strategies hold no scan intermediate.
func ScanIntermediateBytes(s Strategy, prec quant.Precision, nr, ns int, batch mat.BatchOptions) int64 {
	narrow := prec == quant.PrecisionF16 || prec == quant.PrecisionInt8
	switch {
	case s == StrategyTensor, s == StrategyNLJ && narrow:
		return mat.PeakBlockBytes(nr, ns, batch)
	case s == StrategyNLJ:
		return int64(ns) * 4
	}
	return 0
}

// PrecisionChoice is the outcome of precision selection.
type PrecisionChoice struct {
	Precision quant.Precision
	// Estimates maps each eligible precision to its estimated scan cost;
	// precisions excluded on accuracy grounds are absent.
	Estimates map[quant.Precision]float64
	// FootprintBytes is the chosen precision's resident bytes while the
	// scan runs: its embeddings plus the scan intermediate.
	FootprintBytes int64
}

// ChooseJoinPrecision picks the storage/compute precision for a threshold
// scan join over nr x ns embeddings of the given dimensionality — the
// precision-ladder analogue of ChooseJoinStrategyWarm. Two constraints
// gate each rung before cost comparison:
//
//   - accuracy: a precision is eligible only when its dot-product error
//     bound (quant.Precision.DotErrorBound) is at most slack, the result
//     drift the caller tolerates at the threshold boundary. slack <= 0
//     demands exactness and always selects F32.
//   - memory: when budgetBytes > 0, precisions whose footprint exceeds
//     the budget are excluded; if no precision fits, the smallest-
//     footprint eligible rung is chosen — degraded, like the admission
//     controller's over-budget clamp, rather than refused. The footprint
//     is the scan's steady-state residency: nr+ns vectors at the rung's
//     width (the executor drops the float32 prefetch once the quantized
//     copies are built, so only the encode pass transiently holds both)
//     plus the intermediate the scan holds under shape. F16/int8 scans
//     always hold a similarity block, so under an F32 NLJ shape they can
//     need more memory than F32 does.
//
// Among survivors the cheapest estimated scan cost wins: comparisons
// scaled by the per-precision scan cost factor, plus the one-pass encode
// cost quantization adds per input tuple. With the measured factors (>= 1:
// every rung runs the same tiled kernel) a narrow rung is chosen only when
// the budget excludes F32.
func (p Params) ChooseJoinPrecision(nr, ns, dim int, shape ScanShape, budgetBytes int64, slack float64) PrecisionChoice {
	if slack < 0 {
		slack = 0
	}
	ladder := []quant.Precision{quant.PrecisionF32, quant.PrecisionF16, quant.PrecisionInt8}
	est := make(map[quant.Precision]float64, len(ladder))
	footprint := func(prec quant.Precision) int64 {
		return int64(nr+ns)*prec.BytesPerVector(dim) + ScanIntermediateBytes(shape.Strategy, prec, nr, ns, shape.Batch)
	}

	var eligible []quant.Precision
	for _, prec := range ladder {
		if prec.DotErrorBound(dim) > slack {
			continue
		}
		encode := 0.0
		if prec != quant.PrecisionF32 {
			// Quantizing is one pass over each input tuple's vector.
			encode = float64(nr+ns) * p.Access
		}
		est[prec] = float64(nr)*float64(ns)*p.Compare*p.ScanCostFactor(prec) + encode
		eligible = append(eligible, prec)
	}

	best := quant.PrecisionF32
	fits := func(prec quant.Precision) bool {
		return budgetBytes <= 0 || footprint(prec) <= budgetBytes
	}
	chosen := false
	for _, prec := range eligible {
		if !fits(prec) {
			continue
		}
		if !chosen || est[prec] < est[best] {
			best, chosen = prec, true
		}
	}
	if !chosen {
		// Nothing fits the budget: take the smallest eligible footprint.
		for _, prec := range eligible {
			if !chosen || footprint(prec) < footprint(best) {
				best, chosen = prec, true
			}
		}
	}
	return PrecisionChoice{Precision: best, Estimates: est, FootprintBytes: footprint(best)}
}

// Corrections are multiplicative cardinality adjustments learned from
// executed queries (the feedback loop): observed-over-estimated ratios
// that scale the planner's static inputs before cost comparison. The
// zero-value semantics are deliberate — use NeutralCorrections for "no
// feedback yet".
type Corrections struct {
	// SelLeft/SelRight scale the filter selectivities of the two inputs.
	SelLeft, SelRight float64
	// Rows scales the join's output-cardinality estimate.
	Rows float64
}

// NeutralCorrections is the identity adjustment.
func NeutralCorrections() Corrections {
	return Corrections{SelLeft: 1, SelRight: 1, Rows: 1}
}

// correctionBound caps how far a learned correction may pull an estimate
// in one planning decision: a burst of anomalous queries should bend the
// model, not break it.
const correctionBound = 64

// clampCorrection normalizes one factor: non-positive (unset or junk)
// becomes neutral, and the rest is bounded to [1/64, 64].
func clampCorrection(f float64) float64 {
	if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return 1
	}
	if f > correctionBound {
		return correctionBound
	}
	if f < 1/float64(correctionBound) {
		return 1 / float64(correctionBound)
	}
	return f
}

// Clamped returns the corrections with every factor normalized by
// clampCorrection.
func (c Corrections) Clamped() Corrections {
	return Corrections{
		SelLeft:  clampCorrection(c.SelLeft),
		SelRight: clampCorrection(c.SelRight),
		Rows:     clampCorrection(c.Rows),
	}
}

// ChooseJoinStrategyCorrected is ChooseJoinStrategyWarm with the static
// selectivities scaled by learned corrections first. Corrected
// selectivities stay clamped to [0, 1] inside the chooser.
func (p Params) ChooseJoinStrategyCorrected(nr, ns int, selLeft, selRight float64, k int, hasIndex bool, hitL, hitR float64, corr Corrections) Choice {
	corr = corr.Clamped()
	return p.ChooseJoinStrategyWarm(nr, ns, selLeft*corr.SelLeft, selRight*corr.SelRight, k, hasIndex, hitL, hitR)
}

// ChooseJoinPrecisionCorrected is ChooseJoinPrecision over feedback-
// corrected input cardinalities: each side's row count is scaled by its
// selectivity correction before the ladder weighs scan cost against the
// encode pass. The memory gate still uses the corrected counts — an
// estimate the feedback says is too low would otherwise under-reserve.
func (p Params) ChooseJoinPrecisionCorrected(nr, ns, dim int, shape ScanShape, budgetBytes int64, slack float64, corr Corrections) PrecisionChoice {
	corr = corr.Clamped()
	cnr := int(math.Ceil(float64(nr) * corr.SelLeft))
	cns := int(math.Ceil(float64(ns) * corr.SelRight))
	return p.ChooseJoinPrecision(cnr, cns, dim, shape, budgetBytes, slack)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Calibrate measures the machine's relative A, M, and C, and the narrow
// scan rungs' per-pair cost factors, and returns Params with the remaining
// coefficients taken from DefaultParams. m is the model whose cost will
// sit on the query's critical path; dim is the embedding dimensionality.
func Calibrate(m model.Model, dim int) (Params, error) {
	p := DefaultParams()
	const rounds = 64

	// C: one d-dim dot product.
	a := make([]float32, dim)
	b := make([]float32, dim)
	for i := range a {
		a[i] = float32(i%7) * 0.25
		b[i] = float32(i%5) * 0.5
	}
	var sink float32
	start := time.Now()
	for i := 0; i < rounds; i++ {
		sink += vec.Dot(vec.KernelSIMD, a, b)
	}
	compare := float64(time.Since(start).Nanoseconds()) / rounds

	// A: one sequential float32 copy of a tuple.
	buf := make([]float32, dim)
	start = time.Now()
	for i := 0; i < rounds; i++ {
		copy(buf, a)
	}
	access := float64(time.Since(start).Nanoseconds()) / rounds

	// M: one model call.
	start = time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := m.Embed("calibration-token"); err != nil {
			return Params{}, fmt.Errorf("cost: calibration embed failed: %w", err)
		}
	}
	modelCost := float64(time.Since(start).Nanoseconds()) / rounds

	_ = sink
	p.f16ScanFactor, p.int8ScanFactor = scanFactors(dim)
	if access <= 0 {
		access = 1
	}
	p.Access = 1
	p.Compare = compare / access
	p.Model = modelCost / access
	if p.Compare <= 0 {
		p.Compare = 1
	}
	if p.Model <= 0 {
		p.Model = 1
	}
	return p, nil
}

// scanFactors times one 64×64 compare block per scan precision through the
// blocked GEMM every threshold scan runs on (panel decode plus tile
// kernel) and returns the F16 and int8 times relative to F32. Each rung
// keeps its best of a few rounds, so one descheduled round cannot skew
// the ratio.
func scanFactors(dim int) (f16, int8 float64) {
	const rows, rounds = 64, 5
	dim = max(dim, 1)
	m := mat.New(rows, dim)
	for i := range m.Data {
		m.Data[i] = float32(i%11)*0.1 - 0.5
	}
	m.NormalizeRows()
	dst := mat.New(rows, rows)
	opts := mat.GemmOptions{Threads: 1, Kernel: vec.KernelSIMD}
	best := func(op mat.Operand) float64 {
		b := math.Inf(1)
		for i := 0; i < rounds; i++ {
			start := time.Now()
			_ = mat.MulTransposeInto(dst, op, op, opts)
			b = math.Min(b, float64(time.Since(start).Nanoseconds()))
		}
		return math.Max(b, 1)
	}
	f32 := best(m)
	return best(mat.EncodeF16(m)) / f32, best(quant.CodeOperand{Int8Matrix: quant.EncodeInt8(m)}) / f32
}
