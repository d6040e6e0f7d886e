package exec

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"ejoin/internal/core"
	"ejoin/internal/mat"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
)

// TestNarrowProbeBlockInvariant: f16 and int8 threshold probes return
// byte-identical output whatever the probe block size, thread count or
// GEMM batch shape — the tiled driver's reduction order depends on d
// only — and int8 similarities equal the per-pair quant.SimInt8.
func TestNarrowProbeBlockInvariant(t *testing.T) {
	const n, nb, dim = 50, 23, 24
	rng := rand.New(rand.NewSource(5))
	vecs := make([][]float32, n)
	for i := range vecs {
		vecs[i] = make([]float32, dim)
		for j := range vecs[i] {
			vecs[i][j] = float32(rng.NormFloat64())
		}
	}
	col, err := relational.NewVectorColumn(vecs)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := relational.NewTable(relational.Schema{{Name: "emb", Type: relational.Vector}}, []relational.Column{col})
	if err != nil {
		t.Fatal(err)
	}
	build := mat.New(nb, dim)
	buildRows := make([]int, nb)
	for i := 0; i < nb; i++ {
		copy(build.Row(i), vecs[2*i])
		buildRows[i] = 2 * i
	}
	build.NormalizeRows()
	probe := mat.New(n, dim)
	for i := range vecs {
		copy(probe.Row(i), vecs[i])
	}
	probe.NormalizeRows()
	lq, bq := quant.EncodeInt8(probe), quant.EncodeInt8(build)

	ctx := context.Background()
	for _, prec := range []quant.Precision{quant.PrecisionF16, quant.PrecisionInt8} {
		var want []core.Match
		for _, blockRows := range []int{1, 7, 4096} {
			for _, threads := range []int{1, 2, 4} {
				for _, shape := range [][2]int{{0, 0}, {3, 5}} {
					p := &ThresholdProbe{
						Input:     &Scan{Table: tbl, Name: "L", VectorColumn: "emb", BlockRows: blockRows},
						Threshold: 0,
						Precision: prec,
						Opts:      core.Options{Kernel: vec.KernelSIMD, Threads: threads, BatchRows: shape[0], BatchCols: shape[1]},
					}
					p.Build, p.BuildRows = build, buildRows
					if err := p.Open(ctx); err != nil {
						t.Fatal(err)
					}
					// Narrow probes run the blocked driver even without Tensor.
					if name := p.Stats().Name; name != "probe:tensor" {
						t.Fatalf("%v probe named %q", prec, name)
					}
					got, err := Drain(ctx, p)
					if err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want = got
						if len(want) == 0 {
							t.Fatalf("%v: no matches to compare", prec)
						}
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v block %d threads %d shape %v: output differs", prec, blockRows, threads, shape)
					}
				}
			}
		}
		if prec != quant.PrecisionInt8 {
			continue
		}
		for _, m := range want {
			b := m.Right / 2
			ref := quant.SimInt8(vec.KernelScalar, lq.Row(m.Left), bq.Row(b), lq.Scale(m.Left), bq.Scale(b))
			if m.Sim != ref {
				t.Fatalf("pair (%d,%d): sim %v, SimInt8 %v", m.Left, m.Right, m.Sim, ref)
			}
		}
	}
}
