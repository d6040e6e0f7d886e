package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ejoin/internal/mat"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
)

// allPairs is a threshold every finite similarity clears, so a scan emits
// the whole cross product.
var allPairs = float32(math.Inf(-1))

// int8Extremes encodes random unit rows and then overwrites a few with the
// exactness limit's worst case (every code ±127, one row all +127 so its
// self-dot is d·127²) and a zero-scale row.
func int8Extremes(seed int64, rows, dim int) *quant.Int8Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := quant.EncodeInt8(randomEmbeddings(seed, rows, dim))
	for j := range m.Row(0) {
		m.Row(0)[j] = 127
	}
	for j := range m.Row(1) {
		m.Row(1)[j] = int8(127 * (1 - 2*rng.Intn(2)))
	}
	m.Scales[0], m.Scales[1] = 1/(127*float32(math.Sqrt(float64(dim)))), 1.5/127
	for j := range m.Row(2) {
		m.Row(2)[j] = 0
	}
	m.Scales[2] = 0
	return m
}

// TestInt8ScanBitIdentical: every int8 similarity the tiled driver emits is
// == the per-pair quant.SimInt8 reference, across the exactness limit
// (d·127² < 2^24 up to d = 1040) and past it, where k is split into slabs.
func TestInt8ScanBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, dim := range []int{1, 3, 7, 100, 300, 1040, 1041, 2100} {
		left := int8Extremes(int64(dim), 9, dim)
		right := int8Extremes(int64(dim)+1, 11, dim)
		for _, opts := range []Options{
			{Kernel: vec.KernelSIMD, Threads: 2},
			{Kernel: vec.KernelScalar, Threads: 1, BatchRows: 4, BatchCols: 3},
		} {
			res, err := NLJI8(ctx, left, right, allPairs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matches) != left.Rows()*right.Rows() {
				t.Fatalf("dim %d: %d matches, want every pair", dim, len(res.Matches))
			}
			for _, m := range res.Matches {
				want := quant.SimInt8(vec.KernelScalar, left.Row(m.Left), right.Row(m.Right), left.Scale(m.Left), right.Scale(m.Right))
				if m.Sim != want {
					t.Fatalf("dim %d pair (%d,%d): sim %v, SimInt8 %v", dim, m.Left, m.Right, m.Sim, want)
				}
			}
		}
	}
}

// TestF16ScanWithinBound: the tiled f16 scan differs from the per-pair
// vec.DotF16 reference only by reassociation, well inside the planner's
// F16 error bound.
func TestF16ScanWithinBound(t *testing.T) {
	ctx := context.Background()
	for _, dim := range []int{1, 3, 7, 100, 300, 1041} {
		left := mat.EncodeF16(randomEmbeddings(int64(dim), 9, dim))
		right := mat.EncodeF16(randomEmbeddings(int64(dim)+1, 11, dim))
		res, err := NLJF16(ctx, left, right, allPairs, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != left.Rows()*right.Rows() {
			t.Fatalf("dim %d: %d matches, want every pair", dim, len(res.Matches))
		}
		bound := quant.PrecisionF16.DotErrorBound(dim)
		for _, m := range res.Matches {
			want := vec.DotF16(vec.KernelSIMD, left.Row(m.Left), right.Row(m.Right))
			if diff := math.Abs(float64(m.Sim - want)); diff > bound {
				t.Fatalf("dim %d pair (%d,%d): |%v - %v| = %v > %v", dim, m.Left, m.Right, m.Sim, want, diff, bound)
			}
		}
	}
}

// TestNarrowScansDeterministic is the determinism contract: a similarity's
// bits depend on its two rows and d only, so output is byte-identical
// across thread counts and batch shapes.
func TestNarrowScansDeterministic(t *testing.T) {
	ctx := context.Background()
	const threshold = 0
	for _, dim := range []int{7, 100, 1041} {
		l, r := randomEmbeddings(int64(dim), 37, dim), randomEmbeddings(int64(dim)+1, 29, dim)
		lh, rh := mat.EncodeF16(l), mat.EncodeF16(r)
		lq, rq := quant.EncodeInt8(l), quant.EncodeInt8(r)
		scans := map[string]func(Options) (*Result, error){
			"f16":  func(o Options) (*Result, error) { return NLJF16(ctx, lh, rh, threshold, o) },
			"int8": func(o Options) (*Result, error) { return NLJI8(ctx, lq, rq, threshold, o) },
		}
		for name, scan := range scans {
			var want []Match
			for _, threads := range []int{1, 2, 4} {
				for _, shape := range [][2]int{{0, 0}, {1, 1}, {5, 3}, {16, 64}, {37, 1}} {
					res, err := scan(Options{Kernel: vec.KernelSIMD, Threads: threads, BatchRows: shape[0], BatchCols: shape[1]})
					if err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want = res.Matches
						if len(want) == 0 {
							t.Fatalf("%s dim %d: no matches to compare", name, dim)
						}
						continue
					}
					if !reflect.DeepEqual(res.Matches, want) {
						t.Fatalf("%s dim %d threads %d shape %v: output differs", name, dim, threads, shape)
					}
				}
			}
		}
	}
}

// TestNarrowScansFiltersAndComparisons: filtered rows never match, and
// Comparisons counts exactly the pairs both filters admit.
func TestNarrowScansFiltersAndComparisons(t *testing.T) {
	ctx := context.Background()
	l, r := randomEmbeddings(61, 20, 16), randomEmbeddings(62, 15, 16)
	lf := relational.BitmapFromSelection(20, relational.Selection{0, 3, 4, 19})
	rf := relational.BitmapFromSelection(15, relational.Selection{1, 2, 14})
	opts := Options{LeftFilter: lf, RightFilter: rf, Threads: 2, BatchRows: 6, BatchCols: 4}
	scans := map[string]func() (*Result, error){
		"f16": func() (*Result, error) { return NLJF16(ctx, mat.EncodeF16(l), mat.EncodeF16(r), allPairs, opts) },
		"int8": func() (*Result, error) {
			return NLJI8(ctx, quant.EncodeInt8(l), quant.EncodeInt8(r), allPairs, opts)
		},
	}
	for name, scan := range scans {
		res, err := scan()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Comparisons != 4*3 || len(res.Matches) != 4*3 {
			t.Errorf("%s: comparisons %d, matches %d, want 12 each", name, res.Stats.Comparisons, len(res.Matches))
		}
		for _, m := range res.Matches {
			if !lf.Get(m.Left) || !rf.Get(m.Right) {
				t.Errorf("%s: filtered pair emitted: %+v", name, m)
			}
		}
	}
}
