package mat

import (
	"fmt"
	"runtime"
	"sync"

	"ejoin/internal/vec"
)

// GemmOptions tunes the blocked similarity GEMM. The zero value picks
// sensible defaults (all CPUs, 64×64 blocks, SIMD kernel).
type GemmOptions struct {
	// Threads is the number of worker goroutines; <=0 means GOMAXPROCS.
	Threads int
	// BlockRows is the R-panel height in rows; <=0 means 64.
	BlockRows int
	// BlockCols is the S-panel height in rows; <=0 means 64.
	BlockCols int
	// Kernel selects scalar vs unrolled inner kernels.
	Kernel vec.Kernel
}

func (o GemmOptions) withDefaults() GemmOptions {
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	if o.BlockRows <= 0 {
		o.BlockRows = 64
	}
	if o.BlockCols <= 0 {
		o.BlockCols = 64
	}
	return o
}

// Operand is an input of the blocked GEMM: a row-major matrix, possibly
// held in a narrow encoding. A *Matrix is read in place; narrow encodings
// (F16Matrix, quant.CodeOperand) decode one panel of rows at a time into
// the calling worker's reused float32 scratch just before the tile kernel
// reads it, so no whole decoded copy of an operand ever exists.
type Operand interface {
	Rows() int
	Cols() int
	// DecodeRows writes rows [lo, lo+dst.Rows()) into dst as float32.
	DecodeRows(dst *Matrix, lo int)
}

// IntegerOperand is an Operand whose decoded rows hold small integers
// (widened int8 codes). ExactCols is the widest k-range over which the
// float32 dot of two such rows is exact, every partial sum staying below
// 2^24. When both inputs are integer operands, the GEMM splits k into
// slabs of at most ExactCols columns and sums the slab dots in int32, so
// every cell is the exact integer dot, rounded to float32 once. With
// d <= ExactCols there is a single slab and nothing to sum.
type IntegerOperand interface {
	Operand
	ExactCols() int
}

// MulTransposeInto computes dst = r · sᵀ, i.e. dst[i][j] = r.Row(i)·s.Row(j),
// using cache-blocked parallel execution. dst must be r.Rows()×s.Rows().
// This is the tensor-join primitive: with unit-norm rows the result is the
// full pairwise cosine similarity matrix (Figure 6, step 1).
func MulTransposeInto(dst *Matrix, r, s Operand, opts GemmOptions) error {
	if r.Cols() != s.Cols() {
		return fmt.Errorf("mat: inner dimensions differ: %d vs %d", r.Cols(), s.Cols())
	}
	if dst.Rows() != r.Rows() || dst.Cols() != s.Rows() {
		return fmt.Errorf("mat: dst is %dx%d, want %dx%d", dst.Rows(), dst.Cols(), r.Rows(), s.Rows())
	}
	mulRange(dst, r, s, 0, 0, opts)
	return nil
}

// mulRange computes dst[i][j] = r.Row(r0+i)·s.Row(s0+j) over all of dst.
// Work is parallelized over R row panels; each worker owns disjoint dst
// rows, so no synchronization on writes is needed.
func mulRange(dst *Matrix, r, s Operand, r0, s0 int, opts GemmOptions) {
	opts = opts.withDefaults()
	nr := dst.Rows()
	if nr == 0 || dst.Cols() == 0 {
		return
	}
	slab := r.Cols()
	ri, rok := r.(IntegerOperand)
	si, sok := s.(IntegerOperand)
	if rok && sok {
		slab = min(slab, ri.ExactCols(), si.ExactCols())
	}
	workers := min(opts.Threads, (nr+opts.BlockRows-1)/opts.BlockRows)
	panels := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			sc := scratchPool.Get().(*panelScratch)
			defer scratchPool.Put(sc)
			for lo := range panels {
				sc.mulPanel(dst, r, s, r0, s0, lo, min(lo+opts.BlockRows, nr), slab, opts)
			}
		}()
	}
	for lo := 0; lo < nr; lo += opts.BlockRows {
		panels <- lo
	}
	close(panels)
	wg.Wait()
}

// panelScratch is one GEMM worker's buffers, pooled so the decode scratch
// is reused across panels, calls and probe blocks: one R panel and one S
// block of decoded rows (BlockRows×d and BlockCols×d floats) plus, when k
// is split into slabs, one tile of slab dots and their int32 sums.
type panelScratch struct {
	r, s []float32
	tile []float32
	acc  []int32
}

var scratchPool = sync.Pool{New: func() any { return new(panelScratch) }}

// mulPanel computes dst rows [lo, hi) against all of s, iterating S in
// column blocks so a block of S rows stays in cache while being reused
// against every R row of the panel. The R panel is decoded once; each S
// block once per panel.
func (sc *panelScratch) mulPanel(dst *Matrix, r, s Operand, r0, s0, lo, hi, slab int, opts GemmOptions) {
	d := r.Cols()
	ns := dst.Cols()
	rp := panel(r, r0+lo, hi-lo, &sc.r)
	for sLo := 0; sLo < ns; sLo += opts.BlockCols {
		sp := panel(s, s0+sLo, min(sLo+opts.BlockCols, ns)-sLo, &sc.s)
		if slab >= d {
			mulTile(dst, lo, sLo, rp, sp, 0, d, opts.Kernel)
			continue
		}
		cells := rp.Rows() * sp.Rows()
		tile := &Matrix{RowsN: rp.Rows(), ColsN: sp.Rows(), Data: grow(&sc.tile, cells)}
		acc := grow(&sc.acc, cells)
		clear(acc)
		for k0 := 0; k0 < d; k0 += slab {
			mulTile(tile, 0, 0, rp, sp, k0, min(k0+slab, d), opts.Kernel)
			for x, v := range tile.Data {
				acc[x] += int32(v)
			}
		}
		for i := 0; i < tile.Rows(); i++ {
			drow := dst.Row(lo + i)[sLo : sLo+tile.Cols()]
			for j, v := range acc[i*tile.Cols() : (i+1)*tile.Cols()] {
				drow[j] = float32(v)
			}
		}
	}
}

// panel returns rows [lo, lo+n) of op as float32: a view of a *Matrix's
// storage, or the rows decoded into *buf.
func panel(op Operand, lo, n int, buf *[]float32) *Matrix {
	if m, ok := op.(*Matrix); ok {
		return m.Slice(lo, lo+n)
	}
	p := &Matrix{RowsN: n, ColsN: op.Cols(), Data: grow(buf, n*op.Cols())}
	op.DecodeRows(p, lo)
	return p
}

// grow returns (*buf)[:n], reallocating only when the capacity is short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// mulTile computes dst[di+i][dj+j] = Σ_{k0<=k<k1} r[i][k]·s[j][k] for every
// row i of r and j of s.
func mulTile(dst *Matrix, di, dj int, r, s *Matrix, k0, k1 int, kernel vec.Kernel) {
	if kernel == vec.KernelSIMD {
		mulBlockUnrolled(dst, di, dj, r, s, k0, k1)
	} else {
		mulBlockScalar(dst, di, dj, r, s, k0, k1)
	}
}

func mulBlockScalar(dst *Matrix, di, dj int, r, s *Matrix, k0, k1 int) {
	for i := 0; i < r.Rows(); i++ {
		ri := r.Row(i)[k0:k1]
		drow := dst.Row(di + i)[dj:]
		for j := 0; j < s.Rows(); j++ {
			sj := s.Row(j)[k0:k1]
			var acc float32
			for k := range ri {
				acc += ri[k] * sj[k]
			}
			drow[j] = acc
		}
	}
}

// mulBlockUnrolled is the register-tiled micro-kernel: a 4(R)x2(S) tile
// keeps 8 accumulators live and reuses every loaded element across the
// tile (6 loads feed 8 multiply-adds), which is where BLAS kernels get
// their advantage over tuple-at-a-time dot products. Go has no intrinsics,
// so this is the closest pure-Go analogue of MKL's role in the paper.
//
// Determinism contract: every output cell accumulates over k in ascending
// order, whether it lands in the 4x2 tile or a remainder row/column. A
// cell's bit pattern therefore depends only on its two input vectors —
// never on where block or tile boundaries fall, i.e. never on the matrix
// shapes. The shard router relies on this: it slices the same logical
// tables into per-shard matrices of different heights and promises
// byte-identical similarities to an unsharded execution.
func mulBlockUnrolled(dst *Matrix, di, dj int, r, s *Matrix, k0, k1 int) {
	n := k1 - k0
	nr, ns := r.Rows(), s.Rows()
	i := 0
	for ; i+4 <= nr; i += 4 {
		r0, r1, r2, r3 := r.Row(i)[k0:k1], r.Row(i + 1)[k0:k1], r.Row(i + 2)[k0:k1], r.Row(i + 3)[k0:k1]
		d0, d1, d2, d3 := dst.Row(di + i)[dj:], dst.Row(di + i + 1)[dj:], dst.Row(di + i + 2)[dj:], dst.Row(di + i + 3)[dj:]
		j := 0
		for ; j+2 <= ns; j += 2 {
			// Reslice every stream to the common length n so the compiler
			// proves all k-indexed accesses in bounds (range over b0).
			b0 := s.Row(j)[k0:k1]
			b0 = b0[:n:n]
			b1 := s.Row(j + 1)[k0:k1]
			b1 = b1[:n:n]
			a0 := r0[:n:n]
			a1 := r1[:n:n]
			a2 := r2[:n:n]
			a3 := r3[:n:n]
			var a00, a01, a10, a11, a20, a21, a30, a31 float32
			for k := range b0 {
				s0k := b0[k]
				s1k := b1[k]
				r0k := a0[k]
				r1k := a1[k]
				r2k := a2[k]
				r3k := a3[k]
				a00 += r0k * s0k
				a01 += r0k * s1k
				a10 += r1k * s0k
				a11 += r1k * s1k
				a20 += r2k * s0k
				a21 += r2k * s1k
				a30 += r3k * s0k
				a31 += r3k * s1k
			}
			d0[j], d0[j+1] = a00, a01
			d1[j], d1[j+1] = a10, a11
			d2[j], d2[j+1] = a20, a21
			d3[j], d3[j+1] = a30, a31
		}
		for ; j < ns; j++ {
			sj := s.Row(j)[k0:k1]
			d0[j] = dotSeq(r0, sj)
			d1[j] = dotSeq(r1, sj)
			d2[j] = dotSeq(r2, sj)
			d3[j] = dotSeq(r3, sj)
		}
	}
	// Remaining 1-3 R rows.
	for ; i < nr; i++ {
		ri := r.Row(i)[k0:k1]
		drow := dst.Row(di + i)[dj:]
		for j := 0; j < ns; j++ {
			drow[j] = dotSeq(ri, s.Row(j)[k0:k1])
		}
	}
}

// dotSeq is the remainder-cell kernel: one sequential ascending-k loop,
// the same accumulation order as the register tile's per-cell sums and as
// mulBlockScalar. Remainder cells must not reassociate differently from
// tile cells (e.g. via vec.Dot's multi-lane accumulators), or a cell's
// value would depend on its position relative to the 4x2 tiling.
func dotSeq(a, b []float32) float32 {
	b = b[:len(a):len(a)]
	var acc float32
	for k := range a {
		acc += a[k] * b[k]
	}
	return acc
}

// MulTranspose allocates and returns r·sᵀ.
func MulTranspose(r, s Operand, opts GemmOptions) (*Matrix, error) {
	dst := New(r.Rows(), s.Rows())
	if err := MulTransposeInto(dst, r, s, opts); err != nil {
		return nil, err
	}
	return dst, nil
}
