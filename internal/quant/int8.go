package quant

import (
	"math"

	"ejoin/internal/mat"
	"ejoin/internal/vec"
)

// Int8 scalar quantization: symmetric, per-vector scale. Each row stores
// dim int8 codes and one float32 scale s = maxabs/127, with
// x_i ≈ code_i · s. Symmetric codes make the similarity of two encoded
// vectors a plain int8×int8 dot with int32 accumulation — the integer
// kernel hardware executes at multiples of float throughput — followed by
// a single float32 rescale by s_a·s_b. Scans compute those dots exactly
// on the float32 register-tiled GEMM over widened codes (CodeOperand);
// DotInt8/SimInt8 are the per-pair reference.

// Int8Matrix is a dense row-major int8-quantized matrix: the 4×-compressed
// rung of the precision ladder.
type Int8Matrix struct {
	RowsN int
	ColsN int
	// Codes holds the quantized elements, row-major.
	Codes []int8
	// Scales holds one dequantization scale per row (x ≈ code·scale).
	Scales []float32
}

// EncodeInt8 quantizes a float32 matrix to int8 with a per-row symmetric
// scale. Zero rows encode with scale 0. Round-trip error is bounded per
// element by scale/2 (see ReconstructionErrorBound).
func EncodeInt8(m *mat.Matrix) *Int8Matrix {
	out := &Int8Matrix{
		RowsN:  m.Rows(),
		ColsN:  m.Cols(),
		Codes:  make([]int8, m.Rows()*m.Cols()),
		Scales: make([]float32, m.Rows()),
	}
	for i := 0; i < m.Rows(); i++ {
		out.Scales[i] = encodeInt8Row(m.Row(i), out.Row(i))
	}
	return out
}

// encodeInt8Row quantizes one vector into dst and returns its scale.
func encodeInt8Row(src []float32, dst []int8) float32 {
	var maxAbs float32
	for _, x := range src {
		if a := float32(math.Abs(float64(x))); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return 0
	}
	scale := maxAbs / 127
	inv := 1 / scale
	for i, x := range src {
		q := math.RoundToEven(float64(x * inv))
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		dst[i] = int8(q)
	}
	return scale
}

// EncodeInt8Vector quantizes a single vector, returning codes and scale.
func EncodeInt8Vector(v []float32) ([]int8, float32) {
	codes := make([]int8, len(v))
	scale := encodeInt8Row(v, codes)
	return codes, scale
}

// Rows returns the number of rows.
func (m *Int8Matrix) Rows() int { return m.RowsN }

// Cols returns the number of columns.
func (m *Int8Matrix) Cols() int { return m.ColsN }

// Row returns row i's codes, aliasing the storage.
func (m *Int8Matrix) Row(i int) []int8 {
	return m.Codes[i*m.ColsN : (i+1)*m.ColsN : (i+1)*m.ColsN]
}

// Scale returns row i's dequantization scale.
func (m *Int8Matrix) Scale(i int) float32 { return m.Scales[i] }

// MaxScale returns the largest per-row scale — the input to the exact
// per-matrix-pair dot error bound.
func (m *Int8Matrix) MaxScale() float32 {
	var s float32
	for _, x := range m.Scales {
		if x > s {
			s = x
		}
	}
	return s
}

// Decode reconstructs the float32 matrix (with quantization loss baked in).
func (m *Int8Matrix) Decode() *mat.Matrix {
	out := mat.New(m.RowsN, m.ColsN)
	for i := 0; i < m.RowsN; i++ {
		s := m.Scales[i]
		row := m.Row(i)
		dst := out.Row(i)
		for j, c := range row {
			dst[j] = float32(c) * s
		}
	}
	return out
}

// SizeBytes returns the resident storage: one byte per element plus one
// float32 scale per row — a 4× reduction over float32 for typical dims.
func (m *Int8Matrix) SizeBytes() int64 {
	return int64(len(m.Codes)) + int64(len(m.Scales))*4
}

// ReconstructionErrorBound is the guaranteed per-element round-trip error
// bound of row i: half a quantization step.
func (m *Int8Matrix) ReconstructionErrorBound(i int) float32 {
	return m.Scales[i] / 2
}

// CodeOperand presents an Int8Matrix's raw codes to the blocked GEMM as a
// mat.IntegerOperand: each panel of rows decodes to its codes widened to
// float32, unscaled, so r·sᵀ over two CodeOperands is the matrix of exact
// DotInt8 values (as float32). Rescaling a cell as cell·sa·sb is then
// SimInt8 bit for bit.
type CodeOperand struct{ *Int8Matrix }

// DecodeRows widens the codes of rows [lo, lo+dst.Rows()) into dst.
func (c CodeOperand) DecodeRows(dst *mat.Matrix, lo int) {
	out := dst.Data
	src := c.Codes[lo*c.ColsN:][:len(out)]
	for i, code := range src {
		out[i] = float32(code)
	}
}

// ExactCols is the widest k-range whose float32 code dot is exact. Every
// product is at most 127² and every partial sum of d of them stays below
// 2^24 while d ≤ 1040; slabs of 1024 columns keep well inside that.
func (CodeOperand) ExactCols() int { return 1024 }

// DotInt8 computes the integer inner product of two code vectors with
// int32 accumulation. The unrolled form mirrors vec.Dot's SIMD kernel:
// 8 independent accumulators, hoisted bounds checks, scalar tail.
func DotInt8(k vec.Kernel, a, b []int8) int32 {
	if len(a) != len(b) {
		panic("quant: DotInt8 dimension mismatch")
	}
	if k == vec.KernelSIMD {
		return dotInt8Unrolled(a, b)
	}
	var s int32
	for i := range a {
		s += int32(a[i]) * int32(b[i])
	}
	return s
}

func dotInt8Unrolled(a, b []int8) int32 {
	n := len(a)
	var s0, s1, s2, s3, s4, s5, s6, s7 int32
	i := 0
	for ; i+8 <= n; i += 8 {
		aa := a[i : i+8 : i+8]
		bb := b[i : i+8 : i+8]
		s0 += int32(aa[0]) * int32(bb[0])
		s1 += int32(aa[1]) * int32(bb[1])
		s2 += int32(aa[2]) * int32(bb[2])
		s3 += int32(aa[3]) * int32(bb[3])
		s4 += int32(aa[4]) * int32(bb[4])
		s5 += int32(aa[5]) * int32(bb[5])
		s6 += int32(aa[6]) * int32(bb[6])
		s7 += int32(aa[7]) * int32(bb[7])
	}
	s := (s0 + s4) + (s1 + s5) + (s2 + s6) + (s3 + s7)
	for ; i < n; i++ {
		s += int32(a[i]) * int32(b[i])
	}
	return s
}

// SimInt8 is the approximate similarity of two encoded vectors: the
// integer dot rescaled by both vectors' quantization scales.
func SimInt8(k vec.Kernel, a, b []int8, sa, sb float32) float32 {
	return float32(DotInt8(k, a, b)) * sa * sb
}

// Int8DotErrorBound is the exact bound on |dot(x,y) - SimInt8(qx,qy)| for
// unit-norm x, y encoded with scales sa, sb: with per-element errors
// ea = sa/2, eb = sb/2 and ‖x‖₁ ≤ √d,
//
//	|Δ| ≤ eb·‖x‖₁ + ea·‖y‖₁ + d·ea·eb.
func Int8DotErrorBound(dim int, sa, sb float32) float32 {
	if dim <= 0 {
		return 0
	}
	d := float64(dim)
	ea, eb := float64(sa)/2, float64(sb)/2
	return float32(math.Sqrt(d)*(ea+eb) + d*ea*eb)
}
