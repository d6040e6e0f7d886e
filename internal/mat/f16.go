package mat

import (
	"fmt"

	"ejoin/internal/vec"
)

// F16Matrix is a dense row-major half-precision matrix: the storage side of
// the paper's half-precision direction (Section V-A2 — FP16 halves memory
// traffic and doubles effective SIMD width on hardware with FP16 support).
// In pure Go the memory saving is real (2 bytes/element); compute runs on
// the same float32 register-tiled GEMM as F32, with each panel of rows
// decoded once into a worker's scratch (DecodeRows), so the conversion is
// paid once per row per panel, not once per compared pair.
type F16Matrix struct {
	RowsN int
	ColsN int
	Data  vec.F16Vector
}

// NewF16 allocates a zeroed half-precision matrix.
func NewF16(rows, cols int) *F16Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &F16Matrix{RowsN: rows, ColsN: cols, Data: make(vec.F16Vector, rows*cols)}
}

// EncodeF16 quantizes a float32 matrix to half precision.
func EncodeF16(m *Matrix) *F16Matrix {
	out := NewF16(m.Rows(), m.Cols())
	for i, x := range m.Data {
		out.Data[i] = vec.F16FromFloat32(x)
	}
	return out
}

// Decode converts back to float32 (with quantization loss baked in).
func (m *F16Matrix) Decode() *Matrix {
	out := New(m.RowsN, m.ColsN)
	for i, x := range m.Data {
		out.Data[i] = x.Float32()
	}
	return out
}

// DecodeRows widens rows [lo, lo+dst.Rows()) into dst: the Operand view
// the blocked GEMM decodes one panel at a time.
func (m *F16Matrix) DecodeRows(dst *Matrix, lo int) {
	out := dst.Data
	src := m.Data[lo*m.ColsN:][:len(out)]
	for i, h := range src {
		out[i] = h.Float32()
	}
}

// Rows returns the number of rows.
func (m *F16Matrix) Rows() int { return m.RowsN }

// Cols returns the number of columns.
func (m *F16Matrix) Cols() int { return m.ColsN }

// Row returns row i as a half-precision slice aliasing the storage.
func (m *F16Matrix) Row(i int) vec.F16Vector {
	return m.Data[i*m.ColsN : (i+1)*m.ColsN : (i+1)*m.ColsN]
}

// SizeBytes returns the backing storage size (2 bytes per element —
// half the float32 footprint).
func (m *F16Matrix) SizeBytes() int64 {
	return int64(len(m.Data)) * 2
}
