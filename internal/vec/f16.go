package vec

import "math"

// Half-precision (IEEE 754 binary16) support. Section V-A2 of the paper
// motivates half-precision processing: AVX-512 FP16 fits 32 half floats in
// one register, doubling effective SIMD width and halving memory traffic
// for embedding data whose dynamic range tolerates it (unit-norm
// embeddings do). This file provides the conversion and compute kernels;
// the tensor join exposes them as a storage/compute ablation.
//
// F16 values are stored as uint16 bit patterns. Conversions implement
// round-to-nearest-even; subnormals, infinities, and NaN are handled.

// F16 is one IEEE 754 binary16 value.
type F16 uint16

// F16FromFloat32 converts with round-to-nearest-even.
func F16FromFloat32(f float32) F16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23)&0xff - 127 + 15
	mant := bits & 0x7fffff

	switch {
	case exp >= 0x1f:
		// Overflow or inf/NaN.
		if int32(bits>>23)&0xff == 0xff {
			if mant != 0 {
				return F16(sign | 0x7e00) // NaN
			}
			return F16(sign | 0x7c00) // Inf
		}
		return F16(sign | 0x7c00) // overflow -> Inf
	case exp <= 0:
		// Subnormal or zero.
		if exp < -10 {
			return F16(sign) // underflow to signed zero
		}
		mant |= 0x800000 // implicit leading 1
		shift := uint32(14 - exp)
		half := uint16(mant >> shift)
		// Round to nearest even.
		rem := mant & ((1 << shift) - 1)
		mid := uint32(1) << (shift - 1)
		if rem > mid || (rem == mid && half&1 == 1) {
			half++
		}
		return F16(sign | half)
	default:
		half := uint16(exp)<<10 | uint16(mant>>13)
		// Round to nearest even on the dropped 13 bits.
		rem := mant & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && half&1 == 1) {
			half++ // may carry into the exponent, which is correct
		}
		return F16(sign | half)
	}
}

// Float32 converts back to full precision. Finite values (normal and
// subnormal) take one branch-free path: the exponent and mantissa bits
// move to their float32 positions and a multiply by 2^(127-15) rebiases
// the exponent, which is exact because it scales by a power of two and
// also normalizes half-precision subnormals. The GEMM decodes every panel
// of an F16 operand through this, so it is kept small enough to inline.
func (h F16) Float32() float32 {
	if h&0x7c00 == 0x7c00 {
		return h.nonFinite()
	}
	f := math.Float32frombits(uint32(h&0x7fff)<<13) * 0x1p112
	return math.Float32frombits(math.Float32bits(f) | uint32(h&0x8000)<<16)
}

// nonFinite decodes Inf and NaN (all-ones exponent).
func (h F16) nonFinite() float32 {
	sign := uint32(h&0x8000) << 16
	if h&0x3ff == 0 {
		return math.Float32frombits(sign | 0x7f800000) // Inf
	}
	return math.Float32frombits(sign | 0x7fc00000) // NaN
}

// F16Vector is a half-precision vector.
type F16Vector []F16

// EncodeF16 converts a float32 vector to half precision.
func EncodeF16(v []float32) F16Vector {
	out := make(F16Vector, len(v))
	for i, x := range v {
		out[i] = F16FromFloat32(x)
	}
	return out
}

// DecodeF16 converts back to float32.
func DecodeF16(v F16Vector) []float32 {
	out := make([]float32, len(v))
	for i, x := range v {
		out[i] = x.Float32()
	}
	return out
}

// DotF16 computes the inner product of two half-precision vectors,
// accumulating in float32 (as FP16 hardware does). The unrolled form
// mirrors the SIMD kernel.
func DotF16(k Kernel, a, b F16Vector) float32 {
	if len(a) != len(b) {
		panic("vec: DotF16 dimension mismatch")
	}
	if k == KernelSIMD {
		return dotF16Unrolled(a, b)
	}
	var s float32
	for i := range a {
		s += a[i].Float32() * b[i].Float32()
	}
	return s
}

func dotF16Unrolled(a, b F16Vector) float32 {
	n := len(a)
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		s0 += aa[0].Float32() * bb[0].Float32()
		s1 += aa[1].Float32() * bb[1].Float32()
		s2 += aa[2].Float32() * bb[2].Float32()
		s3 += aa[3].Float32() * bb[3].Float32()
	}
	s := (s0 + s2) + (s1 + s3)
	for ; i < n; i++ {
		s += a[i].Float32() * b[i].Float32()
	}
	return s
}

// F16QuantizationError returns the max absolute element error introduced
// by a round trip through half precision — the accuracy cost of the
// storage optimization.
func F16QuantizationError(v []float32) float32 {
	var maxErr float32
	for _, x := range v {
		rt := F16FromFloat32(x).Float32()
		d := x - rt
		if d < 0 {
			d = -d
		}
		if d > maxErr {
			maxErr = d
		}
	}
	return maxErr
}
