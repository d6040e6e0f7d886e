package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestF16ExactValues(t *testing.T) {
	cases := []struct {
		f float32
		h F16
	}{
		{0, 0x0000},
		{1, 0x3c00},
		{-1, 0xbc00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7bff}, // max finite f16
	}
	for _, c := range cases {
		if got := F16FromFloat32(c.f); got != c.h {
			t.Errorf("F16FromFloat32(%v) = %#04x, want %#04x", c.f, got, c.h)
		}
		if got := c.h.Float32(); got != c.f {
			t.Errorf("%#04x.Float32() = %v, want %v", c.h, got, c.f)
		}
	}
}

func TestF16SpecialValues(t *testing.T) {
	inf := float32(math.Inf(1))
	if got := F16FromFloat32(inf).Float32(); !math.IsInf(float64(got), 1) {
		t.Errorf("+inf round trip = %v", got)
	}
	ninf := float32(math.Inf(-1))
	if got := F16FromFloat32(ninf).Float32(); !math.IsInf(float64(got), -1) {
		t.Errorf("-inf round trip = %v", got)
	}
	nan := float32(math.NaN())
	if got := F16FromFloat32(nan).Float32(); !math.IsNaN(float64(got)) {
		t.Errorf("NaN round trip = %v", got)
	}
	// Overflow saturates to inf.
	if got := F16FromFloat32(1e9).Float32(); !math.IsInf(float64(got), 1) {
		t.Errorf("overflow = %v", got)
	}
	// Deep underflow flushes to zero, keeping sign.
	if got := F16FromFloat32(1e-30).Float32(); got != 0 {
		t.Errorf("underflow = %v", got)
	}
	if got := F16FromFloat32(-1e-30); got != 0x8000 {
		t.Errorf("negative underflow = %#04x", got)
	}
}

func TestF16Subnormals(t *testing.T) {
	// Smallest positive normal f16 is 2^-14; below that, subnormals.
	sub := float32(math.Pow(2, -15))
	rt := F16FromFloat32(sub).Float32()
	if math.Abs(float64(rt-sub)) > 1e-6 {
		t.Errorf("subnormal round trip: %v -> %v", sub, rt)
	}
	// Smallest subnormal ~5.96e-8.
	tiny := float32(5.96e-8)
	rt = F16FromFloat32(tiny).Float32()
	if rt == 0 {
		t.Errorf("smallest subnormal flushed to zero")
	}
}

// TestF16RoundTripProperty: for values in the embedding range [-1, 1], the
// round-trip error is bounded by half-precision epsilon (~1e-3 relative).
func TestF16RoundTripProperty(t *testing.T) {
	f := func(x float32) bool {
		v := float32(math.Mod(float64(x), 1)) // clamp into [-1, 1]
		if math.IsNaN(float64(v)) {
			return true
		}
		rt := F16FromFloat32(v).Float32()
		return math.Abs(float64(rt-v)) <= 1e-3*math.Max(1e-3, math.Abs(float64(v)))+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeF16(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := make([]float32, 257)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	Normalize(v)
	enc := EncodeF16(v)
	dec := DecodeF16(enc)
	if len(dec) != len(v) {
		t.Fatal("length mismatch")
	}
	for i := range v {
		if math.Abs(float64(dec[i]-v[i])) > 1e-3 {
			t.Fatalf("element %d: %v vs %v", i, dec[i], v[i])
		}
	}
	if e := F16QuantizationError(v); e > 1e-3 {
		t.Errorf("quantization error %v too large for unit vectors", e)
	}
}

// TestDotF16AccuracyProperty: half-precision dot products of unit vectors
// stay within ~1% of the float32 result — the accuracy budget that makes
// FP16 viable for cosine thresholds.
func TestDotF16AccuracyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(300)
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		Normalize(a)
		Normalize(b)
		full := float64(Dot(KernelSIMD, a, b))
		for _, k := range []Kernel{KernelScalar, KernelSIMD} {
			half := float64(DotF16(k, EncodeF16(a), EncodeF16(b)))
			if math.Abs(full-half) > 0.01 {
				t.Fatalf("trial %d kernel %v: f32 %v vs f16 %v", trial, k, full, half)
			}
		}
	}
}

func TestDotF16KernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 3, 4, 5, 8, 100} {
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		ea, eb := EncodeF16(a), EncodeF16(b)
		s := float64(DotF16(KernelScalar, ea, eb))
		u := float64(DotF16(KernelSIMD, ea, eb))
		if math.Abs(s-u) > 1e-2*math.Max(1, math.Abs(s)) {
			t.Errorf("n=%d: scalar %v vs unrolled %v", n, s, u)
		}
	}
}

func TestDotF16PanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	DotF16(KernelScalar, F16Vector{0}, F16Vector{0, 0})
}

// TestF16MonotoneRounding: rounding is monotone — encoding preserves order
// for representative samples.
func TestF16MonotoneRounding(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	prevF := float32(-2)
	var prevH float32
	for i := 0; i < 1000; i++ {
		f := prevF + float32(rng.Float64())*0.01
		h := F16FromFloat32(f).Float32()
		if i > 0 && h < prevH {
			t.Fatalf("rounding not monotone: f16(%v)=%v < f16(prev)=%v", f, h, prevH)
		}
		prevF, prevH = f, h
	}
}

// TestF16Float32Exhaustive checks the branch-free decode bit for bit
// against a field-by-field IEEE 754 binary16 decoder over all 65536
// encodings.
func TestF16Float32Exhaustive(t *testing.T) {
	ref := func(h F16) float32 {
		sign := uint32(h&0x8000) << 16
		exp := uint32(h>>10) & 0x1f
		mant := uint32(h & 0x3ff)
		switch exp {
		case 0:
			if mant == 0 {
				return math.Float32frombits(sign)
			}
			e := uint32(127 - 15 + 1)
			for mant&0x400 == 0 {
				mant <<= 1
				e--
			}
			return math.Float32frombits(sign | e<<23 | (mant&0x3ff)<<13)
		case 0x1f:
			if mant == 0 {
				return math.Float32frombits(sign | 0x7f800000)
			}
			return math.Float32frombits(sign | 0x7fc00000)
		default:
			return math.Float32frombits(sign | (exp+127-15)<<23 | mant<<13)
		}
	}
	for i := 0; i <= 0xffff; i++ {
		h := F16(i)
		if got, want := math.Float32bits(h.Float32()), math.Float32bits(ref(h)); got != want {
			t.Fatalf("F16(%#04x).Float32() bits %#08x, want %#08x", i, got, want)
		}
	}
}
