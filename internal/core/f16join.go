package core

import (
	"context"
	"fmt"

	"ejoin/internal/mat"
)

// NLJF16 is the half-precision threshold join: inputs are stored in FP16
// (half the memory footprint and traffic of float32), compared with
// float32 accumulation. This implements the paper's half-precision
// processing direction (Section V-A2) as a storage/compute ablation:
// unit-norm embeddings lose ~1e-3 per element to quantization, so
// thresholds keep their meaning (set ThresholdSlack if matches at the
// exact boundary matter).
//
// It runs on the same blocked driver as TensorJoin: each panel of FP16
// rows is decoded once into a GEMM worker's float32 scratch, so the
// conversion is paid per row per panel rather than per compared pair.
// Similarities accumulate over k in ascending order, which differs from
// vec.DotF16's multi-lane order only by reassociation.
func NLJF16(ctx context.Context, left, right *mat.F16Matrix, threshold float32, opts Options) (*Result, error) {
	if left.Cols() != right.Cols() {
		return nil, fmt.Errorf("core: f16 nlj dimensionality mismatch: %d vs %d", left.Cols(), right.Cols())
	}
	return thresholdJoin(ctx, "f16 nlj", left, right, nil, nil, threshold, opts)
}
