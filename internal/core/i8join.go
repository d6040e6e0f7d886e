package core

import (
	"context"
	"fmt"

	"ejoin/internal/quant"
)

// NLJI8 is the int8-quantized threshold join: inputs are stored as int8
// codes with per-vector scales (a quarter of the float32 footprint and
// traffic), compared as exact integer dots rescaled once per pair. This
// extends the half-precision direction (Section V-A2) one rung down the
// precision ladder: unit-norm embeddings lose at most
// quant.Int8DotErrorBound per comparison, so a threshold with that much
// margin keeps its meaning — which is exactly the margin the precision
// planner checks before choosing this operator.
//
// It runs on the same blocked driver as TensorJoin. Codes are widened to
// float32 unscaled (quant.CodeOperand), so the float32 tile computes the
// int32 dot exactly, and each cell is rescaled as quant.SimInt8 does:
// results are bit-identical to the per-pair int8 kernel.
func NLJI8(ctx context.Context, left, right *quant.Int8Matrix, threshold float32, opts Options) (*Result, error) {
	if left.Cols() != right.Cols() {
		return nil, fmt.Errorf("core: int8 nlj dimensionality mismatch: %d vs %d", left.Cols(), right.Cols())
	}
	return thresholdJoin(ctx, "int8 nlj", quant.CodeOperand{Int8Matrix: left}, quant.CodeOperand{Int8Matrix: right},
		left.Scales, right.Scales, threshold, opts)
}
