package plan

import (
	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/exec"
	"ejoin/internal/mat"
	"ejoin/internal/quant"
)

// EstimateFootprint estimates the peak resident bytes executing j will
// pin: the resident build side plus one probe block of embeddings (the
// pipeline never holds the whole probe side), the encoded copies an
// F16/int8 scan builds from them, and the scan's intermediate under the
// executor's batching options (cost.ScanIntermediateBytes: the blocked
// driver's similarity block for tensor and every F16/int8 scan). dim is
// the embedding dimensionality (the model's, or the vector column's);
// blockRows <=0 uses exec.DefaultBlockSize.
//
// This is the weight a serving layer charges against its admission
// budget before letting the query execute: it bounds aggregate memory
// pressure across concurrent queries using the same estimates the cost
// model plans with, not runtime measurements taken too late to help.
func EstimateFootprint(j *EJoin, dim int, opts core.Options, blockRows int) int64 {
	if j == nil {
		return 0
	}
	if blockRows <= 0 {
		blockRows = exec.DefaultBlockSize
	}
	if dim < 1 {
		dim = 1
	}
	lr, rr := estimateRows(j.Left), estimateRows(j.Right)
	block := lr
	if block > blockRows {
		block = blockRows
	}
	return int64(rr+block)*(int64(dim)*4+encodedBytes(j, dim)) +
		cost.ScanIntermediateBytes(j.Strategy, j.Precision, block, rr, scanBatch(opts))
}

// encodedBytes is the per-row size of the narrow copy an F16/int8 scan
// encodes from the float32 embeddings, and 0 for other plans.
func encodedBytes(j *EJoin, dim int) int64 {
	if !j.Quantizable() || (j.Precision != quant.PrecisionF16 && j.Precision != quant.PrecisionInt8) {
		return 0
	}
	return j.Precision.BytesPerVector(dim)
}

// scanBatch is the blocked driver's batching under the executor options.
func scanBatch(opts core.Options) mat.BatchOptions {
	return mat.BatchOptions{
		BudgetBytes: opts.BudgetBytes,
		BatchRows:   opts.BatchRows,
		BatchCols:   opts.BatchCols,
	}
}
