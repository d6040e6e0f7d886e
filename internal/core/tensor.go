package core

import (
	"context"
	"fmt"
	"time"

	"ejoin/internal/mat"
)

// TensorJoin is the holistic optimization (Section IV-C, Figure 6): the
// pairwise cosine similarity of two unit-norm embedding matrices is the dot
// product D = L·Rᵀ, computed block-wise with the cache-blocked parallel
// GEMM, with mini-batch sizes bounded by Options.BudgetBytes (Figure 7).
// Each block is scanned for entries >= threshold, which are emitted as
// late-materialized (left offset, right offset, similarity) matches; the
// dense intermediate is reused and never materialized whole.
func TensorJoin(ctx context.Context, left, right *mat.Matrix, threshold float32, opts Options) (*Result, error) {
	if left.Cols() != right.Cols() {
		return nil, fmt.Errorf("core: tensor join dimensionality mismatch: %d vs %d", left.Cols(), right.Cols())
	}
	return thresholdJoin(ctx, "tensor join", left, right, nil, nil, threshold, opts)
}

// thresholdJoin is the one threshold-join driver behind every scan
// precision: mat.ForEachBlock feeds the register-tiled GEMM, which decodes
// narrow operands (F16, int8 codes) panel by panel into float32 scratch,
// and the emit loop below turns each block into matches. ls/rs, when
// non-nil, are per-row scales of integer-code operands: the block then
// holds exact code dots, rescaled here with the expression quant.SimInt8
// uses, so int8 similarities are bit-identical to the per-pair kernel.
//
// Every cell accumulates over k in ascending order (the GEMM's determinism
// contract), so a similarity depends only on its two rows and on d — never
// on Threads, batch shapes or how a caller splits the probe side.
// Comparisons counts the pairs both filters admit.
func thresholdJoin(ctx context.Context, name string, left, right mat.Operand, ls, rs []float32, threshold float32, opts Options) (*Result, error) {
	start := time.Now()
	res := &Result{}
	batch := batchOptions(opts)
	res.Stats.PeakIntermediateBytes = mat.PeakBlockBytes(left.Rows(), right.Rows(), batch)

	err := mat.ForEachBlock(left, right, batch, func(block *mat.Matrix, rOff, sOff int) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: %s cancelled at block (%d,%d): %w", name, rOff, sOff, err)
		}
		res.Stats.Blocks++
		rightPairs := int64(block.Cols())
		if opts.RightFilter != nil {
			rightPairs = 0
			for j := 0; j < block.Cols(); j++ {
				if opts.RightFilter.Get(sOff + j) {
					rightPairs++
				}
			}
		}
		for i := 0; i < block.Rows(); i++ {
			gi := rOff + i
			if opts.LeftFilter != nil && !opts.LeftFilter.Get(gi) {
				continue
			}
			res.Stats.Comparisons += rightPairs
			row := block.Row(i)
			if ls != nil {
				sa, sb := ls[gi], rs[sOff:sOff+len(row)]
				for j := range row {
					row[j] = row[j] * sa * sb[j]
				}
			}
			for j, sim := range row {
				if sim >= threshold {
					gj := sOff + j
					if opts.RightFilter != nil && !opts.RightFilter.Get(gj) {
						continue
					}
					res.Matches = append(res.Matches, Match{Left: gi, Right: gj, Sim: sim})
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sortMatches(res.Matches)
	res.Stats.JoinTime = time.Since(start)
	return res, nil
}

// batchOptions maps the scan options onto the blocked GEMM's.
func batchOptions(opts Options) mat.BatchOptions {
	return mat.BatchOptions{
		Gemm:        mat.GemmOptions{Threads: opts.Threads, Kernel: opts.Kernel},
		BudgetBytes: opts.BudgetBytes,
		BatchRows:   opts.BatchRows,
		BatchCols:   opts.BatchCols,
	}
}

// TensorJoinNonBatched is the ablation of Figure 12: the left relation is
// fully batched but the right side is processed one vector at a time
// (BatchCols=1), so every right tuple pays a full pass instead of
// amortizing block reuse. Provided to regenerate the figure; TensorJoin is
// strictly better.
func TensorJoinNonBatched(ctx context.Context, left, right *mat.Matrix, threshold float32, opts Options) (*Result, error) {
	opts.BatchRows = left.Rows()
	opts.BatchCols = 1
	opts.BudgetBytes = 0
	return TensorJoin(ctx, left, right, threshold, opts)
}

// TensorTopK returns, for every left row, its k most similar right rows
// (exactly, by exhaustive blocked scan) — the scan-side equivalent of the
// index join's top-k probes used in Figures 15 and 16. Filters follow the
// same semantics as TensorJoin.
func TensorTopK(ctx context.Context, left, right *mat.Matrix, k int, opts Options) (*Result, error) {
	if left.Cols() != right.Cols() {
		return nil, fmt.Errorf("core: tensor top-k dimensionality mismatch: %d vs %d", left.Cols(), right.Cols())
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: tensor top-k requires k > 0, got %d", k)
	}
	start := time.Now()
	res := &Result{}

	// Per-left-row bounded min-heaps, updated block by block.
	heaps := make([][]Match, left.Rows())

	batch := batchOptions(opts)
	res.Stats.PeakIntermediateBytes = mat.PeakBlockBytes(left.Rows(), right.Rows(), batch)

	err := mat.ForEachBlock(left, right, batch, func(block *mat.Matrix, rOff, sOff int) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: tensor top-k cancelled at block (%d,%d): %w", rOff, sOff, err)
		}
		res.Stats.Blocks++
		res.Stats.Comparisons += int64(block.Rows()) * int64(block.Cols())
		for i := 0; i < block.Rows(); i++ {
			gi := rOff + i
			if opts.LeftFilter != nil && !opts.LeftFilter.Get(gi) {
				continue
			}
			row := block.Row(i)
			for j, sim := range row {
				gj := sOff + j
				if opts.RightFilter != nil && !opts.RightFilter.Get(gj) {
					continue
				}
				heaps[gi] = pushTopK(heaps[gi], Match{Left: gi, Right: gj, Sim: sim}, k)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, h := range heaps {
		res.Matches = append(res.Matches, h...)
	}
	sortMatches(res.Matches)
	res.Stats.JoinTime = time.Since(start)
	return res, nil
}

// pushTopK inserts m keeping h sorted descending by similarity, capped at k.
func pushTopK(h []Match, m Match, k int) []Match {
	if len(h) == k && m.Sim <= h[k-1].Sim {
		return h
	}
	pos := len(h)
	for pos > 0 && h[pos-1].Sim < m.Sim {
		pos--
	}
	h = append(h, Match{})
	copy(h[pos+1:], h[pos:])
	h[pos] = m
	if len(h) > k {
		h = h[:k]
	}
	return h
}
