package main

import (
	"context"
	"fmt"
	"math"
	"sync"

	"ejoin/internal/model"
)

// embedDim is the dimensionality of ejserve's default hash model, which
// the verifier re-creates to compute exact answers from the same inputs.
const embedDim = 100

// simEps absorbs float32 rounding in the server's exact (f32) scores.
const simEps = 1e-4

// simMatrix holds exact cosine similarities, row-major.
type simMatrix struct {
	rows, cols int
	v          []float64
}

func (s *simMatrix) at(i, j int) float64 { return s.v[i*s.cols+j] }

// embedExact embeds texts with the hash model and normalizes in float64.
func embedExact(m model.Model, texts []string) ([][]float64, error) {
	out := make([][]float64, len(texts))
	for i, t := range texts {
		v, err := m.Embed(t)
		if err != nil {
			return nil, fmt.Errorf("embedding %q: %w", t, err)
		}
		row := make([]float64, len(v))
		var n float64
		for k, x := range v {
			row[k] = float64(x)
			n += row[k] * row[k]
		}
		if n > 0 {
			n = 1 / math.Sqrt(n)
			for k := range row {
				row[k] *= n
			}
		}
		out[i] = row
	}
	return out, nil
}

func dot(a, b []float64) float64 {
	var s float64
	for k := range a {
		s += a[k] * b[k]
	}
	return s
}

// exactSims is the full left x right similarity matrix.
func exactSims(left, right [][]float64) *simMatrix {
	s := &simMatrix{rows: len(left), cols: len(right), v: make([]float64, len(left)*len(right))}
	for i, a := range left {
		for j, b := range right {
			s.v[i*s.cols+j] = dot(a, b)
		}
	}
	return s
}

// checkThreshold verifies a threshold join over left rows [0, leftRows):
// every pair scoring at least thr+tol must be returned, every returned
// pair must score at least thr-tol, each score must be within tol of the
// exact one, and no pair may repeat. It returns "" or the first problem.
func checkThreshold(sims *simMatrix, leftRows int, thr, tol float64, got []match) string {
	seen := make(map[[2]int]bool, len(got))
	for _, m := range got {
		if m.Left < 0 || m.Left >= leftRows || m.Right < 0 || m.Right >= sims.cols {
			return fmt.Sprintf("pair (%d,%d) out of range", m.Left, m.Right)
		}
		k := [2]int{m.Left, m.Right}
		if seen[k] {
			return fmt.Sprintf("pair (%d,%d) repeated", m.Left, m.Right)
		}
		seen[k] = true
		exact := sims.at(m.Left, m.Right)
		if exact < thr-tol {
			return fmt.Sprintf("pair (%d,%d) scores %.6f, below threshold %.3g", m.Left, m.Right, exact, thr)
		}
		if math.Abs(float64(m.Sim)-exact) > tol {
			return fmt.Sprintf("pair (%d,%d) reported %.6f, exact %.6f", m.Left, m.Right, m.Sim, exact)
		}
	}
	for i := 0; i < leftRows; i++ {
		for j := 0; j < sims.cols; j++ {
			if sims.at(i, j) >= thr+tol && !seen[[2]int{i, j}] {
				return fmt.Sprintf("pair (%d,%d) scoring %.6f missing", i, j, sims.at(i, j))
			}
		}
	}
	return ""
}

// checkTopK verifies a top-k join: each left row in [0, leftRows) gets
// exactly min(k, cols) distinct right rows, each scoring within tol of
// the row's k-th best exact score or better, with scores within tol.
func checkTopK(sims *simMatrix, leftRows, k int, tol float64, got []match) string {
	want := k
	if sims.cols < want {
		want = sims.cols
	}
	per := make(map[int][]match, leftRows)
	for _, m := range got {
		if m.Left < 0 || m.Left >= leftRows || m.Right < 0 || m.Right >= sims.cols {
			return fmt.Sprintf("pair (%d,%d) out of range", m.Left, m.Right)
		}
		per[m.Left] = append(per[m.Left], m)
	}
	for i := 0; i < leftRows; i++ {
		ms := per[i]
		if len(ms) != want {
			return fmt.Sprintf("left row %d has %d matches, want %d", i, len(ms), want)
		}
		kth := kthLargest(sims.v[i*sims.cols:(i+1)*sims.cols], want)
		seen := map[int]bool{}
		for _, m := range ms {
			if seen[m.Right] {
				return fmt.Sprintf("pair (%d,%d) repeated", i, m.Right)
			}
			seen[m.Right] = true
			exact := sims.at(i, m.Right)
			if exact < kth-tol {
				return fmt.Sprintf("pair (%d,%d) scores %.6f, below the k-th best %.6f", i, m.Right, exact, kth)
			}
			if math.Abs(float64(m.Sim)-exact) > tol {
				return fmt.Sprintf("pair (%d,%d) reported %.6f, exact %.6f", i, m.Right, m.Sim, exact)
			}
		}
	}
	return ""
}

// kthLargest is the k-th largest value of row (1 <= k <= len(row)).
func kthLargest(row []float64, k int) float64 {
	top := make([]float64, 0, k) // descending
	for _, x := range row {
		if len(top) == k && x <= top[k-1] {
			continue
		}
		if len(top) < k {
			top = append(top, x)
		} else {
			top[k-1] = x
		}
		for j := len(top) - 1; j > 0 && top[j] > top[j-1]; j-- {
			top[j], top[j-1] = top[j-1], top[j]
		}
	}
	return top[k-1]
}

// checkShape verifies one scan-shape answer against the exact sims.
func checkShape(s shape, sims *simMatrix, got []match) string {
	leftRows := sims.rows
	if s.LeftIDBelow > 0 && s.LeftIDBelow < leftRows {
		leftRows = s.LeftIDBelow
	}
	if s.TopK > 0 {
		return checkTopK(sims, leftRows, s.TopK, simEps, got)
	}
	tol := simEps + s.Prec.DotErrorBound(embedDim)
	return checkThreshold(sims, leftRows, s.Threshold, tol, got)
}

// verifier checks every answer of a run after the measured window.
type verifier struct {
	model  model.Model
	sims   *simMatrix // scan workloads
	stream *matchStream
	// catalog holds fresh-match's catalog embeddings.
	catalog [][]float64
	// ref is join-scan's answer digest per scan shape; sharded-scan must
	// reproduce it byte for byte.
	ref map[int][32]byte
}

func newVerifier(ctx context.Context, e env, w workload, d *deployment) (*verifier, error) {
	m, err := model.NewHashEmbedder(embedDim)
	if err != nil {
		return nil, err
	}
	v := &verifier{model: m, stream: d.Stream}
	if d.Stream != nil {
		v.catalog, err = embedExact(m, d.Stream.Catalog)
		return v, err
	}
	left, err := embedExact(m, d.Scan.Left)
	if err != nil {
		return nil, err
	}
	right, err := embedExact(m, d.Scan.Right)
	if err != nil {
		return nil, err
	}
	v.sims = exactSims(left, right)
	if w.Shards > 1 {
		v.ref, err = referenceDigests(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("join-scan reference: %w", err)
		}
	}
	return v, nil
}

// referenceDigests boots join-scan's server on the same inputs and
// records each shape's answer.
func referenceDigests(ctx context.Context, e env) (map[int][32]byte, error) {
	d, _, err := setUp(ctx, e, workloads["join-scan"], 99)
	if err != nil {
		return nil, err
	}
	defer d.close()
	out := map[int][32]byte{}
	for i, s := range scanShapes {
		ms, err := d.Srv.query(ctx, s.SQL())
		if err != nil {
			return nil, err
		}
		out[i] = digest(ms)
	}
	return out, nil
}

// check returns, per sample, "" or why its answer is wrong. Failed
// requests are skipped: they already count as failures.
func (v *verifier) check(samples []sample) []string {
	out := make([]string, len(samples))
	if v.stream != nil {
		v.checkMatches(samples, out)
		return out
	}
	type key struct {
		shape int
		dig   [32]byte
	}
	verdict := map[key]string{}
	for i, s := range samples {
		if s.Err != nil {
			continue
		}
		k := key{s.Shape, digest(s.Matches)}
		why, done := verdict[k]
		if !done {
			why = checkShape(allShapes[s.Shape], v.sims, s.Matches)
			if ref, ok := v.ref[s.Shape]; ok && why == "" && ref != k.dig {
				why = "answer differs from join-scan's"
			}
			verdict[k] = why
		}
		out[i] = why
	}
	return out
}

// checkMatches brute-forces every fresh-match answer, on two goroutines.
func (v *verifier) checkMatches(samples []sample, out []string) {
	var mu sync.Mutex
	cache := map[string][]float64{}
	embed := func(texts []string) ([][]float64, error) {
		res := make([][]float64, len(texts))
		var todo []int
		mu.Lock()
		for i, t := range texts {
			if e, ok := cache[t]; ok {
				res[i] = e
			} else {
				todo = append(todo, i)
			}
		}
		mu.Unlock()
		miss := make([]string, len(todo))
		for n, i := range todo {
			miss[n] = texts[i]
		}
		embs, err := embedExact(v.model, miss)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		for n, i := range todo {
			res[i] = embs[n]
			cache[texts[i]] = embs[n]
		}
		mu.Unlock()
		return res, nil
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < maxClients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s := samples[i]
				probe, err := embed(v.stream.batches[s.Batch])
				if err != nil {
					out[i] = err.Error()
					continue
				}
				out[i] = checkTopK(exactSims(probe, v.catalog), len(probe), matchTopK, simEps, s.Matches)
			}
		}()
	}
	for i, s := range samples {
		if s.Err == nil {
			next <- i
		}
	}
	close(next)
	wg.Wait()
}
