// Package oracle is the brute-force reference every execution shape of
// the join engine is checked against. It shares nothing with the
// executor beyond the relational layer and the model: it applies each
// side's visibility and predicates, embeds every surviving row with the
// model directly (one call per row, no store, no batching), and compares
// every pair in float64.
//
// Engine results are approximate only in rounding: f32 normalization and
// accumulation, or the f16/int8 scan rungs. Check therefore requires the
// engine's pair ids to equal the oracle's exactly, except for pairs whose
// exact similarity lies within the precision's error bound of the
// threshold or of the row's k-th score, and every reported similarity to
// lie within that same bound of the exact one.
//
// The package is imported only by tests.
package oracle

import (
	"fmt"
	"math"
	"sort"

	"ejoin/internal/core"
	"ejoin/internal/model"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
)

// Side is one join input.
type Side struct {
	Table *relational.Table
	// TextColumn is embedded with the join's model unless VectorColumn
	// (precomputed embeddings) is set.
	TextColumn   string
	VectorColumn string
	// Visible is the MVCC visibility set (nil = every physical row).
	Visible relational.Selection
	Preds   []relational.Pred
}

// Join is the declarative join the oracle evaluates.
type Join struct {
	Left, Right Side
	Model       model.Model
	// K > 0 makes a top-k join (the K most similar right rows per left
	// row); otherwise pairs with similarity >= Threshold match.
	K int
	// Threshold is the threshold join's condition, or a top-k join's
	// residual filter when > -1.
	Threshold float64
}

// Result is the exact evaluation of a Join.
type Result struct {
	// LeftRows/RightRows are the rows that survived visibility and
	// predicates, ascending.
	LeftRows, RightRows relational.Selection
	// Dim is the embedding dimensionality.
	Dim int

	join       Join
	sims       [][]float64 // sims[i][j]: LeftRows[i] vs RightRows[j]
	lpos, rpos map[int]int // global row id -> position
}

// Run evaluates j exhaustively.
func Run(j Join) (*Result, error) {
	r := &Result{join: j}
	var lv, rv [][]float64
	var err error
	if r.LeftRows, lv, err = evalSide(j.Left, j.Model); err != nil {
		return nil, fmt.Errorf("oracle: left: %w", err)
	}
	if r.RightRows, rv, err = evalSide(j.Right, j.Model); err != nil {
		return nil, fmt.Errorf("oracle: right: %w", err)
	}
	if len(lv) > 0 {
		r.Dim = len(lv[0])
	} else if len(rv) > 0 {
		r.Dim = len(rv[0])
	}
	r.sims = make([][]float64, len(lv))
	for i, a := range lv {
		r.sims[i] = make([]float64, len(rv))
		for k, b := range rv {
			if len(a) != len(b) {
				return nil, fmt.Errorf("oracle: dimensionality mismatch %d vs %d", len(a), len(b))
			}
			var dot float64
			for d := range a {
				dot += a[d] * b[d]
			}
			r.sims[i][k] = dot
		}
	}
	r.lpos, r.rpos = positions(r.LeftRows), positions(r.RightRows)
	return r, nil
}

// Pairs is the number of compared pairs, |L'|·|R'|: what a scan strategy
// must report as its comparisons.
func (r *Result) Pairs() int64 { return int64(len(r.LeftRows)) * int64(len(r.RightRows)) }

// Sim is the exact similarity of two surviving global rows.
func (r *Result) Sim(left, right int) (float64, bool) {
	i, ok := r.lpos[left]
	k, ok2 := r.rpos[right]
	if !ok || !ok2 {
		return 0, false
	}
	return r.sims[i][k], true
}

// Bound is the tolerance of an execution at precision p: f32 rounding
// (normalization plus a dim-term dot product, at most (dim+4)·2⁻²² for
// unit vectors, four times the textbook γ_dim bound) plus the precision
// rung's own dot-product error bound.
func (r *Result) Bound(p quant.Precision) float64 {
	return float64(r.Dim+4)*0x1p-22 + p.DotErrorBound(r.Dim)
}

// Check compares engine matches (global row ids, the query's orientation)
// against the exact result under the tolerance of precision p; see the
// package comment. It returns the first disagreement found.
func (r *Result) Check(got []core.Match, p quant.Precision) error {
	bound := r.Bound(p)
	seen := make(map[[2]int]bool, len(got))
	perRow := make(map[int]int)
	for _, m := range got {
		key := [2]int{m.Left, m.Right}
		if seen[key] {
			return fmt.Errorf("oracle: pair (%d,%d) reported twice", m.Left, m.Right)
		}
		seen[key] = true
		exact, ok := r.Sim(m.Left, m.Right)
		if !ok {
			return fmt.Errorf("oracle: pair (%d,%d) has a row that did not survive visibility and predicates", m.Left, m.Right)
		}
		if d := math.Abs(float64(m.Sim) - exact); d > bound {
			return fmt.Errorf("oracle: pair (%d,%d) sim %v, exact %v: off by %.3g > bound %.3g", m.Left, m.Right, m.Sim, exact, d, bound)
		}
		perRow[m.Left]++
	}
	for i, left := range r.LeftRows {
		cut := r.cutoff(i)
		for k, right := range r.RightRows {
			exact := r.sims[i][k]
			in := seen[[2]int{left, right}]
			switch {
			case in && exact < cut-bound:
				return fmt.Errorf("oracle: pair (%d,%d) reported with exact sim %v below cutoff %v", left, right, exact, cut)
			case !in && exact > cut+bound:
				return fmt.Errorf("oracle: pair (%d,%d) missing with exact sim %v above cutoff %v", left, right, exact, cut)
			}
		}
		if r.join.K > 0 && r.join.Threshold <= -1 {
			if want := min(r.join.K, len(r.RightRows)); perRow[left] != want {
				return fmt.Errorf("oracle: left row %d has %d matches, want top-%d", left, perRow[left], want)
			}
		}
	}
	return nil
}

// cutoff returns left row i's admission cutoff: a pair matches iff its
// exact similarity reaches it. Threshold joins cut at the threshold;
// top-k joins at the row's k-th score (-Inf when the row has fewer than
// k build rows to choose from), raised to the residual threshold when
// one applies.
func (r *Result) cutoff(i int) float64 {
	if r.join.K <= 0 {
		return r.join.Threshold
	}
	cut := math.Inf(-1)
	if r.join.K <= len(r.sims[i]) {
		sorted := append([]float64(nil), r.sims[i]...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		cut = sorted[r.join.K-1]
	}
	if r.join.Threshold > -1 && r.join.Threshold > cut {
		cut = r.join.Threshold
	}
	return cut
}

// evalSide returns the surviving rows of s and their unit-norm float64
// embeddings.
func evalSide(s Side, m model.Model) (relational.Selection, [][]float64, error) {
	keep := make(map[int]bool)
	if s.Visible == nil {
		for r := 0; r < s.Table.NumRows(); r++ {
			keep[r] = true
		}
	} else {
		for _, r := range s.Visible {
			keep[r] = true
		}
	}
	if len(s.Preds) > 0 {
		sel, err := relational.And(s.Table, s.Preds...)
		if err != nil {
			return nil, nil, err
		}
		pass := make(map[int]bool, len(sel))
		for _, r := range sel {
			pass[r] = true
		}
		for r := range keep {
			if !pass[r] {
				delete(keep, r)
			}
		}
	}
	rows := make(relational.Selection, 0, len(keep))
	for r := range keep {
		rows = append(rows, r)
	}
	sort.Ints(rows)

	vecs := make([][]float64, len(rows))
	if s.VectorColumn != "" {
		vc, err := s.Table.Vectors(s.VectorColumn)
		if err != nil {
			return nil, nil, err
		}
		for i, r := range rows {
			vecs[i] = unit(vc.Row(r))
		}
		return rows, vecs, nil
	}
	if m == nil {
		return nil, nil, fmt.Errorf("text column %q needs a model", s.TextColumn)
	}
	texts, err := s.Table.Strings(s.TextColumn)
	if err != nil {
		return nil, nil, err
	}
	for i, r := range rows {
		v, err := m.Embed(texts[r])
		if err != nil {
			return nil, nil, err
		}
		vecs[i] = unit(v)
	}
	return rows, vecs, nil
}

// unit normalizes v in float64; a zero vector stays zero.
func unit(v []float32) []float64 {
	out := make([]float64, len(v))
	var norm float64
	for i, x := range v {
		out[i] = float64(x)
		norm += out[i] * out[i]
	}
	if norm == 0 {
		return out
	}
	norm = math.Sqrt(norm)
	for i := range out {
		out[i] /= norm
	}
	return out
}

func positions(rows relational.Selection) map[int]int {
	m := make(map[int]int, len(rows))
	for i, r := range rows {
		m[r] = i
	}
	return m
}
