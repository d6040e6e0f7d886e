package main

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	sorted := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	cases := []struct {
		n      int
		p      float64
		value  float64
		beyond int
	}{
		{200, 0.95, 190, 10}, // the smallest run that gives p95 ten samples beyond it
		{199, 0.95, 190, 9},
		{1000, 0.95, 950, 50},
		{10, 0.50, 5, 5},
		{11, 0.50, 6, 5},
		{1, 0.95, 1, 0},
	}
	for _, c := range cases {
		v, beyond := percentile(sorted(c.n), c.p)
		if v != c.value || beyond != c.beyond {
			t.Errorf("percentile(n=%d, p=%v) = %v with %d beyond, want %v with %d", c.n, c.p, v, beyond, c.value, c.beyond)
		}
	}
	if minSamples*5/100 < 10 {
		t.Errorf("minSamples = %d leaves fewer than 10 samples beyond p95", minSamples)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(genScan(1), genScan(1)) {
		t.Error("genScan(1) differs between calls")
	}
	if reflect.DeepEqual(genScan(1).Left, genScan(2).Left) {
		t.Error("genScan(1) and genScan(2) give the same left table")
	}
	a, b, c := newMatchStream(7), newMatchStream(7), newMatchStream(8)
	if !reflect.DeepEqual(a.Catalog, b.Catalog) {
		t.Error("same seed, different catalogs")
	}
	if reflect.DeepEqual(a.Catalog, c.Catalog) {
		t.Error("different seeds, same catalog")
	}
	for i := 0; i < 3; i++ {
		if !reflect.DeepEqual(a.Batch(i), b.Batch(i)) {
			t.Errorf("same seed, batch %d differs", i)
		}
		if reflect.DeepEqual(a.Batch(i), c.Batch(i)) {
			t.Errorf("different seeds, batch %d equal", i)
		}
	}
}

func TestScanInputsAreDirty(t *testing.T) {
	in := genScan(3)
	distinct := map[string]bool{}
	for _, s := range append(append([]string(nil), in.Left...), in.Right...) {
		distinct[s] = true
	}
	// The working set the scan tables are sized for: about 3k
	// distinct strings over 4096 rows.
	if n := len(distinct); n < 2500 || n > 3500 {
		t.Errorf("%d distinct strings, want about 3000", n)
	}
}

func TestMatchNovelShare(t *testing.T) {
	m := newMatchStream(5)
	seen := map[string]bool{}
	for _, s := range m.Catalog {
		seen[s] = true
	}
	for i := 0; i < 12; i++ {
		b := m.Batch(i)
		if len(b) != matchRows {
			t.Fatalf("batch %d has %d rows", i, len(b))
		}
		recent := map[string]bool{}
		for j := i - matchRecent; j < i; j++ {
			if j >= 0 {
				for _, s := range m.Batch(j) {
					recent[s] = true
				}
			}
		}
		novel := 0
		for _, s := range b {
			switch {
			case !seen[s]:
				novel++
				seen[s] = true
			case i > 0 && !recent[s]:
				t.Errorf("batch %d repeats %q from before the last %d batches", i, s, matchRecent)
			}
		}
		// Batch 0 has no earlier batch, so its repeats come from itself.
		if novel != matchNovel {
			t.Errorf("batch %d: %d novel rows, want %d of %d", i, novel, matchNovel, matchRows)
		}
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	const rate = 100 // a request due every 10ms
	reqs := make([]sample, 4)
	stall := 120 * time.Millisecond
	out := openLoop(context.Background(), 1, rate, reqs, func(ctx context.Context, conn int, s *sample) ([]match, error) {
		if s.Due == 0 {
			time.Sleep(stall) // the first request stalls the only connection
		}
		return nil, nil
	})
	for i, s := range out {
		if want := dueAt(i, rate); s.Due != want {
			t.Errorf("request %d due at %v, want %v", i, s.Due, want)
		}
		if s.Queued < s.Due {
			t.Errorf("request %d released at %v, before its due time %v", i, s.Queued, s.Due)
		}
	}
	// Request 1 waited behind the stall: its latency runs from its due
	// time, not from when a connection took it.
	s := out[1]
	if s.Latency() < stall-dueAt(1, rate) {
		t.Errorf("request 1 latency %v, want at least %v", s.Latency(), stall-dueAt(1, rate))
	}
	if s.Done-s.Sent > stall/2 {
		t.Errorf("request 1 service time %v should be short", s.Done-s.Sent)
	}
}

func TestCycleQPSIsMedianCycleRate(t *testing.T) {
	// One client, cycles of two requests. Cycle rates are 2/0.2 s, 2/0.4 s
	// (one slow request) and 1/0.2 s (one wrong answer); a trailing
	// partial cycle is left out.
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := [][2]int{{0, 100}, {100, 200}, {200, 500}, {500, 600}, {600, 700}, {700, 800}, {800, 900}}
	samples := make([]sample, len(spans))
	for i, sp := range spans {
		samples[i] = sample{Due: ms(sp[0]), Done: ms(sp[1])}
	}
	ok := []bool{true, true, true, true, true, false, true}
	if got, want := cycleQPS(samples, ok, 2, 1), 5.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("cycleQPS = %v, want the median cycle rate %v", got, want)
	}
	// A stall as long as the rest of the window moves one cycle, not the
	// median.
	samples[2].Done, samples[3].Due, samples[3].Done = ms(5000), ms(5000), ms(5100)
	if got, want := cycleQPS(samples, ok, 2, 1), 5.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("after a stall cycleQPS = %v, want %v", got, want)
	}
}

// toySims builds exact similarities over a few unit vectors.
func toySims() *simMatrix {
	left := [][]float64{{1, 0, 0}, {0, 1, 0}, {0.6, 0.8, 0}}
	right := [][]float64{{1, 0, 0}, {0.8, 0.6, 0}, {0, 0, 1}, {0, 0.96, 0.28}}
	return exactSims(left, right)
}

// answer is the exact threshold join over sims.
func answer(sims *simMatrix, thr float64) []match {
	var out []match
	for i := 0; i < sims.rows; i++ {
		for j := 0; j < sims.cols; j++ {
			if sims.at(i, j) >= thr {
				out = append(out, match{Left: i, Right: j, Sim: float32(sims.at(i, j))})
			}
		}
	}
	return out
}

func TestVerifierRejectsDroppedOrAlteredMatch(t *testing.T) {
	sims := toySims()
	good := answer(sims, 0.7)
	if len(good) < 3 {
		t.Fatalf("toy answer too small: %v", good)
	}
	if why := checkThreshold(sims, sims.rows, 0.7, simEps, good); why != "" {
		t.Fatalf("exact answer rejected: %s", why)
	}
	mutate := map[string]func([]match) []match{
		"dropped":      func(m []match) []match { return m[1:] },
		"altered sim":  func(m []match) []match { m[0].Sim -= 0.01; return m },
		"altered pair": func(m []match) []match { m[0].Right = (m[0].Right + 2) % sims.cols; return m },
		"repeated":     func(m []match) []match { return append(m, m[0]) },
		"extra":        func(m []match) []match { return append(m, match{Left: 0, Right: 2, Sim: 0}) },
	}
	for name, f := range mutate {
		bad := f(append([]match(nil), good...))
		if why := checkThreshold(sims, sims.rows, 0.7, simEps, bad); why == "" {
			t.Errorf("threshold check accepted a %s match", name)
		}
	}

	// Top-1: each left row's best right row.
	var top []match
	for i := 0; i < sims.rows; i++ {
		row := make([]int, sims.cols)
		for j := range row {
			row[j] = j
		}
		sort.Slice(row, func(a, b int) bool { return sims.at(i, row[a]) > sims.at(i, row[b]) })
		top = append(top, match{Left: i, Right: row[0], Sim: float32(sims.at(i, row[0]))})
	}
	if why := checkTopK(sims, sims.rows, 1, simEps, top); why != "" {
		t.Fatalf("exact top-1 rejected: %s", why)
	}
	for name, f := range map[string]func([]match) []match{
		"dropped":      func(m []match) []match { return m[1:] },
		"altered pair": func(m []match) []match { m[0].Right = 2; return m },
		"altered sim":  func(m []match) []match { m[1].Sim += 0.01; return m },
	} {
		if why := checkTopK(sims, sims.rows, 1, simEps, f(append([]match(nil), top...))); why == "" {
			t.Errorf("top-k check accepted a %s match", name)
		}
	}
}

func TestQuantizedToleranceAtThreshold(t *testing.T) {
	sims := toySims()
	// Pair (2,3) scores 0.768: inside a 0.02 tolerance band around 0.75
	// it may be present or absent, outside it must follow the threshold.
	exact := answer(sims, 0.75)
	var without []match
	for _, m := range exact {
		if m.Left != 2 || m.Right != 3 {
			without = append(without, m)
		}
	}
	if len(without) == len(exact) {
		t.Fatal("toy pair (2,3) not in the answer")
	}
	if why := checkThreshold(sims, sims.rows, 0.75, 0.02, without); why != "" {
		t.Errorf("boundary pair absent within tolerance rejected: %s", why)
	}
	if why := checkThreshold(sims, sims.rows, 0.75, 0.01, without); why == "" {
		t.Error("boundary pair absent outside tolerance accepted")
	}
}

func TestShardedMustMatchReference(t *testing.T) {
	sims := toySims()
	good := answer(sims, scanShapes[0].Threshold)
	if len(good) < 2 {
		t.Fatalf("toy answer too small: %v", good)
	}
	v := &verifier{sims: sims, ref: map[int][32]byte{0: digest(good)}}
	reordered := append([]match{good[1], good[0]}, good[2:]...)
	wrong := v.check([]sample{{Shape: 0, Matches: good}, {Shape: 0, Matches: reordered}})
	if wrong[0] != "" {
		t.Errorf("reference answer rejected: %s", wrong[0])
	}
	if wrong[1] == "" {
		t.Error("an answer differing from the reference in order was accepted")
	}
}
