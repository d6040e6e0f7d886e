package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// env is what every run shares: where the server binary is and where
// scratch files go.
type env struct {
	ServerBin string
	Work      string // scratch root, inside the checkout
	Seed      uint64
	Window    time.Duration
}

// deployment is one booted server with its workload's data ingested and
// warmed.
type deployment struct {
	Srv     *server
	DataDir string
	Scan    scanInputs
	Stream  *matchStream
	// NextBatch is the first fresh-match batch the warm-up did not use.
	NextBatch int
}

func (d *deployment) close() {
	d.Srv.stop()
	if d.DataDir != "" {
		_ = os.RemoveAll(d.DataDir)
	}
}

// scanWarmSQL embeds every distinct string of l and r once, so the store
// is warm, with two selective joins rather than the full-size shapes.
var scanWarmSQL = []string{
	"SELECT * FROM l JOIN r ON SIM(l.name, r.title) >= 0.8 WHERE l.id < 256",
	"SELECT * FROM r JOIN l ON SIM(r.title, l.name) >= 0.8 WHERE r.id < 256",
}

// setUp boots a server for w, ingests the workload's tables and warms it:
// the scan workloads embed every string once; fresh-match sends batches
// until the store is full and evicting. The returned duration is the
// set-up time.
func setUp(ctx context.Context, e env, w workload, rep int) (*deployment, time.Duration, error) {
	d := &deployment{}
	if w.Durable {
		d.DataDir = filepath.Join(e.Work, "tmp", fmt.Sprintf("%s-%d-%d", w.Name, os.Getpid(), rep))
		if err := os.RemoveAll(d.DataDir); err != nil {
			return nil, 0, err
		}
		if err := os.MkdirAll(d.DataDir, 0o755); err != nil {
			return nil, 0, err
		}
	}
	if w.OpenLoopRate > 0 {
		d.Stream = newMatchStream(e.Seed)
	} else {
		d.Scan = genScan(e.Seed)
	}
	logPath := filepath.Join(e.Work, fmt.Sprintf("ejserve-%s.log", w.Name))

	start := time.Now()
	srv, err := bootServer(e.ServerBin, serverArgs(w, d.DataDir), logPath)
	if err != nil {
		if d.DataDir != "" {
			_ = os.RemoveAll(d.DataDir)
		}
		return nil, 0, err
	}
	d.Srv = srv
	if err := d.ingestAndWarm(ctx); err != nil {
		d.close()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

func (d *deployment) ingestAndWarm(ctx context.Context) error {
	if d.Stream == nil {
		for _, t := range scanTables(d.Scan) {
			if err := d.Srv.createTable(ctx, t); err != nil {
				return fmt.Errorf("ingesting %s: %w", t.Name, err)
			}
		}
		for _, sql := range scanWarmSQL {
			if _, err := d.Srv.query(ctx, sql); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	}
	if err := d.Srv.createTable(ctx, catalogTable(d.Stream)); err != nil {
		return fmt.Errorf("ingesting catalog: %w", err)
	}
	for i := 0; ; i++ {
		if i == 1000 {
			return fmt.Errorf("store not evicting after %d warm-up batches", i)
		}
		if _, err := d.matchRequest(ctx, 0, d.Stream.Batch(i)); err != nil {
			return fmt.Errorf("warm-up batch %d: %w", i, err)
		}
		st, err := d.Srv.stats(ctx)
		if err != nil {
			return err
		}
		if st.store().Evictions > 0 {
			d.NextBatch = i + 1
			return nil
		}
	}
}

// matchRequest is one fresh-match request on connection conn: replace the
// connection's probe table with batch, then match it against the catalog.
func (d *deployment) matchRequest(ctx context.Context, conn int, batch []string) ([]match, error) {
	table := fmt.Sprintf("probe%d", conn)
	if err := d.Srv.createTable(ctx, probeTable(table, batch)); err != nil {
		return nil, err
	}
	return d.Srv.query(ctx, matchShape.withLeft(table).SQL())
}

// setupReps is how many times a run sets up, reporting the median.
const setupReps = 3

// loadRun measures w's end-to-end metrics over loopback HTTP.
func loadRun(ctx context.Context, e env, w workload) (*result, error) {
	runStart := time.Now()
	var setups []float64
	var d *deployment
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.close()
		}
		var took time.Duration
		var err error
		d, took, err = setUp(ctx, e, w, rep)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		setups = append(setups, took.Seconds())
	}
	defer d.close()

	windowStart := time.Now()
	var samples []sample
	if w.OpenLoopRate > 0 {
		n := int(w.OpenLoopRate * e.Window.Seconds())
		if n < minSamples {
			n = minSamples
		}
		reqs := make([]sample, n)
		for i := range reqs {
			reqs[i] = sample{Shape: len(allShapes) - 1, Batch: d.NextBatch + i}
			d.Stream.Batch(reqs[i].Batch) // generate outside the window
		}
		samples = openLoop(ctx, w.Clients, w.OpenLoopRate, reqs, func(ctx context.Context, conn int, s *sample) ([]match, error) {
			return d.matchRequest(ctx, conn, d.Stream.batches[s.Batch])
		})
	} else {
		sqls := make([]string, len(scanShapes))
		for i, s := range scanShapes {
			sqls[i] = s.SQL()
		}
		samples = closedLoop(ctx, w.Clients, e.Window, func(c, i int) sample {
			return sample{Shape: (c + i) % len(scanShapes), Batch: -1}
		}, func(ctx context.Context, conn int, s *sample) ([]match, error) {
			return d.Srv.query(ctx, sqls[s.Shape])
		})
	}
	rss, err := d.Srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Everything below is outside the measured window.
	verifyStart := time.Now()
	v, err := newVerifier(ctx, e, w, d)
	if err != nil {
		return nil, fmt.Errorf("verifier: %w", err)
	}
	wrong := v.check(samples)
	fmt.Fprintf(os.Stderr, "phases: set-up %.1f s, window %.1f s, verify %.1f s\n",
		windowStart.Sub(runStart).Seconds(), verifyStart.Sub(windowStart).Seconds(), time.Since(verifyStart).Seconds())

	if err := dumpSamples(e, w, samples, wrong); err != nil {
		return nil, err
	}

	var lat []float64
	var end time.Duration
	failed := 0
	okAt := make([]bool, len(samples))
	for i, s := range samples {
		okAt[i] = s.Err == nil && wrong[i] == ""
		if !okAt[i] {
			failed++
			if s.Err != nil {
				fmt.Fprintf(os.Stderr, "request %d (%s): %v\n", i, allShapes[s.Shape].Name, s.Err)
			} else {
				fmt.Fprintf(os.Stderr, "request %d (%s): wrong answer: %s\n", i, allShapes[s.Shape].Name, wrong[i])
			}
		}
		// A failed request misses every latency limit.
		l := s.Latency()
		if !okAt[i] {
			l = time.Duration(1<<62 - 1)
		}
		lat = append(lat, ms(l))
		if s.Done > end {
			end = s.Done
		}
	}
	sort.Float64s(lat)
	p50, _ := percentile(lat, 0.50)
	p95, beyond := percentile(lat, 0.95)
	attempted := len(samples)
	ok := attempted - failed

	// An open loop's qps stays at the offered rate while the server keeps
	// up; a closed loop's is the median rate over its cycles.
	qps := float64(ok) / end.Seconds()
	if w.OpenLoopRate == 0 {
		qps = cycleQPS(samples, okAt, len(scanShapes), w.Clients)
	}

	summary(w, samples, setups, beyond)
	res := &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"qps":            {qps, "1/s"},
			"latency_p50_ms": {p50, "ms"},
			"latency_p95_ms": {p95, "ms"},
			"setup_s":        {median(setups), "s"},
			"peak_rss_mb":    {rss, "MiB"},
			"ok_frac":        {float64(ok) / float64(attempted), "frac"},
		},
	}
	return res, nil
}

// summary prints the per-shape breakdown and the sample count behind the
// percentiles to standard error.
func summary(w workload, samples []sample, setups []float64, beyond int) {
	byShape := map[int][]float64{}
	matches := map[int]int{}
	var late []float64
	for _, s := range samples {
		byShape[s.Shape] = append(byShape[s.Shape], ms(s.Latency()))
		matches[s.Shape] += len(s.Matches)
		late = append(late, ms(s.Queued-s.Due))
	}
	fmt.Fprintf(os.Stderr, "%s: %d samples, %d beyond p95; set-ups %.3v s\n", w.Name, len(samples), beyond, setups)
	for i := range allShapes {
		if l := byShape[i]; len(l) > 0 {
			fmt.Fprintf(os.Stderr, "  %-12s n=%-4d median %7.1f ms, %d matches per answer\n", allShapes[i].Name, len(l), median(l), matches[i]/len(l))
		}
	}
	if w.OpenLoopRate > 0 {
		sort.Float64s(late)
		fmt.Fprintf(os.Stderr, "  generator lateness: median %.3f ms, max %.3f ms\n", median(late), late[len(late)-1])
	}
}

// cycleQPS is a closed loop's throughput, robust to a slow stretch of the
// window: each client's requests are cut into consecutive cycles of
// cycle requests (one of each shape), a cycle's rate is its correct
// answers over the time from its first send to its last answer, and the
// result is the median cycle rate times the number of clients. Samples
// are in completion order, which is each client's send order.
func cycleQPS(samples []sample, ok []bool, cycle, clients int) float64 {
	perClient := make([][]int, clients)
	for i, s := range samples {
		perClient[s.Client] = append(perClient[s.Client], i)
	}
	var rates []float64
	for _, idx := range perClient {
		for lo := 0; lo+cycle <= len(idx); lo += cycle {
			n := 0
			for _, i := range idx[lo : lo+cycle] {
				if ok[i] {
					n++
				}
			}
			d := samples[idx[lo+cycle-1]].Done - samples[idx[lo]].Due
			rates = append(rates, float64(n)/d.Seconds())
		}
	}
	return median(rates) * float64(clients)
}

// dumpSamples writes every request's timing and verdict to
// samples-<workload>-<seed>.json in the scratch directory, for looking
// at a run's time series after the fact.
func dumpSamples(e env, w workload, samples []sample, wrong []string) error {
	type row struct {
		Client  int     `json:"client"`
		Shape   string  `json:"shape"`
		DueMS   float64 `json:"due_ms"`
		SentMS  float64 `json:"sent_ms"`
		DoneMS  float64 `json:"done_ms"`
		Matches int     `json:"matches"`
		Problem string  `json:"problem,omitempty"`
	}
	rows := make([]row, len(samples))
	for i, s := range samples {
		rows[i] = row{s.Client, allShapes[s.Shape].Name, ms(s.Due), ms(s.Sent), ms(s.Done), len(s.Matches), wrong[i]}
		if s.Err != nil {
			rows[i].Problem = s.Err.Error()
		}
	}
	b, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.Work, fmt.Sprintf("samples-%s-%d.json", w.Name, e.Seed)), b, 0o644)
}
