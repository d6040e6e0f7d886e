// Command perfbench is the repository benchmark. It builds nothing itself
// (run.sh builds ejserve and this command), boots ejserve per workload,
// drives it over loopback HTTP, checks every answer, and prints one JSON
// result as the last line of standard output:
//
//	perfbench -server ejserve -work DIR --workload join-scan --seed 1 --seconds 30 --trace 0
//
// With --trace 1 it instead replays the workload's requests one at a time
// in process and reports per-layer metrics; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: join-scan, sharded-scan or fresh-match")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 30, "measured window in seconds")
		trace   = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
		bin     = flag.String("server", "", "path of the ejserve binary")
		work    = flag.String("work", "", "scratch directory")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *bin == "" || *work == "" {
		return fmt.Errorf("-server and -work are required")
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	workDir, err := filepath.Abs(*work)
	if err != nil {
		return err
	}
	e := env{ServerBin: *bin, Work: workDir, Seed: *seed, Window: time.Duration(*seconds) * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	host := describeHost()
	var res *result
	if *trace == 1 {
		res, err = tracedRun(ctx, e, w, &host)
	} else {
		res, err = loadRun(ctx, e, w)
	}
	if err != nil {
		return err
	}
	hb, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", hb)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
