package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// hostInfo describes the machine and build a result came from.
type hostInfo struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	FMAGflops  float64 `json:"fma_gflops,omitempty"`
	CopyGBps   float64 `json:"copy_gbps,omitempty"`
}

func describeHost() hostInfo {
	return hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit("."),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from root/.git without running git,
// so nothing outside the checkout is consulted; "unknown" outside a
// repository.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}

// fmaProbe is the scalar multiply-add ceiling of pure Go on this machine,
// in GFLOP/s, on threads goroutines: eight independent float32
// accumulator chains, best of five rounds.
func fmaProbe(threads int) float64 {
	const iters = 1 << 24
	best := 0.0
	for round := 0; round < 5; round++ {
		var wg sync.WaitGroup
		start := time.Now()
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sink[t%len(sink)] = fmaChains(iters)
			}()
		}
		wg.Wait()
		flops := float64(threads) * iters * 8 * 2
		if g := flops / time.Since(start).Seconds() / 1e9; g > best {
			best = g
		}
	}
	return best
}

// sink keeps the probes' results live.
var sink [64]float32

func fmaChains(n int) float32 {
	a0, a1, a2, a3, a4, a5, a6, a7 := float32(1), float32(2), float32(3), float32(4), float32(5), float32(6), float32(7), float32(8)
	const m, c = 0.999999, 1e-7
	for i := 0; i < n; i++ {
		a0 = a0*m + c
		a1 = a1*m + c
		a2 = a2*m + c
		a3 = a3*m + c
		a4 = a4*m + c
		a5 = a5*m + c
		a6 = a6*m + c
		a7 = a7*m + c
	}
	return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
}

// copyProbe is a STREAM-style copy bandwidth in GB/s (bytes read plus
// bytes written), best of five rounds over 32 MiB buffers.
func copyProbe() float64 {
	const n = 32 << 20
	src, dst := make([]byte, n), make([]byte, n)
	for i := range src {
		src[i] = byte(i)
	}
	best := 0.0
	for round := 0; round < 5; round++ {
		start := time.Now()
		copy(dst, src)
		if g := 2 * n / time.Since(start).Seconds() / 1e9; g > best {
			best = g
		}
	}
	sink[0] = float32(dst[n-1])
	return best
}
