package main

import (
	"context"
	"sync"
	"time"
)

// sample is one timed request. Times are offsets from the start of the
// measured window.
type sample struct {
	Client int // the closed-loop client or open-loop connection that sent it
	Shape  int // index into allShapes
	Batch  int // fresh-match probe batch; -1 for the scan workloads
	// Due is when the request was due to be sent: the send time in a
	// closed loop, the schedule slot in an open loop. Latency runs from
	// Due, so a stall also counts against the requests queued behind it.
	Due, Queued, Sent, Done time.Duration
	Err                     error
	Matches                 []match
}

func (s sample) Latency() time.Duration { return s.Done - s.Due }

// issueFunc sends one request on connection conn and returns its matches.
type issueFunc func(ctx context.Context, conn int, s *sample) ([]match, error)

// closedLoop runs clients that each send their next request as soon as
// the previous one returns, until the window has passed and at least
// minSamples requests completed. next picks the i-th request of a client.
func closedLoop(ctx context.Context, clients int, window time.Duration, next func(client, i int) sample, issue issueFunc) []sample {
	t0 := time.Now()
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	enough := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return time.Since(t0) >= window && len(samples) >= minSamples
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !enough() && ctx.Err() == nil; i++ {
				s := next(c, i)
				s.Client = c
				s.Due = time.Since(t0)
				s.Queued, s.Sent = s.Due, s.Due
				s.Matches, s.Err = issue(ctx, c, &s)
				s.Done = time.Since(t0)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return samples
}

// openLoop sends reqs on a fixed schedule, request i due at i/rate, over
// conns connections. A request waits for a free connection; its latency
// still counts from its due time. Queued records when the generator
// released it, so Queued-Due is how late the generator itself ran.
func openLoop(ctx context.Context, conns int, rate float64, reqs []sample, issue issueFunc) []sample {
	t0 := time.Now()
	out := make([]sample, len(reqs))
	// One slot per request, so the scheduler never blocks on a busy
	// connection and queueing shows up as latency, not as a late send.
	queue := make(chan int, len(reqs))
	queued := make([]time.Duration, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range queue {
				s := reqs[i]
				s.Client = c
				s.Due = dueAt(i, rate)
				s.Queued = queued[i]
				s.Sent = time.Since(t0)
				s.Matches, s.Err = issue(ctx, c, &s)
				s.Done = time.Since(t0)
				out[i] = s
			}
		}(c)
	}
	for i := range reqs {
		if d := time.Until(t0.Add(dueAt(i, rate))); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		queued[i] = time.Since(t0)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// dueAt is request i's slot in an open loop at rate requests per second.
func dueAt(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}
