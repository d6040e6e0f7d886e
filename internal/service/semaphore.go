package service

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// Admission is the admission controller: execution slots bound CPU
// oversubscription, and a ByteSemaphore over estimated footprints bounds
// memory pressure. The engine admits each query through one; the shard
// router admits a whole fan-out (the sum of its per-pair footprints) as
// one unit through its own, so N scatter streams cannot overcommit memory
// the way N independently admitted queries could.
type Admission struct {
	slots chan struct{}
	bytes *ByteSemaphore
}

// NewAdmission returns a controller with maxConcurrent slots and a
// budget of capacity bytes.
func NewAdmission(maxConcurrent int, capacity int64) *Admission {
	return &Admission{slots: make(chan struct{}, maxConcurrent), bytes: NewByteSemaphore(capacity)}
}

// Admit acquires one execution slot and weight bytes of budget, in that
// order, reporting whether either had to wait. The returned release
// undoes both.
func (a *Admission) Admit(ctx context.Context, weight int64) (release func(), waited bool, err error) {
	select {
	case a.slots <- struct{}{}:
	default:
		waited = true
		select {
		case a.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, true, fmt.Errorf("service: admission wait aborted: %w", ctx.Err())
		}
	}
	bytesWaited, err := a.bytes.Acquire(ctx, weight)
	if err != nil {
		<-a.slots
		return nil, waited || bytesWaited, err
	}
	return func() {
		a.bytes.Release(weight)
		<-a.slots
	}, waited || bytesWaited, nil
}

// InUse is the currently admitted weight.
func (a *Admission) InUse() int64 { return a.bytes.InUse() }

// Waiting is the number of queries queued for bytes.
func (a *Admission) Waiting() int { return a.bytes.Waiting() }

// ByteSemaphore is a context-aware weighted semaphore: the admission
// controller's ledger of estimated intermediate bytes. Waiters are served
// FIFO so a stream of small queries cannot starve a large one.
type ByteSemaphore struct {
	capacity int64

	mu      sync.Mutex
	cur     int64
	waiters list.List // of *byteWaiter, FIFO
}

type byteWaiter struct {
	n     int64
	ready chan struct{} // closed when the weight is granted
}

// NewByteSemaphore returns a ledger of capacity bytes.
func NewByteSemaphore(capacity int64) *ByteSemaphore {
	return &ByteSemaphore{capacity: capacity}
}

// Acquire blocks until n bytes of budget are available or ctx is done,
// reporting whether it had to wait. n larger than the whole capacity is
// an error (the caller clamps).
func (s *ByteSemaphore) Acquire(ctx context.Context, n int64) (waited bool, err error) {
	if n < 0 {
		n = 0
	}
	if n > s.capacity {
		return false, fmt.Errorf("service: admission weight %d exceeds capacity %d", n, s.capacity)
	}
	s.mu.Lock()
	if s.cur+n <= s.capacity && s.waiters.Len() == 0 {
		s.cur += n
		s.mu.Unlock()
		return false, nil
	}
	w := &byteWaiter{n: n, ready: make(chan struct{})}
	el := s.waiters.PushBack(w)
	s.mu.Unlock()

	select {
	case <-w.ready:
		return true, nil
	case <-ctx.Done():
		s.mu.Lock()
		select {
		case <-w.ready:
			// Granted while we were cancelling: give the weight back so
			// the accounting stays balanced (the caller sees the error
			// and will not Release).
			s.cur -= w.n
			s.notifyLocked()
		default:
			s.waiters.Remove(el)
			// The departed waiter may have been blocking the FIFO head:
			// smaller requests queued behind it could fit right now.
			s.notifyLocked()
		}
		s.mu.Unlock()
		return true, fmt.Errorf("service: admission wait aborted: %w", ctx.Err())
	}
}

// Release returns n bytes of budget and wakes admissible waiters.
func (s *ByteSemaphore) Release(n int64) {
	if n < 0 {
		n = 0
	}
	s.mu.Lock()
	s.cur -= n
	if s.cur < 0 {
		s.cur = 0
	}
	s.notifyLocked()
	s.mu.Unlock()
}

// InUse is the currently admitted weight.
func (s *ByteSemaphore) InUse() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// Waiting is the number of queued waiters.
func (s *ByteSemaphore) Waiting() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiters.Len()
}

// notifyLocked grants budget to waiters in FIFO order while it fits.
func (s *ByteSemaphore) notifyLocked() {
	for {
		front := s.waiters.Front()
		if front == nil {
			return
		}
		w := front.Value.(*byteWaiter)
		if s.cur+w.n > s.capacity {
			return
		}
		s.cur += w.n
		s.waiters.Remove(front)
		close(w.ready)
	}
}
