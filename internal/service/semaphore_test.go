package service

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestByteSemaphoreFastPath(t *testing.T) {
	s := NewByteSemaphore(100)
	waited, err := s.Acquire(context.Background(), 60)
	if err != nil || waited {
		t.Fatalf("fast path: waited=%v err=%v", waited, err)
	}
	if s.InUse() != 60 {
		t.Errorf("in use = %d, want 60", s.InUse())
	}
	s.Release(60)
	if s.InUse() != 0 {
		t.Errorf("in use after release = %d, want 0", s.InUse())
	}
}

func TestByteSemaphoreOversized(t *testing.T) {
	s := NewByteSemaphore(10)
	if _, err := s.Acquire(context.Background(), 11); err == nil {
		t.Fatal("weight above capacity accepted")
	}
}

func TestByteSemaphoreBlocksAndWakes(t *testing.T) {
	s := NewByteSemaphore(100)
	if _, err := s.Acquire(context.Background(), 80); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		waited, err := s.Acquire(context.Background(), 50)
		if err != nil {
			t.Error(err)
		}
		if !waited {
			t.Error("second acquire should have waited")
		}
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("second acquire proceeded past capacity")
	default:
	}
	s.Release(80)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never woke after release")
	}
	if s.Waiting() != 0 {
		t.Errorf("waiting = %d, want 0", s.Waiting())
	}
}

func TestByteSemaphoreFIFO(t *testing.T) {
	s := NewByteSemaphore(10)
	if _, err := s.Acquire(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Acquire(context.Background(), 10); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			s.Release(10)
		}(i)
		// Serialize enqueue order so FIFO is observable.
		for s.Waiting() != i+1 {
			time.Sleep(time.Millisecond)
		}
	}
	s.Release(10)
	wg.Wait()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("wake order = %v, want [0 1 2]", order)
	}
}

// TestByteSemaphoreCancelUnblocksSmallerWaiter: removing a cancelled
// FIFO-head waiter must immediately admit smaller requests queued behind
// it, not leave them parked until the next Release.
func TestByteSemaphoreCancelUnblocksSmallerWaiter(t *testing.T) {
	s := NewByteSemaphore(10)
	if _, err := s.Acquire(context.Background(), 8); err != nil {
		t.Fatal(err)
	}
	bigCtx, cancelBig := context.WithCancel(context.Background())
	bigErr := make(chan error, 1)
	go func() {
		_, err := s.Acquire(bigCtx, 9)
		bigErr <- err
	}()
	for s.Waiting() != 1 {
		time.Sleep(time.Millisecond)
	}
	smallDone := make(chan struct{})
	go func() {
		if _, err := s.Acquire(context.Background(), 2); err != nil {
			t.Error(err)
		}
		close(smallDone)
	}()
	for s.Waiting() != 2 {
		time.Sleep(time.Millisecond)
	}
	cancelBig()
	if err := <-bigErr; err == nil {
		t.Fatal("cancelled big waiter got the semaphore")
	}
	select {
	case <-smallDone:
	case <-time.After(2 * time.Second):
		t.Fatal("small waiter stayed blocked after the big waiter left")
	}
}

func TestByteSemaphoreCancelWhileWaiting(t *testing.T) {
	s := NewByteSemaphore(10)
	if _, err := s.Acquire(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Acquire(ctx, 5)
		errc <- err
	}()
	for s.Waiting() != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("cancelled waiter got the semaphore")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter never returned")
	}
	if s.Waiting() != 0 {
		t.Errorf("waiting = %d after cancellation, want 0", s.Waiting())
	}
	// The budget must be fully recoverable.
	s.Release(10)
	if waited, err := s.Acquire(context.Background(), 10); err != nil || waited {
		t.Errorf("post-cancel acquire: waited=%v err=%v", waited, err)
	}
}
