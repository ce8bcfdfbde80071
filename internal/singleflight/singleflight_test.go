package singleflight

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestPanicLeavesKeyRetryable is the wedged-key regression test: Do
// used to skip its cleanup when fn panicked, so the flight entry stayed
// in the map with a done channel nobody would ever close — every later
// request for that key blocked forever. Now cleanup runs in a defer and
// the panic is converted to an ErrPanic error.
func TestPanicLeavesKeyRetryable(t *testing.T) {
	var g Group[[]byte]

	entered := make(chan struct{})
	proceed := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err, _ := g.Do("k", func() ([]byte, error) {
			close(entered)
			<-proceed
			panic("boom")
		})
		leaderErr <- err
	}()
	<-entered

	// Join the in-flight call as a waiter, then let the leader panic.
	// (If this goroutine loses the race and arrives after cleanup it
	// runs fn itself, which is equally correct — the key is live.)
	waiter := make(chan error, 1)
	go func() {
		_, err, _ := g.Do("k", func() ([]byte, error) { return []byte("fresh"), nil })
		waiter <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(proceed)

	if err := <-leaderErr; !errors.Is(err, ErrPanic) {
		t.Fatalf("leader error = %v, want ErrPanic", err)
	}
	select {
	case err := <-waiter:
		if err != nil && !errors.Is(err, ErrPanic) {
			t.Fatalf("waiter error = %v, want nil or the shared ErrPanic", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after the panicking flight — key wedged")
	}

	// The key must be retryable: a later call runs fn again and
	// succeeds instead of blocking on the dead flight.
	done := make(chan struct{})
	go func() {
		body, err, _ := g.Do("k", func() ([]byte, error) { return []byte("retry ok"), nil })
		if err != nil || string(body) != "retry ok" {
			t.Errorf("retry after panic = %q, %v", body, err)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("retry after panicking flight blocked — key wedged")
	}

	if n := g.InFlight(); n != 0 {
		t.Errorf("%d flight entries leaked", n)
	}
	if g.Panics() != 1 {
		t.Errorf("panics counter = %d, want 1", g.Panics())
	}
}

// TestErrorSharedNotCached: an fn error reaches every waiter of that
// flight, is not remembered, and the next call for the key runs fn
// again.
func TestErrorSharedNotCached(t *testing.T) {
	var g Group[int]
	boom := errors.New("boom")

	release := make(chan struct{})
	const waiters = 8
	var mu sync.Mutex
	calls := 0
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i], _ = g.Do("k", func() (int, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				<-release
				return 0, boom
			})
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d error = %v, want boom", i, err)
		}
	}
	if got := uint64(calls) + g.Shared(); got != waiters {
		t.Fatalf("runs %d + shared %d != %d callers", calls, g.Shared(), waiters)
	}

	v, err, shared := g.Do("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 || shared {
		t.Fatalf("call after failed flight = %d, %v, shared=%t; want a fresh run returning 7", v, err, shared)
	}
	if n := g.InFlight(); n != 0 {
		t.Errorf("%d flight entries leaked", n)
	}
	if g.Panics() != 0 {
		t.Errorf("panics counter = %d, want 0", g.Panics())
	}
}
