// Package singleflight deduplicates concurrent identical work: while
// one caller computes the result for a key, later callers with the
// same key block and receive the same result instead of re-running the
// (expensive, deterministic) computation. It is the one singleflight
// of the serving stack — tpserved's per-artefact runs, the cluster's
// forwarding hop and session restores all use it. A minimal
// reimplementation of golang.org/x/sync/singleflight — the module is
// standard-library only.
package singleflight

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrPanic marks an fn panic that Do recovered and converted to an
// error shared with every waiter on the key.
var ErrPanic = errors.New("panicked")

// Group runs fn once per key among concurrent callers. The zero value
// is ready to use.
type Group[T any] struct {
	mu     sync.Mutex
	flight map[string]*call[T]
	shared atomic.Uint64 // calls served by someone else's run
	panics atomic.Uint64 // fn panics converted to errors
}

type call[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// Do runs fn once per key among concurrent callers. The boolean reports
// whether this caller shared another caller's result. Results are not
// kept once the flight lands: the next call for the key runs fn again.
//
// Do is a panic-isolation boundary: cleanup (deleting the flight entry
// and closing done) runs in a defer, so even a panicking fn leaves the
// key retryable and unblocks every waiter — the panic is converted to
// an ErrPanic-wrapped error shared with all of them. Without this, one
// panic would wedge the key forever: every later call for it would
// block on a done channel nobody will ever close.
func (g *Group[T]) Do(key string, fn func() (T, error)) (val T, err error, shared bool) {
	g.mu.Lock()
	if g.flight == nil {
		g.flight = make(map[string]*call[T])
	}
	if c, ok := g.flight[key]; ok {
		g.mu.Unlock()
		<-c.done
		g.shared.Add(1)
		return c.val, c.err, true
	}
	c := &call[T]{done: make(chan struct{})}
	g.flight[key] = c
	g.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			g.panics.Add(1)
			var zero T
			c.val, c.err = zero, fmt.Errorf("singleflight: fn %w: %v", ErrPanic, r)
		}
		g.mu.Lock()
		delete(g.flight, key)
		g.mu.Unlock()
		close(c.done)
		val, err = c.val, c.err
	}()
	c.val, c.err = fn()
	return c.val, c.err, false
}

// Shared returns the number of calls that were answered by another
// caller's in-flight run.
func (g *Group[T]) Shared() uint64 { return g.shared.Load() }

// Panics returns the number of fn panics converted to errors.
func (g *Group[T]) Panics() uint64 { return g.panics.Load() }

// InFlight returns the number of keys with a run in progress. Once all
// callers have returned it must be 0; a wedged key would stay counted.
func (g *Group[T]) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.flight)
}
