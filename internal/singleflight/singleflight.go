// Package singleflight coalesces concurrent identical fetches: when N
// callers ask for the same key at once, one flight does the work and all
// N share the result. The stack uses it so a burst of clients browsing
// to the same view set costs one depot fetch, not N (the shared-cache
// coalescing argument of the network-data-cache literature).
//
// Unlike a bare duplicate-suppression map, the flight runs under a
// context DETACHED from any single caller: values (trace context) are
// inherited from the first caller, but its cancellation is not. A caller
// that gives up stops waiting immediately and gets its own ctx.Err();
// the flight keeps running for the remaining waiters and is cancelled
// only when the last waiter leaves. One impatient client can therefore
// never kill the fetch everyone else is riding on.
//
// Two ways in share that rule. Do blocks for the result (the edge cache's
// extent fills). Join returns at once with the flight's shared state, so a
// caller can use what the flight has produced so far — the client agent's
// streaming readers — and Wait for the end, or not, on its own schedule.
package singleflight

import (
	"context"
	"sync"
)

// flight is one in-progress call shared by its waiters.
type flight[V any] struct {
	done    chan struct{} // closed when err (and, for Do, val) is set
	cancel  context.CancelFunc
	waiters int
	val     V
	err     error
}

// Group coalesces calls by key. The zero value is ready to use.
type Group[K comparable, V any] struct {
	mu      sync.Mutex
	flights map[K]*flight[V]
}

// Call is one caller's membership of a flight. The flight counts the
// caller as waiting until it ends the membership with Wait or Leave —
// exactly one of them, once.
type Call[K comparable, V any] struct {
	// Shared reports whether another caller had started the flight.
	Shared bool

	g   *Group[K, V]
	key K
	f   *flight[V]
}

// Do returns fn's result for key. Concurrent calls with the same key
// share one execution of fn; shared reports whether this caller joined
// a flight another caller started. fn runs under a context that
// inherits the leader's values but detaches from every caller's
// cancellation; it is cancelled when the last waiter abandons the
// flight. A caller whose own ctx ends while waiting returns its
// ctx.Err() immediately without disturbing the flight.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (v V, shared bool, err error) {
	var zero V
	c := g.join(ctx, key, zero, func(fctx context.Context, f *flight[V]) (err error) {
		f.val, err = fn(fctx)
		return err
	})
	if err := c.Wait(ctx); err != nil {
		return zero, c.Shared, err
	}
	return c.f.val, c.Shared, nil
}

// Join enters the flight for key without blocking, starting it when none
// is running: the flight then carries state and executes run(fctx, state)
// under the detached context Do describes. Every caller that joins while
// it runs reads the same state from Call.Value — the starter's; a
// joiner's own state argument is dropped — so state is where run
// publishes what callers may use before the flight has finished.
func (g *Group[K, V]) Join(ctx context.Context, key K, state V, run func(context.Context, V) error) Call[K, V] {
	return g.join(ctx, key, state, func(fctx context.Context, f *flight[V]) error {
		return run(fctx, f.val)
	})
}

func (g *Group[K, V]) join(ctx context.Context, key K, val V, run func(context.Context, *flight[V]) error) Call[K, V] {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[K]*flight[V])
	}
	f := g.flights[key]
	shared := f != nil
	if f == nil {
		fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		f = &flight[V]{done: make(chan struct{}), cancel: cancel, val: val}
		g.flights[key] = f
		go g.run(key, f, fctx, run)
	}
	f.waiters++
	g.mu.Unlock()
	return Call[K, V]{Shared: shared, g: g, key: key, f: f}
}

// run executes the flight and publishes its result.
func (g *Group[K, V]) run(key K, f *flight[V], fctx context.Context, run func(context.Context, *flight[V]) error) {
	err := run(fctx, f)
	g.mu.Lock()
	f.err = err
	// Later callers start a fresh flight: results are not cached here
	// (the agent's LRU is the cache); only concurrency is coalesced.
	if g.flights[key] == f {
		delete(g.flights, key)
	}
	g.mu.Unlock()
	close(f.done)
	f.cancel() // release the detached context's resources
}

// Value returns the state the flight was started with.
func (c Call[K, V]) Value() V { return c.f.val }

// Done is closed when the flight has finished.
func (c Call[K, V]) Done() <-chan struct{} { return c.f.done }

// Wait blocks until the flight finishes and returns its error, or until
// ctx ends and returns ctx.Err(); either way the caller has left.
func (c Call[K, V]) Wait(ctx context.Context) error {
	defer c.Leave()
	select {
	case <-c.f.done:
		return c.f.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Leave unregisters the caller; the last one to abandon a still-running
// flight cancels it (nobody wants the result anymore) and unlinks it so
// the next caller starts fresh.
func (c Call[K, V]) Leave() {
	g, f := c.g, c.f
	g.mu.Lock()
	f.waiters--
	finished := false
	select {
	case <-f.done:
		finished = true
	default:
	}
	abandon := f.waiters == 0 && !finished
	if abandon && g.flights[c.key] == f {
		delete(g.flights, c.key)
	}
	g.mu.Unlock()
	if abandon {
		f.cancel()
	}
}
