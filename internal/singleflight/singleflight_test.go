package singleflight

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoCoalescesConcurrentCalls(t *testing.T) {
	var g Group[string, int]
	var calls atomic.Int32
	gate := make(chan struct{})

	const n = 16
	var wg sync.WaitGroup
	results := make([]int, n)
	sharedCount := atomic.Int32{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := g.Do(context.Background(), "k", func(context.Context) (int, error) {
				calls.Add(1)
				<-gate
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			if shared {
				sharedCount.Add(1)
			}
			results[i] = v
		}(i)
	}
	// Let all callers pile onto the flight, then release it.
	for g.inFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("caller %d got %d", i, v)
		}
	}
	if sharedCount.Load() == 0 {
		t.Fatal("no caller reported shared")
	}
	if g.inFlight() != 0 {
		t.Fatal("flight not unlinked after completion")
	}
}

func TestDoDistinctKeysRunIndependently(t *testing.T) {
	var g Group[int, string]
	var calls atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := g.Do(context.Background(), i, func(context.Context) (string, error) {
				calls.Add(1)
				return fmt.Sprint(i), nil
			})
			if err != nil || v != fmt.Sprint(i) {
				t.Errorf("key %d: %q %v", i, v, err)
			}
		}(i)
	}
	wg.Wait()
	if calls.Load() != 8 {
		t.Fatalf("calls = %d, want 8", calls.Load())
	}
}

// TestCancellerDoesNotKillFlight is the ctx-detach contract: the caller
// that STARTED the flight cancels; the second caller still gets the
// result, and the flight's context stays live throughout.
func TestCancellerDoesNotKillFlight(t *testing.T) {
	var g Group[string, int]
	started := make(chan struct{})
	release := make(chan struct{})
	flightCancelled := atomic.Bool{}

	ctx1, cancel1 := context.WithCancel(context.Background())
	errs := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx1, "k", func(fctx context.Context) (int, error) {
			close(started)
			<-release
			if fctx.Err() != nil {
				flightCancelled.Store(true)
			}
			return 7, nil
		})
		errs <- err
	}()
	<-started

	// Second caller joins the same flight.
	got := make(chan int, 1)
	joinErr := make(chan error, 1)
	go func() {
		v, shared, err := g.Do(context.Background(), "k", func(context.Context) (int, error) {
			t.Error("second caller started its own flight")
			return 0, nil
		})
		if !shared {
			t.Error("second caller did not share the flight")
		}
		got <- v
		joinErr <- err
	}()
	for g.inFlight() != 1 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond) // let the second caller register

	// The leader gives up: it must return immediately with its ctx.Err.
	cancel1()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceller returned %v, want context.Canceled", err)
	}

	// The flight, however, keeps running for the second caller.
	close(release)
	if err := <-joinErr; err != nil {
		t.Fatalf("surviving waiter: %v", err)
	}
	if v := <-got; v != 7 {
		t.Fatalf("surviving waiter got %d", v)
	}
	if flightCancelled.Load() {
		t.Fatal("flight ctx was cancelled by a single departing caller")
	}
}

// TestLastWaiterCancelsFlight: when EVERY caller abandons, the flight's
// detached context is cancelled so it stops burning depot capacity.
func TestLastWaiterCancelsFlight(t *testing.T) {
	var g Group[string, int]
	started := make(chan struct{})
	ctxSeen := make(chan context.Context, 1)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", func(fctx context.Context) (int, error) {
			ctxSeen <- fctx
			close(started)
			<-fctx.Done()
			return 0, fctx.Err()
		})
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning caller returned %v", err)
	}
	fctx := <-ctxSeen
	select {
	case <-fctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("flight ctx not cancelled after last waiter left")
	}
	if g.inFlight() != 0 {
		t.Fatal("abandoned flight still linked")
	}
}

// TestConcurrentCancellationStorm hammers join/cancel races under -race:
// many callers with short staggered deadlines against a slow flight,
// repeated across rounds; survivors must always get the value, quitters
// their own ctx error, and the group must end fully drained.
func TestConcurrentCancellationStorm(t *testing.T) {
	var g Group[int, int]
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctx := context.Background()
				if i%2 == 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i)*time.Millisecond)
					defer cancel()
				}
				v, _, err := g.Do(ctx, round, func(fctx context.Context) (int, error) {
					select {
					case <-time.After(20 * time.Millisecond):
						return round, nil
					case <-fctx.Done():
						return 0, fctx.Err()
					}
				})
				if err == nil && v != round {
					t.Errorf("round %d caller %d got %d", round, i, v)
				}
				if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
					t.Errorf("round %d caller %d: %v", round, i, err)
				}
			}(i)
		}
		wg.Wait()
	}
	// Flights may briefly outlive their last waiter; drain before the
	// leak check.
	deadline := time.Now().Add(2 * time.Second)
	for g.inFlight() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g.inFlight() != 0 {
		t.Fatalf("%d flights leaked", g.inFlight())
	}
}

// inFlight counts the keys being fetched; only these tests need it.
func (g *Group[K, V]) inFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.flights)
}

// TestJoinSharesStarterState: Join returns before the flight ends, every
// joiner reads the state of the caller that started it, and Leave by all of
// them cancels the flight exactly as abandoning a Do does.
func TestJoinSharesStarterState(t *testing.T) {
	var g Group[string, *atomic.Int32]
	release := make(chan struct{})
	run := func(fctx context.Context, st *atomic.Int32) error {
		st.Store(1) // published while the flight is still running
		select {
		case <-release:
			return nil
		case <-fctx.Done():
			return fctx.Err()
		}
	}
	lead := g.Join(context.Background(), "k", new(atomic.Int32), run)
	follow := g.Join(context.Background(), "k", new(atomic.Int32), func(context.Context, *atomic.Int32) error {
		t.Error("a joiner's run was executed")
		return nil
	})
	if lead.Shared || !follow.Shared {
		t.Fatalf("shared = %v, %v; want false, true", lead.Shared, follow.Shared)
	}
	if lead.Value() != follow.Value() {
		t.Fatal("joiner does not see the starter's state")
	}
	for follow.Value().Load() != 1 {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-follow.Done():
		t.Fatal("flight finished before it was released")
	default:
	}

	// One caller leaves: the flight carries on for the other.
	lead.Leave()
	close(release)
	if err := follow.Wait(context.Background()); err != nil {
		t.Fatalf("surviving joiner: %v", err)
	}

	// Everyone leaves a running flight: it is cancelled and unlinked.
	release = make(chan struct{})
	only := g.Join(context.Background(), "k", new(atomic.Int32), run)
	only.Leave()
	select {
	case <-only.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("flight not cancelled after its last caller left")
	}
	if g.inFlight() != 0 {
		t.Fatal("abandoned flight still linked")
	}
}
