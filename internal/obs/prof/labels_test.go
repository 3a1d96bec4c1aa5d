package prof

import (
	"context"
	"runtime/pprof"
	"testing"
)

// TestLabelsOffPathAllocs pins the acceptance contract: with the label
// gate off (the -metrics-addr-unset path) the fixed-arity wrappers on
// the wire-hot serve loops are zero-alloc no-ops, so unobserved
// deployments pay nothing per request.
func TestLabelsOffPathAllocs(t *testing.T) {
	if labelsOn.Load() {
		t.Fatal("label gate unexpectedly on at test start")
	}
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		lctx := Begin1(ctx, KeyClass, "ibp")
		End(ctx)
		lctx = Begin2(ctx, KeyClass, "ibp", KeyVerb, "LOAD")
		End(ctx)
		lctx = Begin3(ctx, KeyClass, "ibp_client", KeyVerb, "STORE", KeyDepot, "d:1")
		End(ctx)
		_ = lctx
	}); n != 0 {
		t.Errorf("Begin/End allocs while disabled = %v, want 0", n)
	}
}

// TestBeginOffPathReturnsSameContext: with the gate off the wrappers
// must not even wrap the context.
func TestBeginOffPathReturnsSameContext(t *testing.T) {
	SetLabelsEnabled(false)
	ctx := context.Background()
	if lctx := Begin2(ctx, KeyClass, "x", KeyVerb, "y"); lctx != ctx {
		t.Error("Begin2 wrapped the context with the gate off")
	}
	ran := false
	Do(ctx, func(c context.Context) {
		ran = true
		if c != ctx {
			t.Error("Do wrapped the context with the gate off")
		}
	}, KeyClass, "x")
	if !ran {
		t.Error("Do did not call fn with the gate off")
	}
}

// TestBeginAppliesAndEndRestoresLabels exercises the on path: Begin
// labels the goroutine (visible on the returned context), nested Begins
// merge, and End(preBeginCtx) restores the previous label set.
func TestBeginAppliesAndEndRestoresLabels(t *testing.T) {
	SetLabelsEnabled(true)
	t.Cleanup(func() { SetLabelsEnabled(false) })

	ctx := context.Background()
	lctx := Begin2(ctx, KeyClass, "ibp", KeyVerb, "LOAD")
	if v, ok := pprof.Label(lctx, KeyClass); !ok || v != "ibp" {
		t.Fatalf("class label = %q,%v, want ibp,true", v, ok)
	}
	if v, _ := pprof.Label(lctx, KeyVerb); v != "LOAD" {
		t.Fatalf("verb label = %q, want LOAD", v)
	}

	// Nested Begin on the labeled context merges; End back to lctx then
	// back to the original restores each layer.
	l2 := Begin1(lctx, KeyDepot, "127.0.0.1:6714")
	if v, _ := pprof.Label(l2, KeyClass); v != "ibp" {
		t.Errorf("nested Begin dropped outer class label, got %q", v)
	}
	if v, _ := pprof.Label(l2, KeyDepot); v != "127.0.0.1:6714" {
		t.Errorf("nested depot label = %q", v)
	}
	End(lctx)
	End(ctx)

	// The goroutine's label set is observable through a fresh WithLabels
	// round trip only indirectly; assert via Do, whose callback context
	// must carry exactly the pairs it was given once End has run.
	Do(ctx, func(c context.Context) {
		if v, _ := pprof.Label(c, KeyClass); v != "render" {
			t.Errorf("Do ctx class = %q, want render", v)
		}
		if _, ok := pprof.Label(c, KeyDepot); ok {
			t.Error("Do ctx carries a stale depot label after End")
		}
	}, KeyClass, "render")
}

// TestDoRestoresOnReturn: after Do returns, a subsequent Begin from the
// clean context must not see the closure's labels.
func TestDoRestoresOnReturn(t *testing.T) {
	SetLabelsEnabled(true)
	t.Cleanup(func() { SetLabelsEnabled(false) })

	ctx := context.Background()
	Do(ctx, func(c context.Context) {}, KeyClass, "agent_fetch", KeyVerb, "wan")
	lctx := Begin1(ctx, KeyClass, "steward_repair")
	defer End(ctx)
	if _, ok := pprof.Label(lctx, KeyVerb); ok {
		t.Error("verb label leaked out of Do into the next Begin")
	}
}
