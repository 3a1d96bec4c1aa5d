package dvs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// startDVS serves a directory under parent ("" for a root). set, if any,
// configures the server before it serves: its fields are not to be written
// once connections may read them.
func startDVS(t *testing.T, parent string, set ...func(*Server)) (*Server, *Client) {
	t.Helper()
	s := NewServer(parent)
	for _, f := range set {
		f(s)
	}
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, &Client{Addr: addr}
}

func TestPutGetWire(t *testing.T) {
	_, cl := startDVS(t, "")
	key := Key{Dataset: "neghip", ViewSet: "r01c02"}
	xml := []byte("<exnode name=\"r01c02\" length=\"0\"></exnode>")
	if err := cl.Put(context.Background(), key, xml); err != nil {
		t.Fatal(err)
	}
	reps, err := cl.Get(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || string(reps[0]) != string(xml) {
		t.Errorf("got %d replicas: %q", len(reps), reps)
	}
	// Second Put appends a replica.
	if err := cl.Put(context.Background(), key, []byte("<exnode/>")); err != nil {
		t.Fatal(err)
	}
	reps, err = cl.Get(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Errorf("replicas = %d, want 2", len(reps))
	}
}

func TestGetMiss(t *testing.T) {
	_, cl := startDVS(t, "")
	_, err := cl.Get(context.Background(), Key{Dataset: "d", ViewSet: "none"})
	if !errors.Is(err, ErrMiss) {
		t.Errorf("miss error = %v", err)
	}
}

func TestPutValidation(t *testing.T) {
	s := NewServer("")
	if err := s.Put(Key{}, []byte("x")); err == nil {
		t.Error("empty key accepted")
	}
	if err := s.Put(Key{Dataset: "d", ViewSet: "v"}, nil); err == nil {
		t.Error("empty exnode accepted")
	}
}

func TestAgentTable(t *testing.T) {
	_, cl := startDVS(t, "")
	if _, err := cl.AgentFor(context.Background(), "neghip"); !errors.Is(err, ErrMiss) {
		t.Errorf("agent miss = %v", err)
	}
	if err := cl.RegisterAgent(context.Background(), "neghip", "agent:7000"); err != nil {
		t.Fatal(err)
	}
	addr, err := cl.AgentFor(context.Background(), "neghip")
	if err != nil || addr != "agent:7000" {
		t.Errorf("agent = %q, %v", addr, err)
	}
}

func TestHierarchicalResolution(t *testing.T) {
	// root holds the data; leaf forwards to root and caches.
	root, rootCl := startDVS(t, "")
	key := Key{Dataset: "neghip", ViewSet: "r05c07"}
	xml := []byte("<exnode name=\"x\" length=\"0\"></exnode>")
	if err := root.Put(key, xml); err != nil {
		t.Fatal(err)
	}
	leaf, leafCl := startDVS(t, rootCl.Addr)
	reps, err := leafCl.Get(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || string(reps[0]) != string(xml) {
		t.Fatalf("hierarchical get = %q", reps)
	}
	// The leaf cached the answer: a direct local lookup now hits.
	if local := leaf.lookupLocal(key); len(local) != 1 {
		t.Error("leaf did not cache the parent's answer")
	}
	// DESIGN.md property: hierarchical lookup equals flat lookup.
	flat, err := rootCl.Get(context.Background(), key)
	if err != nil || string(flat[0]) != string(reps[0]) {
		t.Error("hierarchical and flat lookups diverge")
	}
}

func TestThreeLevelHierarchy(t *testing.T) {
	root, rootCl := startDVS(t, "")
	_, midCl := startDVS(t, rootCl.Addr)
	_, leafCl := startDVS(t, midCl.Addr)
	key := Key{Dataset: "d", ViewSet: "deep"}
	if err := root.Put(key, []byte("<exnode/>")); err != nil {
		t.Fatal(err)
	}
	reps, err := leafCl.Get(context.Background(), key)
	if err != nil || len(reps) != 1 {
		t.Fatalf("3-level resolution: %v, %d", err, len(reps))
	}
	// Full-hierarchy miss propagates as MISS.
	if _, err := leafCl.Get(context.Background(), Key{Dataset: "d", ViewSet: "nope"}); !errors.Is(err, ErrMiss) {
		t.Errorf("deep miss = %v", err)
	}
}

func TestOnDemandGeneration(t *testing.T) {
	root, rootCl := startDVS(t, "")
	var mu sync.Mutex
	calls := 0
	root.Generate = func(ctx context.Context, agentAddr string, key Key) ([]byte, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		if agentAddr != "sa:9" {
			return nil, fmt.Errorf("wrong agent %q", agentAddr)
		}
		return []byte("<exnode generated=\"1\"/>"), nil
	}
	if err := root.RegisterAgent("neghip", "sa:9"); err != nil {
		t.Fatal(err)
	}
	key := Key{Dataset: "neghip", ViewSet: "r09c09"}
	reps, err := rootCl.Get(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || string(reps[0]) != "<exnode generated=\"1\"/>" {
		t.Fatalf("generated = %q", reps)
	}
	// Second query hits the table, no second generation.
	if _, err := rootCl.Get(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Errorf("generator called %d times", calls)
	}
}

func TestOnDemandGenerationFailure(t *testing.T) {
	root, rootCl := startDVS(t, "")
	root.Generate = func(ctx context.Context, agentAddr string, key Key) ([]byte, error) {
		return nil, errors.New("render farm on fire")
	}
	root.RegisterAgent("d", "sa:1")
	_, err := rootCl.Get(context.Background(), Key{Dataset: "d", ViewSet: "v"})
	if err == nil || errors.Is(err, ErrMiss) {
		t.Errorf("generation failure = %v", err)
	}
}

func TestResolveContextCancel(t *testing.T) {
	s := NewServer("")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cl := &Client{Addr: "127.0.0.1:1"}
	if _, err := cl.Get(ctx, Key{Dataset: "d", ViewSet: "v"}); err == nil {
		t.Error("canceled get succeeded")
	}
	_ = s
}

func TestParentUnreachable(t *testing.T) {
	leaf := NewServer("127.0.0.1:1") // nothing listens there
	leaf.Timeout = 500 * time.Millisecond
	_, err := leaf.Resolve(context.Background(), Key{Dataset: "d", ViewSet: "v"})
	if err == nil {
		t.Error("resolve with dead parent succeeded")
	}
}

func TestConcurrentPutsAndGets(t *testing.T) {
	_, cl := startDVS(t, "")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := Key{Dataset: "d", ViewSet: fmt.Sprintf("vs%02d", g)}
			if err := cl.Put(context.Background(), key, []byte("<exnode/>")); err != nil {
				t.Error(err)
				return
			}
			if _, err := cl.Get(context.Background(), key); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
}

func TestReplaceDropsPriorReplicas(t *testing.T) {
	_, cl := startDVS(t, "")
	key := Key{Dataset: "neghip", ViewSet: "r01c02"}
	old := []byte("<exnode name=\"old\" length=\"0\"></exnode>")
	older := []byte("<exnode name=\"older\" length=\"0\"></exnode>")
	for _, xml := range [][]byte{older, old} {
		if err := cl.Put(context.Background(), key, xml); err != nil {
			t.Fatal(err)
		}
	}

	// Replace must leave exactly one replica: the new document. This is
	// the republish path after replica repair — resolvers use the first
	// replica, so appending a repaired exNode would leave them on the
	// stale layout forever.
	repaired := []byte("<exnode name=\"repaired\" length=\"0\"></exnode>")
	if err := cl.Replace(context.Background(), key, repaired); err != nil {
		t.Fatal(err)
	}
	reps, err := cl.Get(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || string(reps[0]) != string(repaired) {
		t.Errorf("after replace: %d replicas, first %q", len(reps), reps[0])
	}

	// Replace on a key that never existed behaves like a first Put.
	fresh := Key{Dataset: "neghip", ViewSet: "r09c09"}
	if err := cl.Replace(context.Background(), fresh, repaired); err != nil {
		t.Fatal(err)
	}
	if reps, err := cl.Get(context.Background(), fresh); err != nil || len(reps) != 1 {
		t.Errorf("replace-as-first-put: %d replicas, err %v", len(reps), err)
	}
}

func TestReplaceValidation(t *testing.T) {
	s := NewServer("")
	if err := s.Replace(Key{Dataset: "d", ViewSet: "v"}, nil); err == nil {
		t.Error("empty document accepted")
	}
	if err := s.Replace(Key{}, []byte("<exnode/>")); err == nil {
		t.Error("empty key accepted")
	}
}
