package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lonviz/internal/obs"
)

// TestSmokeAllWorkloads runs the four workloads at toy size — one traced
// and one untraced pass of 1.2 s each, think 0 — and checks that both result lines
// carry exactly the metrics BENCHMARK.json names, with no failed op.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole benchmark at toy size")
	}
	if err := obs.ConfigureDefaultLogger("error", "kv"); err != nil {
		t.Fatal(err)
	}
	ws := append([]workload(nil), workloads...)
	for i := range ws {
		ws[i].passes, ws[i].think = 2, 0
	}
	out := t.TempDir()
	start := time.Now()
	results, err := run(context.Background(), ws, toy, 3, 2.4*smokeSlowdown, true, out)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("toy benchmark took %v", time.Since(start))
	if len(results) != len(workloads) {
		t.Fatalf("%d results for %d workloads", len(results), len(workloads))
	}

	// A per-layer metric reads 0 on a workload that does not exercise it,
	// but some workload must exercise it — except the error counts, which
	// are 0 on a healthy run; coalescing, which is a race; evictions, which
	// the toy database (smaller than the agent cache) never causes; the
	// spread of the single untraced pass; and the overhead ratio, which
	// noise can push below 0.
	mayStayZero := map[string]bool{
		"agent.stage_errors": true, "lors.failed_attempts": true, "lors.checksum_errors": true,
		"agent.coalesced_per_op": true, "agent.cache_evictions_per_op": true,
		"pass_spread": true, "trace.overhead_ratio": true,
	}
	positive := make(map[string]bool)
	for _, r := range results {
		name := r.workload.name
		if r.failed != 0 || r.attempted < minTailSamples {
			t.Errorf("%s: %d ops attempted, %d failed", name, r.attempted, r.failed)
		}
		layerLine, err := r.line()
		if err != nil {
			t.Fatal(err)
		}
		checkLine(t, name, layerLine, perLayer)
		for n, v := range layerLine.Metrics {
			if v.Value < 0 && n != "trace.overhead_ratio" {
				t.Errorf("%s: %s = %v is negative", name, n, v.Value)
			}
			positive[n] = positive[n] || v.Value > 0
		}
		untraced := *r
		untraced.layer = nil
		e2eLine, err := untraced.line()
		if err != nil {
			t.Fatal(err)
		}
		checkLine(t, name, e2eLine, endToEnd)
		for n, v := range e2eLine.Metrics {
			if !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, v.Value)
			}
		}
		data, err := os.ReadFile(filepath.Join(out, "trace_"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("trace_%s.json: %v", name, err)
		}
		if tf.Workload != name || len(tf.Spans) == 0 {
			t.Errorf("trace_%s.json: workload %q, %d spans", name, tf.Workload, len(tf.Spans))
		}
	}
	for _, s := range perLayer {
		if !positive[s.Name] && !mayStayZero[s.Name] {
			t.Errorf("per-layer metric %s is 0 on every workload", s.Name)
		}
	}
}

// checkLine asserts that a result line has each of the specs' metrics once,
// finite and in the declared unit, and nothing else.
func checkLine(t *testing.T, workload string, l resultLine, specs []metricSpec) {
	t.Helper()
	if len(l.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics printed, %d declared", workload, len(l.Metrics), len(specs))
	}
	for _, s := range specs {
		v, ok := l.Metrics[s.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is not printed", workload, s.Name)
		case v.Unit != s.Unit:
			t.Errorf("%s: %s printed in %q, declared in %q", workload, s.Name, v.Unit, s.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s = %v", workload, s.Name, v.Value)
		}
	}
	// The line must survive the trip through JSON unchanged in shape.
	data, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]json.RawMessage
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := back[key]; !ok {
			t.Errorf("%s: result line lacks %q", workload, key)
		}
	}
	if len(back) != 4 {
		t.Errorf("%s: result line has %d keys, want 4", workload, len(back))
	}
}
