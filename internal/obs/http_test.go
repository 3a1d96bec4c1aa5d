package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMetricsEndpointJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests").Add(42)
	r.Histogram(Label(MIBPOpMs, "op", "LOAD"), LatencyBucketsMs...).Observe(3.5)
	r.RegisterSnapshot("agent", func() map[string]float64 {
		return map[string]float64{"cache.hit_rate": 0.75}
	})
	tr := NewTracer(8)
	_, s := tr.StartSpan(context.Background(), "root")
	s.Finish()

	srv := httptest.NewServer(NewMux(ServeOptions{Registry: r, Tracer: tr}))
	defer srv.Close()

	body := get(t, srv.URL+"/metrics")
	var snap map[string]any
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, body)
	}
	if snap["requests"] != 42.0 {
		t.Fatalf("counter missing: %v", snap)
	}
	hist, ok := snap["ibp.op.ms{op=LOAD}"].(map[string]any)
	if !ok {
		t.Fatalf("histogram missing: %v", snap)
	}
	for _, k := range []string{"count", "sum", "p50", "p95", "p99", "buckets"} {
		if _, ok := hist[k]; !ok {
			t.Fatalf("histogram snapshot missing %q: %v", k, hist)
		}
	}
	if snap["agent.cache.hit_rate"] != 0.75 {
		t.Fatalf("snapshot bridge missing: %v", snap)
	}

	// /debug/traces dumps completed spans.
	traces := get(t, srv.URL+"/debug/traces")
	var spans []map[string]any
	if err := json.Unmarshal(traces, &spans); err != nil {
		t.Fatalf("/debug/traces is not JSON: %v\n%s", err, traces)
	}
	if len(spans) != 1 || spans[0]["name"] != "root" {
		t.Fatalf("traces = %v", spans)
	}

	// /debug/pprof/ responds with the profile index.
	if !strings.Contains(string(get(t, srv.URL+"/debug/pprof/")), "goroutine") {
		t.Fatal("/debug/pprof/ must serve the pprof index")
	}

	if strings.TrimSpace(string(get(t, srv.URL+"/healthz"))) != "ok" {
		t.Fatal("/healthz must answer ok")
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	defer SetPropagation(false)
	r := NewRegistry()
	r.Counter("x").Inc()
	srv, err := Serve("127.0.0.1:0", ServeOptions{Registry: r, Tracer: NewTracer(4)})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if !PropagationEnabled() {
		t.Fatal("Serve must enable trace propagation")
	}
	body := get(t, "http://"+srv.Addr()+"/metrics")
	var snap map[string]any
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	if snap["x"] != 1.0 {
		t.Fatalf("snapshot = %v", snap)
	}
	if err := srv.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Close is nil-safe so commands can hold a handle unconditionally.
	var nilSrv *Server
	if err := nilSrv.Close(context.Background()); err != nil {
		t.Fatalf("nil close: %v", err)
	}
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return body
}
