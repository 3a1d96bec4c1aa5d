package obs

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"
)

// FuzzTSDBQuery drives the /debug/tsdb handler with arbitrary query
// parameters over a store holding one counter and one histogram: every
// answer is 200 or 400, never a panic or another status.
func FuzzTSDBQuery(f *testing.F) {
	reg := NewRegistry()
	clock := newFakeClock()
	db := NewTSDB(TSDBConfig{
		Registry: reg,
		Tiers:    []Tier{{Step: time.Second, Slots: 8}, {Step: 10 * time.Second, Slots: 4}},
		Clock:    clock.Now,
	})
	for i := 0; i < 12; i++ {
		reg.Counter("fuzz.ops").Add(int64(i))
		reg.Histogram("fuzz.ms").Observe(float64(i))
		db.Sample()
		clock.Advance(time.Second)
	}
	h := db.Handler()

	f.Add("fuzz.ops", "30s", "raw", "")
	f.Add("fuzz.ops", "1700000000000", "rate", "")
	f.Add("fuzz.ms", "5m", "p99", "30s")
	f.Add("fuzz.ms", "", "p50", "1ns")
	f.Add("fuzz.ms", "-1", "pNaN", "1m")
	f.Add("fuzz.ms", "9223372036854775807", "p1e308", "2562047h")
	f.Add("", "", "", "")
	f.Fuzz(func(t *testing.T, name, since, agg, window string) {
		q := url.Values{}
		for k, v := range map[string]string{"name": name, "since": since, "agg": agg, "window": window} {
			if v != "" {
				q.Set(k, v)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/tsdb?"+q.Encode(), nil))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("?%s answered %d, want 200 or 400", q.Encode(), rec.Code)
		}
	})
}

func TestTSDBRejectsNaNPercentile(t *testing.T) {
	db := NewTSDB(TSDBConfig{Registry: NewRegistry(), Tiers: []Tier{{Step: time.Second, Slots: 4}}})
	for _, agg := range []string{"pNaN", "pnan", "p0", "p100", "p-1", "pInf"} {
		rec := httptest.NewRecorder()
		db.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/tsdb?name=x&agg="+agg, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("agg=%s answered %d, want 400", agg, rec.Code)
		}
	}
}
