package slo

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseRules feeds arbitrary bytes to the -slo-config parser: it must
// not panic, every rule it accepts must validate, and the accepted set
// must survive a JSON round trip unchanged.
func FuzzParseRules(f *testing.F) {
	defaults, err := json.Marshal(ruleFile{Rules: DefaultRules()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(defaults)
	f.Add([]byte(`[{"name":"q","kind":"latency_quantile","metric":"m","quantile":0.9,"threshold_ms":1,"window":"10s","for":5}]`))
	f.Add([]byte(`[{"name":"b","kind":"burn_rate","error_metric":"e","total_metric":"t","objective":0.99,"fast_window":"1m","slow_window":600,"fast_burn":14,"slow_burn":6}]`))
	f.Add([]byte(`{"rules":[{"name":"g","kind":"gauge_threshold","metric":"m","min_value":1,"scope":"fleet","severity":"critical"}]}`))
	f.Add([]byte(`[{"name":"e","kind":"error_rate","error_metric":"e","total_metric":"t","max_ratio":0.1,"window":1e300}]`))
	f.Fuzz(func(t *testing.T, b []byte) {
		rules, err := ParseRules(b)
		if err != nil {
			return
		}
		for i := range rules {
			r := rules[i]
			if err := r.Validate(); err != nil {
				t.Fatalf("accepted rule %d does not validate: %v", i, err)
			}
		}
		out, err := json.Marshal(ruleFile{Rules: rules})
		if err != nil {
			t.Fatalf("marshal accepted rules: %v", err)
		}
		again, err := ParseRules(out)
		if err != nil {
			t.Fatalf("accepted rules do not parse back: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(again, rules) {
			t.Fatalf("round trip changed the rules:\n got %+v\nwant %+v", again, rules)
		}
	})
}
