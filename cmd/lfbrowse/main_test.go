package main

import (
	"testing"

	"lonviz/internal/agent"
)

// TestPrefetchPolicy: unset, -prefetch is path, but quadrant under -serve,
// whose clients' moves interleave on one agent; a value given is kept.
func TestPrefetchPolicy(t *testing.T) {
	for _, tc := range []struct {
		name    string
		serving bool
		want    agent.PrefetchPolicy
		on      bool
	}{
		{"", false, agent.PrefetchPath, true},
		{"", true, agent.PrefetchQuadrant, true},
		{"path", true, agent.PrefetchPath, true},
		{"quadrant", false, agent.PrefetchQuadrant, true},
		{"off", true, 0, false},
	} {
		got, on, err := prefetchPolicy(tc.name, tc.serving)
		if err != nil || got != tc.want || on != tc.on {
			t.Errorf("prefetchPolicy(%q, serving %v) = %v, %v, %v; want %v, %v", tc.name, tc.serving, got, on, err, tc.want, tc.on)
		}
	}
	for _, name := range []string{"neighbors", "sideways"} {
		if _, _, err := prefetchPolicy(name, false); err == nil {
			t.Errorf("prefetchPolicy(%q) accepted", name)
		}
	}
}
