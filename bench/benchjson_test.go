package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFileMatchesCommand fails when a workload, metric name, unit,
// direction or bound in BENCHMARK.json differs from what the command emits.
func TestBenchmarkFileMatchesCommand(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
	if len(f.Command) != 2 || f.Command[0] != "bash" || f.Command[1] != "bench/run.sh" {
		t.Errorf("command = %v, want [bash bench/run.sh]", f.Command)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", f.RunSeconds)
	}

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the command", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := f.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: file has %q (%q), command has %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}

	compare := func(kind string, file, cmd []metricSpec) {
		if len(file) != len(cmd) {
			t.Fatalf("%s: %d metrics in the file, %d in the command", kind, len(file), len(cmd))
		}
		for i := range cmd {
			if file[i] != cmd[i] {
				t.Errorf("%s metric %d: file has %+v, command has %+v", kind, i, file[i], cmd[i])
			}
		}
	}
	compare("end_to_end", f.EndToEnd, endToEnd)
	compare("per_layer", f.PerLayer, perLayer)
}

func TestBenchmarkFileNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q has characters outside letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
	}
	setup := false
	for _, s := range endToEnd {
		check(s.Name)
		if !unit.MatchString(s.Unit) {
			t.Errorf("%s: unit %q", s.Name, s.Unit)
		}
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better %q", s.Name, s.Better)
		}
		setup = setup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, s := range perLayer {
		check(s.Name)
		if !unit.MatchString(s.Unit) {
			t.Errorf("%s: unit %q", s.Name, s.Unit)
		}
		if s.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", s.Name)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better %q", s.Name, s.Better)
		}
	}
}
