// Command bench is the repository's benchmark: four workloads, six
// end-to-end metrics each, and a traced mode that adds per-layer readings.
// BENCHMARK.json at the repository root declares what it prints; README.md
// in this directory explains the choices.
//
//	bash bench/run.sh --workload lan_browse --seed 1 --seconds 20 --trace 0
//
// prints a table and, as the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --workload all it
// runs every workload, their passes interleaved, and prints one such line
// per workload. With -aa N it runs everything N times and compares the
// runs with each other.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"time"

	"lonviz/internal/obs"
)

// rig is a deployment a pass leaves open for the layer probes.
type rig interface {
	Close()
	// probe calls layer functions directly on the deployment's own data
	// and stores what it measured under per-layer metric names.
	probe(ctx context.Context, layer map[string]float64) error
}

// runResult is one workload's answer for one run.
type runResult struct {
	workload          workload
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64 // traced runs only
	passSpread        float64
}

func runPass(ctx context.Context, w workload, sz size, seed int64, dur time.Duration, traced bool) (*passResult, rig, error) {
	if w.browse {
		return browsePass(ctx, w, sz, seed, dur, traced)
	}
	return depotPass(ctx, sz, seed, dur, traced)
}

// passMetrics derives one pass's end-to-end metrics.
func passMetrics(w workload, r *passResult) (map[string]float64, error) {
	tail, err := tail10(r.opMs)
	if err != nil {
		return nil, fmt.Errorf("%s: %d ops in a pass: %w", w.name, len(r.opMs), err)
	}
	// Throughput is the sum over the load generators; each one's clock
	// stops while it sleeps between ops.
	var rate float64
	for k, n := range r.done {
		rate += opsPerSecond(n, r.wall, r.think[k])
	}
	done := float64(len(r.opMs))
	return map[string]float64{
		"setup_s":           r.setupS,
		"op_ms_mean":        mean(r.opMs),
		"op_ms_tail10":      tail,
		"ops_per_s":         rate,
		"cpu_ms_per_op":     ratio(r.cpuMs, done),
		"origin_kib_per_op": ratio(float64(r.originBytes)/1024, done),
	}, nil
}

// passCount is how many passes a run of w makes. A traced run alternates
// traced and untraced passes, so it needs as many of one as of the other.
func passCount(w workload, traced bool) int {
	if traced {
		return w.passes + w.passes%2
	}
	return w.passes
}

// run executes the workloads' passes round-robin, so that a slow period of
// a shared machine lands on at most a pass or two of each workload, and
// folds each workload's passes into medians. A traced run traces every
// other pass, starting with the second, so that the tracing overhead is
// read from interleaved passes, and runs the layer probes on the last
// pass's deployment: no measured pass of the workload comes after them.
func run(ctx context.Context, ws []workload, sz size, seed int64, seconds float64, traced bool, outDir string) ([]*runResult, error) {
	passes := make([][]*passResult, len(ws))
	probed := make([]map[string]float64, len(ws))
	for i := 0; ; i++ {
		ran := false
		for k, w := range ws {
			n := passCount(w, traced)
			if i >= n {
				continue
			}
			ran = true
			dur := time.Duration(seconds / float64(n) * float64(time.Second))
			tracedPass := traced && i%2 == 1
			r, rg, err := runPass(ctx, w, sz, seed, dur, tracedPass)
			if err != nil {
				return nil, fmt.Errorf("%s pass %d: %w", w.name, i+1, err)
			}
			passes[k] = append(passes[k], r)
			fmt.Fprintf(os.Stderr, "%s pass %d/%d: set-up %.3f s, %d ops, mean %.4f ms, cpu %.4f ms/op\n",
				w.name, i+1, n, r.setupS, r.ops(), mean(r.opMs), ratio(r.cpuMs, float64(len(r.opMs))))
			if tracedPass {
				r.layer["op.self_ms_mean"] = opSelfMeanMs(r.spans)
			}
			if tracedPass && i == n-1 {
				probed[k] = make(map[string]float64)
				err = rg.probe(ctx, probed[k])
				if err == nil {
					err = writeTrace(outDir, traceFile{Workload: w.name, Seed: seed, Ops: r.ops(), Dropped: r.dropped, Requests: r.requests, Spans: r.spans})
				}
			}
			rg.Close()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			r.spans = nil
			debug.FreeOSMemory() // collect now: the next pass starts from a small heap
		}
		if !ran {
			break
		}
	}
	var out []*runResult
	for k, w := range ws {
		res, err := fold(w, passes[k], probed[k])
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// fold turns a workload's passes into its run result: the end-to-end
// metrics from the untraced passes, the per-layer ones (probed is nil on an
// untraced run) from the traced passes and the probes.
func fold(w workload, passes []*passResult, probed map[string]float64) (*runResult, error) {
	res := &runResult{workload: w, e2e: make(map[string]float64)}
	perPass := make(map[string][]float64)
	layers := make(map[string][]float64)
	var tracedMeans []float64
	for _, r := range passes {
		res.attempted += r.ops()
		res.failed += r.failed
		m, err := passMetrics(w, r)
		if err != nil {
			return nil, err
		}
		if r.traced {
			tracedMeans = append(tracedMeans, m["op_ms_mean"])
			for name, v := range r.layer {
				layers[name] = append(layers[name], v)
			}
			continue
		}
		for name, v := range m {
			perPass[name] = append(perPass[name], v)
		}
	}
	for name, vs := range perPass {
		res.e2e[name] = median(vs)
	}
	res.passSpread = spread(perPass["op_ms_mean"])
	if probed != nil {
		res.layer = probed
		for name, vs := range layers {
			res.layer[name] = median(vs)
		}
		res.layer["trace.overhead_ratio"] = ratio(median(tracedMeans), res.e2e["op_ms_mean"]) - 1
		res.layer["pass_spread"] = res.passSpread
	}
	return res, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line builds the contract's result object: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (r *runResult) line() (resultLine, error) {
	specs, values := endToEnd, r.e2e
	if r.layer != nil {
		specs, values = perLayer, r.layer
	}
	out := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue)}
	for _, s := range specs {
		v := values[s.Name] // a per-layer metric the workload does not exercise reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("%s: metric %s is not finite", r.workload.name, s.Name)
		}
		out.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return out, nil
}

func (r *runResult) print() error {
	l, err := r.line()
	if err != nil {
		return err
	}
	specs := endToEnd
	if r.layer != nil {
		specs = perLayer
	}
	fmt.Printf("%s: %d ops attempted, %d failed, pass_spread %.3f\n", r.workload.name, r.attempted, r.failed, r.passSpread)
	for _, s := range specs {
		fmt.Printf("  %-32s %14.4f %s\n", s.Name, l.Metrics[s.Name].Value, s.Unit)
	}
	data, err := json.Marshal(l)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// selfCheck runs the whole benchmark n times and prints, per workload and
// end-to-end metric, the largest gap between two runs as a share of their
// median, next to the bound. It reports whether every gap is within its
// bound.
func selfCheck(ctx context.Context, n int, seed int64, seconds float64) (bool, error) {
	values := make(map[string][]float64)
	for i := 0; i < n; i++ {
		results, err := run(ctx, workloads, full, seed, seconds, false, "")
		if err != nil {
			return false, err
		}
		for _, r := range results {
			if r.failed > 0 {
				return false, fmt.Errorf("%s: %d failed ops", r.workload.name, r.failed)
			}
			fmt.Printf("run %d %s pass_spread %.3f\n", i+1, r.workload.name, r.passSpread)
			for _, s := range endToEnd {
				key := r.workload.name + " " + s.Name
				values[key] = append(values[key], r.e2e[s.Name])
			}
		}
	}
	ok := true
	for _, w := range workloads {
		for _, s := range endToEnd {
			gap := spread(values[w.name+" "+s.Name])
			verdict := "ok"
			if gap > s.Bound {
				verdict, ok = "OVER", false
			}
			fmt.Printf("%-14s %-18s gap %.4f bound %.2f %s\n", w.name, s.Name, gap, s.Bound, verdict)
		}
	}
	return ok, nil
}

func main() {
	name := flag.String("workload", "all", "workload to run: lan_browse, wan_browse, staged_browse, depot_mix or all")
	seed := flag.Int64("seed", 1, "seed of the cursor script and of the depot op sequence")
	seconds := flag.Float64("seconds", 20, "measured time per workload, split over its passes")
	trace := flag.Int("trace", 0, "1: record spans, run the layer probes and print the per-layer metrics")
	aa := flag.Int("aa", 0, "run the whole benchmark this many times and compare the runs with each other")
	outDir := flag.String("out", "bench/out", "directory for trace_<workload>.json")
	flag.Parse()

	// The event log is the one gate of internal/obs that is on by default;
	// tearing a deployment down under its background transfers would fill
	// standard error with their warnings.
	if err := obs.ConfigureDefaultLogger("error", "kv"); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	ctx := context.Background()
	if *aa > 0 {
		ok, err := selfCheck(ctx, *aa, *seed, *seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	ws := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		ws = []workload{w}
	}
	results, err := run(ctx, ws, full, *seed, *seconds, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	failed := false
	for _, r := range results {
		if err := r.print(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		failed = failed || r.failed > 0
	}
	if failed {
		os.Exit(1)
	}
}
