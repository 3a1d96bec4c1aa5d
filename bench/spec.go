package main

import (
	"time"

	"lonviz/internal/lightfield"
)

// metricSpec is one entry of BENCHMARK.json; a test keeps the file and
// these tables identical.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the six metrics every workload reports from its untraced
// passes. BENCHMARK.json has one bound per metric, so a bound has to hold on
// every workload. Each is set against the widest spread (interquartile
// range over median, ten seeds) any workload showed for the metric in sets
// of runs on the 2-core sandbox, some of them on days the shared machine's
// speed drifted by 5–8 % over minutes; README.md has the tables.
// origin_kib_per_op keeps the 10 % the issue asked for (widest spread
// 3.7 %); op_ms_mean and ops_per_s get 15 % (widest 8.4 %), CPU time 20 %
// (one set read 10.3 %), and set-up, which the contract gives the largest
// bound, 25 %. op_ms_tail10 gets 25 % too: on depot_mix, whose calls take
// 35–90 µs, the slowest tenth is what the host's scheduler and the
// machine's other tenants did to the run, and it spreads twice as wide as
// the mean whatever the load generator does (sets read 5–8 % on most days,
// 16 % in one; README.md, "The tail of depot_mix").
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_mean", "ms", "lower", 0.15},
	{"op_ms_tail10", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"cpu_ms_per_op", "ms", "lower", 0.20},
	{"origin_kib_per_op", "KiB", "lower", 0.10},
}

// perLayer are the readings of the traced passes and the layer probes. A
// metric a workload does not exercise reads 0 there.
var perLayer = []metricSpec{
	{Name: "agent.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "agent.fetch_per_op", Unit: "count", Better: "lower"},
	{Name: "agent.prefetch_per_op", Unit: "count", Better: "lower"},
	{Name: "agent.coalesced_per_op", Unit: "count", Better: "higher"},
	{Name: "agent.cache_evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "agent.fetch_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "agent.stage_done_s", Unit: "s", Better: "lower"},
	{Name: "agent.initial_phase_ops", Unit: "count", Better: "lower"},
	{Name: "agent.stage_errors", Unit: "count", Better: "lower"},
	{Name: "lightfield.decode_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "lightfield.decode_mib_per_s", Unit: "MiB/s", Better: "higher"},
	{Name: "codec.decompress_mib_per_s", Unit: "MiB/s", Better: "higher"},
	{Name: "viewer.decode_tail_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "lightfield.render_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "lightfield.generate_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "lightfield.encode_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "codec.compress_mib_per_s", Unit: "MiB/s", Better: "higher"},
	{Name: "codec.ratio", Unit: "ratio", Better: "higher"},
	{Name: "lors.download_near_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "lors.download_far_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "lors.copy_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "lors.upload_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "lors.replica_tries_per_fetch", Unit: "count", Better: "lower"},
	{Name: "lors.failed_attempts", Unit: "count", Better: "lower"},
	{Name: "lors.checksum_errors", Unit: "count", Better: "lower"},
	{Name: "ibp.load_64k_us_mean", Unit: "us", Better: "lower"},
	{Name: "ibp.load_26k_us_mean", Unit: "us", Better: "lower"},
	{Name: "ibp.store_64k_us_mean", Unit: "us", Better: "lower"},
	{Name: "ibp.store_26k_us_mean", Unit: "us", Better: "lower"},
	{Name: "ibp.probe_us_mean", Unit: "us", Better: "lower"},
	{Name: "ibp.serial_load_64k_us_mean", Unit: "us", Better: "lower"},
	{Name: "ibp.depot_load_64k_us_direct", Unit: "us", Better: "lower"},
	{Name: "ibp.depot_allocate_us_direct", Unit: "us", Better: "lower"},
	{Name: "ibp.dials_per_op", Unit: "count", Better: "lower"},
	{Name: "ibp.dial_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "ibp.pipe_window", Unit: "count", Better: "higher"},
	{Name: "dvs.get_near_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "dvs.get_far_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "dvs.lookups_per_op", Unit: "count", Better: "lower"},
	{Name: "exnode.unmarshal_us_mean", Unit: "us", Better: "lower"},
	{Name: "exnode.marshal_us_mean", Unit: "us", Better: "lower"},
	{Name: "net.far_kib_per_op", Unit: "KiB", Better: "lower"},
	{Name: "net.near_kib_per_op", Unit: "KiB", Better: "lower"},
	{Name: "net.far_read_wait_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "net.near_read_wait_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "obs.label_ns", Unit: "ns", Better: "lower"},
	{Name: "bufpool.getput_ns", Unit: "ns", Better: "lower"},
	{Name: "bufpool.miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "go.alloc_kib_per_op", Unit: "KiB", Better: "lower"},
	{Name: "go.gc_cycles_per_kop", Unit: "count", Better: "lower"},
	{Name: "go.heap_peak_mib", Unit: "MiB", Better: "lower"},
	{Name: "go.goroutines_peak", Unit: "count", Better: "lower"},
	{Name: "op.self_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "pass_spread", Unit: "ratio", Better: "lower"},
}

// workload is one row of the workload table. A run is split into passes;
// each pass builds a fresh deployment, runs for its share of the run's
// seconds and tears down, and every metric is the median over the passes.
type workload struct {
	name, why string
	browse    bool
	// farOrigin puts the server depots and the DVS behind the far link.
	farOrigin bool
	// staged starts prestaging onto the LAN depots when the pass starts.
	staged bool
	// think is the pause between a client's ops. It is excluded from every
	// latency and from ops_per_s.
	think time.Duration
	// clients is the number of independent browse users, each with its own
	// agent, viewer and pair of links. One viewer saturates the CPU-bound
	// workload. A paced far-link viewer completes only ~6 ops/s and leaves
	// the machine idle, so those workloads run six side by side: the wall
	// time buys six times the samples, and the clients' walks, spread
	// around the sphere, average out where the walk happens to lie.
	clients int
	passes  int
}

var workloads = []workload{
	{
		name:   "lan_browse",
		why:    "case 1, depots and DVS on the near link, think 0: CPU-bound (inflate, decode, render, pipelined LOAD), where codec/ibp/lors/bufpool/obs work must show",
		browse: true, clients: 1, passes: 3,
	},
	{
		name:   "wan_browse",
		why:    "case 2, depots and DVS on the far link, think 80 ms: wait-bound on far bandwidth, DVS round trips and prefetch; a CPU optimisation predicts no change here",
		browse: true, farOrigin: true, think: 80 * time.Millisecond, clients: 6, passes: 3,
	},
	{
		name:   "staged_browse",
		why:    "case 3, wan_browse plus prestaging onto 4 LAN depots: third-party COPY and volatile ALLOCATE run beside foreground LOADs, so a gain for reads that costs copies shows",
		browse: true, farOrigin: true, staged: true, think: 80 * time.Millisecond, clients: 6, passes: 3,
	},
	{
		name:   "depot_mix",
		why:    "one in-memory depot, unshaped loopback, 2 workers on one pipe, 75/10/15 LOAD/STORE/PROBE at the extent sizes the browse workloads send (64 and 26 KiB): the wire layer alone, writes beside reads",
		passes: 5,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// size scales the inputs. full is what BENCHMARK.json measures; toy is the
// smoke test's.
type size struct {
	stepDeg      float64
	l, res       int
	stripeAllocs int // 64 KiB allocations of depot_mix
	tailAllocs   int // 26 KiB allocations
}

var (
	// full: a 36×72 lattice, 72 view sets of 36 views at 100², ≈ 1.03 MiB
	// raw and ≈ 150 KiB compressed each, ≈ 11 MiB in all.
	// depot_mix holds 154 MiB, far beyond the processor's caches, in the
	// browse workloads' two-to-one share of stripes and tails.
	full = size{stepDeg: 5, l: 6, res: 100, stripeAllocs: 2048, tailAllocs: 1024}
	toy  = size{stepDeg: 10, l: 3, res: 32, stripeAllocs: 64, tailAllocs: 32}
)

func (s size) params() lightfield.Params { return lightfield.ScaledParams(s.stepDeg, s.l, s.res) }
