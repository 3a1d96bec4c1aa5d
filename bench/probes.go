package main

// Layer probes: after a traced run's last pass, each layer's public
// functions are called directly on that deployment's own data — the
// published exNodes, the frames behind them, the depots still up — to fill
// the per-layer metrics no wrapper can isolate during the pass.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"lonviz/internal/bufpool"
	"lonviz/internal/codec"
	"lonviz/internal/dvs"
	"lonviz/internal/exnode"
	"lonviz/internal/ibp"
	"lonviz/internal/lightfield"
	"lonviz/internal/lors"
	"lonviz/internal/netsim"
	"lonviz/internal/obs"
)

// Calls per probe. Probes of calls that take tens of milliseconds of CPU,
// and probes that wait on the far link, make fewer calls so that a traced
// run stays inside the benchmark's time budget; a wait on the simulated
// link varies little from call to call.
const (
	probeCalls     = 50
	slowProbeCalls = 10
	farProbeCalls  = 8
	tightLoopCalls = 200_000
)

// timeCalls calls f n times, par at a time, and returns the mean duration
// of a call in milliseconds.
func timeCalls(n, par int, f func(i int) error) (float64, error) {
	var mu sync.Mutex
	var total time.Duration
	var firstErr error
	var wg sync.WaitGroup
	sem := make(chan struct{}, par)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			err := f(i)
			d := time.Since(start)
			mu.Lock()
			total += d
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return float64(total) / 1e6 / float64(n), firstErr
}

// probeSpec is one probe: metric name, calls, parallelism, body.
type probeSpec struct {
	name   string
	n, par int
	scale  float64 // result unit per millisecond: 1 for ms, 1e3 for us, 1e6 for ns
	f      func(i int) error
}

func runProbes(layer map[string]float64, specs []probeSpec) error {
	for _, s := range specs {
		ms, err := timeCalls(s.n, s.par, s.f)
		if err != nil {
			return fmt.Errorf("probe %s: %w", s.name, err)
		}
		layer[s.name] = ms * s.scale
	}
	return nil
}

// tightLoopNs is the per-iteration cost in nanoseconds of a body too cheap
// to time call by call.
func tightLoopNs(body func()) float64 {
	start := time.Now()
	for i := 0; i < tightLoopCalls; i++ {
		body()
	}
	return float64(time.Since(start)) / tightLoopCalls
}

// probeShared fills the readings that need no deployment.
func probeShared(layer map[string]float64) {
	reg := obs.NewRegistry()
	layer["obs.label_ns"] = tightLoopNs(func() {
		reg.Counter(obs.Label("bench.probe.ops", "op", "LOAD")).Inc()
	})
	layer["bufpool.getput_ns"] = tightLoopNs(func() {
		bufpool.Put(bufpool.Get(stripeSize))
	})
}

// probeIBP times the wire and the store beneath it on one depot: the
// dial-per-op client (the path ALLOCATE, COPY and a refused handshake take),
// and the depot's own functions with no wire at all. The five calls of the
// depot mix are timed in depot_mix's passes only.
func probeIBP(ctx context.Context, dep *ibp.Depot, addr string, layer map[string]float64) error {
	stripe, err := dep.Allocate(stripeSize, time.Hour, ibp.Stable)
	if err != nil {
		return err
	}
	buf := make([]byte, stripeSize)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	if err := dep.Store(stripe.Write, 0, buf); err != nil {
		return err
	}
	pipe, err := ibp.DialPipe(ctx, addr, nil, 0, nil)
	if err != nil {
		return err
	}
	layer["ibp.pipe_window"] = float64(pipe.Window()) // what a default client is granted
	pipe.Close()
	dst := make([]byte, stripeSize)
	serial := &ibp.Client{Addr: addr}
	return runProbes(layer, []probeSpec{
		{"ibp.serial_load_64k_us_mean", probeCalls, 1, 1e3, func(int) error { return serial.LoadInto(ctx, stripe.Read, 0, dst) }},
		{"ibp.depot_load_64k_us_direct", probeCalls, 1, 1e3, func(int) error { return dep.LoadInto(stripe.Read, 0, dst) }},
		{"ibp.depot_allocate_us_direct", probeCalls, 1, 1e3, func(int) error {
			c, err := dep.Allocate(stripeSize, time.Minute, ibp.Volatile)
			if err != nil {
				return err
			}
			return dep.Free(c.Manage)
		}},
	})
}

func (r *depotRig) probe(ctx context.Context, layer map[string]float64) error {
	probeShared(layer)
	return probeIBP(ctx, r.depot, r.addr, layer)
}

// probe runs the browse workloads' layer probes. The client agents are
// closed first so that no prefetch or staging runs beside them.
func (d *deployment) probe(ctx context.Context, layer map[string]float64) error {
	for _, c := range d.clients {
		c.ca.Close()
	}
	probeShared(layer)
	if err := probeIBP(ctx, d.firstDepot, d.serverDepots[0], layer); err != nil {
		return err
	}

	// The probes' own links: same profiles as the deployment's, separate
	// buckets, every address on the named link.
	nearDialer, farDialer := netsim.NewDialer(nearLink), netsim.NewDialer(farLink)
	ids := d.params.AllViewSets()
	p := d.params
	var exs []*exnode.ExNode
	var frames [][]byte
	var sets []*lightfield.ViewSet
	var raws [][]byte
	for _, id := range ids[:min(len(ids), farProbeCalls)] {
		ex, err := exnode.Unmarshal(d.exXML[id])
		if err != nil {
			return err
		}
		frame, _, err := lors.Download(ctx, ex, lors.DownloadOptions{})
		if err != nil {
			return err
		}
		vs, err := lightfield.DecodeViewSet(frame, p)
		if err != nil {
			return err
		}
		raw, err := vs.Marshal(p)
		if err != nil {
			return err
		}
		exs, frames, sets, raws = append(exs, ex), append(frames, frame), append(sets, vs), append(raws, raw)
	}
	k := len(exs)
	var frameBytes, rawBytes float64
	for i := range frames {
		frameBytes += float64(len(frames[i])) / float64(k)
		rawBytes += float64(len(raws[i])) / float64(k)
	}
	layer["codec.ratio"] = ratio(rawBytes, frameBytes)

	nearPipes := &ibp.PipePool{Dialer: nearDialer}
	defer nearPipes.Close()
	farPipes := &ibp.PipePool{Dialer: farDialer}
	defer farPipes.Close()
	var tries, extents int
	var statsMu sync.Mutex
	download := func(dialer ibp.Dialer, pipes *ibp.PipePool) func(int) error {
		return func(i int) error {
			_, st, err := lors.Download(ctx, exs[i%k], lors.DownloadOptions{Dialer: dialer, Pipes: pipes})
			statsMu.Lock()
			tries, extents = tries+st.ReplicaTries, extents+st.ExtentFetches
			statsMu.Unlock()
			return err
		}
	}
	gen, err := lightfield.NewProceduralGenerator(p, datasetSeed)
	if err != nil {
		return err
	}
	getDVS := func(dialer dvs.Dialer) func(int) error {
		cl := &dvs.Client{Addr: d.dvsAddr, Dialer: dialer}
		return func(i int) error {
			_, err := cl.Get(ctx, dvs.Key{Dataset: dataset, ViewSet: ids[i%len(ids)].String()})
			return err
		}
	}
	err = runProbes(layer, []probeSpec{
		{"exnode.unmarshal_us_mean", probeCalls, 1, 1e3, func(i int) error { _, err := exnode.Unmarshal(d.exXML[ids[i%len(ids)]]); return err }},
		{"exnode.marshal_us_mean", probeCalls, 1, 1e3, func(i int) error { _, err := exs[i%k].Marshal(); return err }},
		{"lightfield.decode_ms_mean", probeCalls, 1, 1, func(i int) error { _, err := lightfield.DecodeViewSet(frames[i%k], p); return err }},
		{"codec.decompress_ms", probeCalls, 1, 1, func(i int) error { _, err := codec.Decompress(frames[i%k]); return err }},
		{"codec.compress_ms", slowProbeCalls, 1, 1, func(i int) error { _, err := codec.Compress(raws[i%k], codec.DefaultCompression); return err }},
		{"lightfield.encode_ms_mean", slowProbeCalls, 1, 1, func(i int) error {
			_, err := lightfield.EncodeViewSet(sets[i%k], p, codec.DefaultCompression)
			return err
		}},
		{"lightfield.generate_ms_mean", slowProbeCalls, 1, 1, func(i int) error { _, err := gen.GenerateViewSet(ctx, ids[i%len(ids)]); return err }},
		{"lors.upload_ms_mean", probeCalls, 1, 1, func(i int) error {
			ex, err := lors.Upload(ctx, "probe", frames[i%k], lors.UploadOptions{
				Depots: d.serverDepots, StripeSize: stripeSize, Replicas: 1, Lease: time.Minute, Policy: ibp.Volatile,
			})
			if err != nil {
				return err
			}
			return lors.Free(ctx, ex, nil)
		}},
		{"lors.download_near_ms_mean", probeCalls, 1, 1, download(nearDialer, nearPipes)},
		{"lors.download_far_ms_mean", farProbeCalls, 1, 1, download(farDialer, farPipes)},
		// Third-party copies and DVS lookups over the far link only wait;
		// several at once wait together and each still reads its own time.
		{"lors.copy_ms_mean", farProbeCalls, farProbeCalls, 1, func(i int) error {
			_, err := lors.CopyToStriped(ctx, exs[i%k], d.lanDepots, lors.CopyOptions{Lease: time.Minute, Policy: ibp.Volatile, Dialer: farDialer})
			return err
		}},
		{"dvs.get_near_ms_mean", probeCalls, 1, 1, getDVS(nearDialer)},
		{"dvs.get_far_ms_mean", probeCalls, 10, 1, getDVS(farDialer)},
	})
	if err != nil {
		return err
	}
	layer["lors.replica_tries_per_fetch"] = ratio(float64(tries), float64(extents))
	layer["lightfield.decode_mib_per_s"] = ratio(rawBytes/(1<<20), layer["lightfield.decode_ms_mean"]/1e3)
	layer["codec.decompress_mib_per_s"] = ratio(rawBytes/(1<<20), layer["codec.decompress_ms"]/1e3)
	layer["codec.compress_mib_per_s"] = ratio(rawBytes/(1<<20), layer["codec.compress_ms"]/1e3)
	delete(layer, "codec.decompress_ms")
	delete(layer, "codec.compress_ms")
	return nil
}
