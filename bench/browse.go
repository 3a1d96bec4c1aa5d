package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/bufpool"
	"lonviz/internal/lightfield"
	"lonviz/internal/session"
)

// displayRes and the camera distance factor are what cmd/lfbrowse renders
// per move.
const (
	displayRes     = 128
	cameraDistance = 1.6
)

// passResult is what one pass measured. layer holds per-layer readings
// under their BENCHMARK.json names.
type passResult struct {
	traced bool
	setupS float64
	wall   time.Duration
	// think is the time each load generator slept between ops, done the
	// ops it completed.
	think       []time.Duration
	done        []int
	opMs        []float64
	failed      int
	cpuMs       float64
	originBytes int64
	layer       map[string]float64
	spans       []span
	dropped     int
	requests    map[string]int
}

func (r *passResult) ops() int { return len(r.opMs) + r.failed }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimePeaks samples heap and goroutine counts during a traced pass.
type runtimePeaks struct {
	stop, done         chan struct{}
	heapMiB, goroutine float64
}

func watchRuntime() *runtimePeaks {
	w := &runtimePeaks{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			w.heapMiB = max(w.heapMiB, float64(ms.HeapAlloc)/(1<<20))
			w.goroutine = max(w.goroutine, float64(runtime.NumGoroutine()))
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

func (w *runtimePeaks) finish(layer map[string]float64) {
	close(w.stop)
	<-w.done
	layer["go.heap_peak_mib"] = w.heapMiB
	layer["go.goroutines_peak"] = w.goroutine
}

// phase brackets a pass's measured phase: process CPU, allocation, buffer
// pool and network counters before and after.
type phase struct {
	start time.Time
	cpu   time.Duration
	mem   runtime.MemStats
	pool  bufpool.Stats
	net   netCounts
	meter *netMeter
	peaks *runtimePeaks
}

func beginPhase(m *netMeter, traced bool) *phase {
	runtime.GC() // start every pass from the same heap state
	ph := &phase{meter: m, net: m.snapshot(), pool: bufpool.ReadStats()}
	if traced {
		ph.peaks = watchRuntime()
	}
	runtime.ReadMemStats(&ph.mem)
	ph.cpu = cpuTime()
	ph.start = time.Now()
	return ph
}

func (ph *phase) end(r *passResult) netCounts {
	r.wall = time.Since(ph.start)
	r.cpuMs = float64(cpuTime()-ph.cpu) / 1e6
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	net := ph.meter.snapshot().sub(ph.net)
	pool := bufpool.ReadStats()
	ops := float64(r.ops())
	l := r.layer
	if ph.peaks != nil {
		ph.peaks.finish(l)
	}
	l["bufpool.miss_ratio"] = ratio(float64(pool.Misses-ph.pool.Misses), float64(pool.Gets-ph.pool.Gets))
	l["go.alloc_kib_per_op"] = ratio(float64(mem.TotalAlloc-ph.mem.TotalAlloc)/1024, ops)
	l["go.gc_cycles_per_kop"] = ratio(float64(mem.NumGC-ph.mem.NumGC)*1000, ops)
	l["net.near_kib_per_op"] = ratio(float64(net[ctrBytes+near])/1024, ops)
	l["net.far_kib_per_op"] = ratio(float64(net[ctrBytes+far])/1024, ops)
	l["net.near_read_wait_ms_per_op"] = ratio(float64(net[ctrReadWaitNs+near])/1e6, ops)
	l["net.far_read_wait_ms_per_op"] = ratio(float64(net[ctrReadWaitNs+far])/1e6, ops)
	l["ibp.dials_per_op"] = ratio(float64(net[ctrDepotDials]), ops)
	l["ibp.dial_ms_mean"] = ratio(float64(net[ctrDepotDialNs])/1e6, float64(net[ctrDepotDials]))
	l["dvs.lookups_per_op"] = ratio(float64(net[ctrDVSDials]), ops)
	return net
}

// clientRun is what one client's op loop measured.
type clientRun struct {
	opMs       []float64
	failed     int
	think      time.Duration
	records    []agent.AccessRecord
	renderMs   float64
	stageDoneS float64
}

// browse runs client c's cursor script until the deadline. An op is what
// cmd/lfbrowse does per move: Viewer.MoveTo plus Viewer.Render.
func (c *client) browse(ctx context.Context, w workload, p lightfield.Params, start time.Time, dur time.Duration,
	lens map[lightfield.ViewSetID]int, rec *recorder, opIndex *atomic.Int64) (*clientRun, error) {
	run := &clientRun{}
	var stageDone <-chan struct{}
	if w.staged {
		var err error
		if stageDone, err = c.ca.StartPrestaging(ctx); err != nil {
			return nil, err
		}
	}
	for _, sp := range c.script {
		if time.Since(start) >= dur {
			break
		}
		op := int(opIndex.Add(1) - 1)
		opID := rec.open()
		c.sc.set(op, opID)
		if c.proxy != nil {
			c.proxy.op, c.proxy.parent = op, opID
		}
		t0 := time.Now()
		ar, err := c.viewer.MoveTo(ctx, sp)
		t1 := time.Now()
		var rst lightfield.RenderStats
		if err == nil {
			_, rst, err = c.viewer.Render(sp, p.OuterRadius*cameraDistance, displayRes)
		}
		t2 := time.Now()
		if c.proxy != nil {
			c.proxy.pending.Wait()
			if c.proxy.fetchEnd.After(t0) {
				rec.close(rec.open(), opID, op, "viewer.decode", c.proxy.fetchEnd, t1)
			}
			rec.close(rec.open(), opID, op, "lightfield.render", t1, t2)
			rec.close(opID, 0, op, "op", t0, t2)
		}
		c.sc.clear()
		// Cheap invariants on every op; the full pixel comparison ran
		// before the measured phase. A viewer that holds one view set
		// leaves the pixels that blend across a set boundary missing, so
		// the frame is checked for being complete and not empty, not for
		// MissingSet == 0.
		if err != nil || ar.Bytes != lens[ar.ID] || !frameOK(rst) {
			run.failed++
		} else {
			run.opMs = append(run.opMs, float64(t2.Sub(t0))/1e6)
			run.records = append(run.records, ar)
			run.renderMs += float64(t2.Sub(t1)) / 1e6
		}
		if w.think > 0 {
			time.Sleep(w.think)
			run.think += time.Since(t2)
		}
		if stageDone != nil && run.stageDoneS == 0 {
			select {
			case <-stageDone:
				run.stageDoneS = time.Since(start).Seconds()
			default:
			}
		}
	}
	if w.staged && run.stageDoneS == 0 {
		run.stageDoneS = time.Since(start).Seconds() // not finished within the pass
	}
	return run, nil
}

func frameOK(st lightfield.RenderStats) bool {
	return st.Pixels == displayRes*displayRes &&
		st.Background+st.Filled+st.MissingSet == st.Pixels &&
		st.Filled > 0
}

// browsePass builds a deployment, checks the database, and runs the
// workload's clients over their cursor scripts for dur. The deployment is
// returned open so layer probes can use it; the caller closes it.
func browsePass(ctx context.Context, w workload, sz size, seed int64, dur time.Duration, traced bool) (*passResult, rig, error) {
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	// One move per millisecond is far beyond any workload here.
	scriptLen := int(dur/time.Millisecond) + 1
	setupStart := time.Now()
	d, err := deploy(ctx, w, sz.params(), seed, scriptLen, rec)
	if err != nil {
		return nil, nil, err
	}
	res := &passResult{traced: traced, setupS: time.Since(setupStart).Seconds(), layer: make(map[string]float64)}
	lens, err := d.verifyDatabase(ctx)
	if err != nil {
		d.Close()
		return nil, nil, err
	}

	ph := beginPhase(d.meter, traced)
	rec.restart(ph.start)
	runs := make([]*clientRun, len(d.clients))
	errs := make([]error, len(d.clients))
	var opIndex atomic.Int64
	var wg sync.WaitGroup
	for k, c := range d.clients {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			runs[k], errs[k] = c.browse(ctx, w, d.params, ph.start, dur, lens, rec, &opIndex)
		}(k, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			d.Close()
			return nil, nil, err
		}
	}
	for _, run := range runs {
		res.opMs = append(res.opMs, run.opMs...)
		res.failed += run.failed
	}
	net := ph.end(res)
	for _, run := range runs {
		res.think = append(res.think, run.think)
		res.done = append(res.done, len(run.opMs))
	}
	res.originBytes = net[ctrOriginBytes]
	browseLayers(res, w, d, runs)
	if rec != nil {
		res.spans, res.dropped, res.requests = rec.take()
	}
	if len(res.opMs) == 0 {
		d.Close()
		return nil, nil, fmt.Errorf("%s: no op completed in %v", w.name, dur)
	}
	return res, d, nil
}

// browseLayers turns the agents' own counters and the access records into
// the agent.*, viewer.* and render readings of one pass.
func browseLayers(r *passResult, w workload, d *deployment, runs []*clientRun) {
	var st agent.ClientAgentStats
	var evictions int64
	var hits, nonHit, n, fetchMs, decodeTailMs, renderMs, stageDoneS, initialOps float64
	for k, c := range d.clients {
		s := c.ca.Stats()
		st.WANFetches += s.WANFetches
		st.LANFetches += s.LANFetches
		st.EdgeFetches += s.EdgeFetches
		st.Prefetches += s.Prefetches
		st.Coalesced += s.Coalesced
		st.StageErrors += s.StageErrors
		st.FailedAttempts += s.FailedAttempts
		st.ChecksumErrors += s.ChecksumErrors
		evictions += c.ca.CacheStats().Evictions
		run := runs[k]
		for _, ar := range run.records {
			n++
			decodeTailMs += float64(ar.Decompress) / 1e6
			if ar.Class == agent.AccessHit {
				hits++
				continue
			}
			nonHit++
			fetchMs += float64(ar.Comm) / 1e6
		}
		renderMs += run.renderMs
		stageDoneS += run.stageDoneS / float64(len(runs))
		initialOps += float64(session.InitialPhaseLength(run.records)) / float64(len(runs))
	}
	ops := float64(r.ops())
	l := r.layer
	l["agent.hit_ratio"] = ratio(hits, n)
	l["agent.fetch_per_op"] = ratio(float64(st.WANFetches+st.LANFetches+st.EdgeFetches), ops)
	l["agent.prefetch_per_op"] = ratio(float64(st.Prefetches), ops)
	l["agent.coalesced_per_op"] = ratio(float64(st.Coalesced), ops)
	l["agent.cache_evictions_per_op"] = ratio(float64(evictions), ops)
	l["agent.fetch_ms_mean"] = ratio(fetchMs, nonHit)
	if w.staged {
		l["agent.stage_done_s"] = stageDoneS
		l["agent.initial_phase_ops"] = initialOps
		l["agent.stage_errors"] = float64(st.StageErrors)
	}
	l["lors.failed_attempts"] = float64(st.FailedAttempts)
	l["lors.checksum_errors"] = float64(st.ChecksumErrors)
	l["viewer.decode_tail_ms_mean"] = ratio(decodeTailMs, n)
	l["lightfield.render_ms_mean"] = ratio(renderMs, n)
}
