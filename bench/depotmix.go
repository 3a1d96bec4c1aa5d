package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"lonviz/internal/ibp"
	"lonviz/internal/netsim"
)

// The browse workloads put two extent sizes on the wire: a full stripe
// (stripeSize) and the tail of a frame — a frame of ≈ 155 KiB is two
// stripes and a tail of 17–35 KiB, 26 KiB on average.
const (
	tailSize     = 26 << 10
	depotWorkers = 2
)

// depotOp is one kind of call in the mix; cum is the cumulative share.
type depotOp struct {
	name   string // span name, and ibp.<name>_us_mean
	verb   string
	stripe bool
	cum    float64
}

// The mix follows the IBP requests the traced passes of the three browse
// workloads counted (README.md, "What the depots are asked"): lan_browse
// and wan_browse send LOADs only; staged_browse 32 % LOAD, 22 % STORE and
// 45 % payload-free requests (ALLOCATE, COPY); each verb two stripes to one
// tail. Averaged over the three: 77 % LOAD, 8 % STORE, 15 % payload-free,
// here 75 / 10 / 15. PROBE is the payload-free request a pipe offers.
var depotMix = []depotOp{
	{"load_64k", "LOAD", true, 0.50},
	{"load_26k", "LOAD", false, 0.75},
	{"store_64k", "STORE", true, 0.82},
	{"store_26k", "STORE", false, 0.85},
	{"probe", "PROBE", false, 1.00},
}

// allocSet is the allocations of one size class. Allocation i holds
// tape[off(i) : off(i)+size]: every allocation differs, nothing has to be
// generated per op, and a STORE rewrites the bytes already there, so a
// concurrent LOAD of the same allocation always has one right answer.
type allocSet struct {
	size int
	caps []ibp.Capabilities
	tape []byte
}

// tapeSlack is how far into the tape an allocation's window may start.
const tapeSlack = 4 << 10

func (a *allocSet) content(i int) []byte {
	off := (i * 61) % tapeSlack
	return a.tape[off : off+a.size]
}

func newAllocSet(dep *ibp.Depot, n, size int, rng *rand.Rand) (*allocSet, error) {
	a := &allocSet{size: size, tape: make([]byte, size+tapeSlack)}
	rng.Read(a.tape)
	for i := 0; i < n; i++ {
		c, err := dep.Allocate(int64(size), time.Hour, ibp.Stable)
		if err != nil {
			return nil, err
		}
		a.caps = append(a.caps, c)
	}
	return a, nil
}

// depotRig is one depot_mix deployment.
type depotRig struct {
	depot         *ibp.Depot
	addr          string
	pipe          *ibp.Pipe
	dialer        *meterDialer
	tails, stripe *allocSet
	closers       []func()
}

func (r *depotRig) Close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

func (r *depotRig) set(stripe bool) *allocSet {
	if stripe {
		return r.stripe
	}
	return r.tails
}

// forEachAlloc runs f over every allocation from a few goroutines, enough
// to keep the pipe's window busy.
func (r *depotRig) forEachAlloc(f func(a *allocSet, i int) error) error {
	const par = 4
	var wg sync.WaitGroup
	errs := make([]error, par)
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, a := range []*allocSet{r.tails, r.stripe} {
				for i := g; i < len(a.caps); i += par {
					if err := f(a, i); err != nil {
						errs[g] = err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// deployDepot starts one in-memory depot, allocates in-process and
// preloads every allocation over one pipe: depot_mix's set-up.
func deployDepot(ctx context.Context, sz size, seed int64, rec *recorder) (*depotRig, error) {
	r := &depotRig{}
	ok := false
	defer func() {
		if !ok {
			r.Close()
		}
	}()
	capacity := int64(sz.tailAllocs*tailSize+sz.stripeAllocs*stripeSize) + (64 << 20)
	var err error
	if r.depot, err = ibp.NewDepot(ibp.DepotConfig{Capacity: capacity, MaxLease: 2 * time.Hour}); err != nil {
		return nil, err
	}
	srv := ibp.NewServer(r.depot)
	if r.addr, err = srv.ListenAndServe("127.0.0.1:0"); err != nil {
		return nil, err
	}
	r.closers = append(r.closers, func() { srv.Close() })
	rng := rand.New(rand.NewSource(seed))
	if r.tails, err = newAllocSet(r.depot, sz.tailAllocs, tailSize, rng); err != nil {
		return nil, err
	}
	if r.stripe, err = newAllocSet(r.depot, sz.stripeAllocs, stripeSize, rng); err != nil {
		return nil, err
	}
	r.dialer = &meterDialer{inner: netsim.NewDialer(netsim.LinkProfile{Name: "loopback"}), m: &netMeter{}, rec: rec}
	if r.pipe, err = ibp.DialPipe(ctx, r.addr, r.dialer, 0, nil); err != nil {
		return nil, err
	}
	r.closers = append(r.closers, func() { r.pipe.Close() })
	err = r.forEachAlloc(func(a *allocSet, i int) error {
		return r.pipe.Store(ctx, a.caps[i].Write, 0, a.content(i))
	})
	if err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	ok = true
	return r, nil
}

// verifyAll reads every allocation back in full and compares it.
func (r *depotRig) verifyAll(ctx context.Context) error {
	return r.forEachAlloc(func(a *allocSet, i int) error {
		got := make([]byte, a.size)
		if err := r.pipe.Load(ctx, a.caps[i].Read, 0, got); err != nil {
			return err
		}
		if !bytes.Equal(got, a.content(i)) {
			return fmt.Errorf("verify: allocation %d of %d bytes reads back wrong", i, a.size)
		}
		return nil
	})
}

// do issues one call of the mix and checks its answer: a LOAD's first and
// last 8 bytes, a PROBE's size.
func (r *depotRig) do(ctx context.Context, op depotOp, i int, dst []byte) (payload int, err error) {
	a := r.set(op.stripe)
	i %= len(a.caps)
	switch op.verb {
	case "LOAD":
		dst = dst[:a.size]
		if err := r.pipe.Load(ctx, a.caps[i].Read, 0, dst); err != nil {
			return 0, err
		}
		want := a.content(i)
		if !bytes.Equal(dst[:8], want[:8]) || !bytes.Equal(dst[a.size-8:], want[a.size-8:]) {
			return 0, fmt.Errorf("LOAD of allocation %d returned wrong bytes", i)
		}
		return a.size, nil
	case "STORE":
		return a.size, r.pipe.Store(ctx, a.caps[i].Write, 0, a.content(i))
	default:
		info, err := r.pipe.Probe(ctx, a.caps[i].Manage)
		if err == nil && info.Size != int64(a.size) {
			err = fmt.Errorf("PROBE of allocation %d says %d bytes", i, info.Size)
		}
		return 0, err
	}
}

// depotPass runs the mix from two closed-loop workers on one pipe for dur.
func depotPass(ctx context.Context, sz size, seed int64, dur time.Duration, traced bool) (*passResult, rig, error) {
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	setupStart := time.Now()
	dr, err := deployDepot(ctx, sz, seed, rec)
	if err != nil {
		return nil, nil, err
	}
	res := &passResult{traced: traced, setupS: time.Since(setupStart).Seconds(), layer: make(map[string]float64)}
	if err := dr.verifyAll(ctx); err != nil {
		dr.Close()
		return nil, nil, err
	}

	type workerOut struct {
		opMs    []float64
		failed  int
		payload int64
		sumUs   []float64 // per kind of op in depotMix
		n       []int
	}
	outs := make([]workerOut, depotWorkers)
	for i := range outs {
		outs[i].sumUs, outs[i].n = make([]float64, len(depotMix)), make([]int, len(depotMix))
	}
	ph := beginPhase(dr.dialer.m, traced)
	rec.restart(ph.start)
	var opIndex atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < depotWorkers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			out := &outs[wk]
			rng := rand.New(rand.NewSource(seed*depotWorkers + int64(wk)))
			dst := make([]byte, stripeSize)
			for time.Since(ph.start) < dur {
				x := rng.Float64()
				k := 0
				for depotMix[k].cum <= x {
					k++
				}
				op := depotMix[k]
				t0 := time.Now()
				n, err := dr.do(ctx, op, rng.Int(), dst)
				t1 := time.Now()
				if rec != nil {
					rec.close(rec.open(), 0, int(opIndex.Add(1)-1), "ibp."+op.name, t0, t1)
				}
				if err != nil {
					out.failed++
					continue
				}
				us := float64(t1.Sub(t0)) / 1e3
				out.opMs = append(out.opMs, us/1e3)
				out.payload += int64(n)
				out.sumUs[k] += us
				out.n[k]++
			}
		}(wk)
	}
	wg.Wait()
	sumUs, n := make([]float64, len(depotMix)), make([]int, len(depotMix))
	for _, out := range outs {
		res.opMs = append(res.opMs, out.opMs...)
		res.done = append(res.done, len(out.opMs))
		res.think = append(res.think, 0)
		res.failed += out.failed
		res.originBytes += out.payload
		for k := range sumUs {
			sumUs[k] += out.sumUs[k]
			n[k] += out.n[k]
		}
	}
	ph.end(res)
	for k, op := range depotMix {
		res.layer["ibp."+op.name+"_us_mean"] = ratio(sumUs[k], float64(n[k]))
	}
	if rec != nil {
		res.spans, res.dropped, res.requests = rec.take()
	}
	if len(res.opMs) == 0 {
		dr.Close()
		return nil, nil, fmt.Errorf("depot_mix: no op completed in %v", dur)
	}
	return res, dr, nil
}
