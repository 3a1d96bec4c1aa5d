package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/dvs"
	"lonviz/internal/exnode"
	"lonviz/internal/geom"
	"lonviz/internal/ibp"
	"lonviz/internal/lightfield"
	"lonviz/internal/netsim"
)

// The two links every browse workload is built from. Shared: all
// connections one dialer makes over a profile draw from one token bucket.
var (
	nearLink = netsim.LinkProfile{Name: "near", Latency: 300 * time.Microsecond, Bandwidth: 60 << 20, Shared: true}
	farLink  = netsim.LinkProfile{Name: "far", Latency: 35 * time.Millisecond, Bandwidth: 2 << 20, Shared: true}
)

const (
	dataset         = "bench"
	datasetSeed     = 1
	stripeSize      = 64 << 10
	numServerDepots = 3
	numLANDepots    = 4
	// agentCacheBytes is well under the database (≈ 11 MiB compressed), so
	// the working set exceeds the agent cache and evictions happen.
	agentCacheBytes = 4 << 20
)

// deployment is one in-process system on loopback: depots, DVS, server
// agent with the database published, and the workload's browse clients. It
// follows experiments.Deploy, with metering dialers substituted and
// without the L-Bone (the LAN depots are passed to the agents directly;
// discovery is not on any measured path).
type deployment struct {
	params       lightfield.Params
	serverDepots []string
	lanDepots    []string
	dvsAddr      string
	firstDepot   *ibp.Depot // behind serverDepots[0], for the direct probes
	origin       map[string]bool

	meter   *netMeter
	gen     *digestGenerator
	exXML   map[lightfield.ViewSetID][]byte // as published
	clients []*client

	closers []func()
}

// client is one browsing user: a client agent wired as cmd/lfbrowse wires
// it, behind its own pair of links, and the viewer that drives it.
type client struct {
	ca     *agent.ClientAgent
	viewer *agent.Viewer
	proxy  *sourceProxy // traced passes only
	sc     *scope
	script []geom.Spherical
}

func (d *deployment) Close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
}

// startDepot adds one in-memory depot to the deployment and returns its
// address.
func (d *deployment) startDepot(capacity int64, copyDialer ibp.Dialer) (string, *ibp.Depot, error) {
	dep, err := ibp.NewDepot(ibp.DepotConfig{Capacity: capacity, MaxLease: time.Hour})
	if err != nil {
		return "", nil, err
	}
	srv := ibp.NewServer(dep)
	srv.CopyDialer = copyDialer
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	d.closers = append(d.closers, func() { srv.Close() })
	return addr, dep, nil
}

// deploy starts the daemons, generates, encodes, uploads and publishes the
// database, and builds the clients. The time it takes is the browse
// workloads' set-up.
func deploy(ctx context.Context, w workload, p lightfield.Params, seed int64, scriptLen int, rec *recorder) (*deployment, error) {
	d := &deployment{params: p, meter: &netMeter{}, origin: make(map[string]bool)}
	ok := false
	defer func() {
		if !ok {
			d.Close()
		}
	}()

	// Third-party copies leave a server depot over the far link.
	copyDialer := &meterDialer{inner: netsim.NewDialer(farLink), m: d.meter, rec: rec, originWrites: true}
	db := p.UncompressedDBBytes()
	capacity := db + db/2 + (8 << 20)
	for i := 0; i < numServerDepots; i++ {
		addr, dep, err := d.startDepot(capacity, copyDialer)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			d.firstDepot = dep
		}
		d.serverDepots = append(d.serverDepots, addr)
		d.origin[addr] = true
	}
	for i := 0; i < numLANDepots; i++ {
		// Every client stages its own copy of the database.
		addr, _, err := d.startDepot(int64(w.clients)*capacity, nil)
		if err != nil {
			return nil, err
		}
		d.lanDepots = append(d.lanDepots, addr)
	}

	dvsSrv := dvs.NewServer("")
	var err error
	d.dvsAddr, err = dvsSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.closers = append(d.closers, func() { dvsSrv.Close() })
	d.origin[d.dvsAddr] = true

	// The server agent sits next to its depots: uploads are unshaped.
	inner, err := lightfield.NewProceduralGenerator(p, datasetSeed)
	if err != nil {
		return nil, err
	}
	d.gen = &digestGenerator{inner: inner, digests: make(map[lightfield.ViewSetID]uint32)}
	sa, err := agent.NewServerAgent(agent.ServerAgentConfig{
		Dataset:    dataset,
		Gen:        d.gen,
		Depots:     d.serverDepots,
		DVS:        &dvs.Client{Addr: d.dvsAddr},
		StripeSize: stripeSize,
		Replicas:   1,
		Workers:    runtime.GOMAXPROCS(0),
	})
	if err != nil {
		return nil, err
	}
	d.closers = append(d.closers, func() { sa.Close() })
	if d.exXML, err = sa.PrecomputeAll(ctx); err != nil {
		return nil, fmt.Errorf("publishing the database: %w", err)
	}

	for k := 0; k < w.clients; k++ {
		c, err := d.newClient(w, seed, k, scriptLen, rec)
		if err != nil {
			return nil, err
		}
		d.clients = append(d.clients, c)
	}
	ok = true
	return d, nil
}

// newClient builds client k: library defaults (quadrant prefetch, default
// pipeline window, Parallelism 4, StageParallelism 4), except the small
// cache and the seeded Rand.
func (d *deployment) newClient(w workload, seed int64, k, scriptLen int, rec *recorder) (*client, error) {
	serverLink := nearLink
	if w.farOrigin {
		serverLink = farLink
	}
	sim := netsim.NewDialer(nearLink)
	for addr := range d.origin {
		sim.SetRoute(addr, serverLink)
	}
	c := &client{sc: &scope{}}
	dialer := &meterDialer{inner: sim, m: d.meter, rec: rec, sc: c.sc, origin: d.origin, dvsAddr: d.dvsAddr}
	var lan []string
	if w.staged {
		lan = d.lanDepots
	}
	var err error
	c.ca, err = agent.NewClientAgent(agent.ClientAgentConfig{
		Dataset:    dataset,
		Params:     d.params,
		DVS:        &dvs.Client{Addr: d.dvsAddr, Dialer: dialer},
		Dialer:     dialer,
		CacheBytes: agentCacheBytes,
		LANDepots:  lan,
		Prefetch:   true,
		Rand:       rand.New(rand.NewSource(seed + int64(k))),
	})
	if err != nil {
		return nil, err
	}
	d.closers = append(d.closers, c.ca.Close)
	var src agent.ViewSetSource = c.ca
	if rec != nil {
		c.proxy = &sourceProxy{ca: c.ca, rec: rec, sc: c.sc}
		src = c.proxy
	}
	if c.viewer, err = agent.NewViewer(d.params, src); err != nil {
		return nil, err
	}
	c.viewer.MaxDecoded = 1 // the paper's PDA client: every move is a view-set request
	c.script, err = cursorScript(d.params, scriptLen, seed, k, w.clients)
	return c, err
}

// publishedLen reads a view set's frame length out of its published exNode.
func (d *deployment) publishedLen(id lightfield.ViewSetID) (int, error) {
	ex, err := exnode.Unmarshal(d.exXML[id])
	if err != nil {
		return 0, err
	}
	return int(ex.Length), nil
}

// verifyDatabase fetches every view set once through a throwaway agent on
// unshaped connections and compares the decoded pixels with what the
// generator produced. It returns the published frame lengths, which the
// measured ops check their accesses against.
func (d *deployment) verifyDatabase(ctx context.Context) (map[lightfield.ViewSetID]int, error) {
	ca, err := agent.NewClientAgent(agent.ClientAgentConfig{
		Dataset: dataset,
		Params:  d.params,
		DVS:     &dvs.Client{Addr: d.dvsAddr},
	})
	if err != nil {
		return nil, err
	}
	defer ca.Close()
	lens := make(map[lightfield.ViewSetID]int)
	for _, id := range d.params.AllViewSets() {
		frame, _, err := ca.GetViewSet(ctx, id)
		if err != nil {
			return nil, fmt.Errorf("verify %v: %w", id, err)
		}
		want, err := d.publishedLen(id)
		if err != nil {
			return nil, fmt.Errorf("verify %v: %w", id, err)
		}
		if len(frame) != want {
			return nil, fmt.Errorf("verify %v: frame has %d bytes, exNode says %d", id, len(frame), want)
		}
		vs, err := lightfield.DecodeViewSet(frame, d.params)
		if err != nil {
			return nil, fmt.Errorf("verify %v: %w", id, err)
		}
		if got, want := pixelDigest(vs), d.gen.digests[id]; got != want {
			return nil, fmt.Errorf("verify %v: decoded pixels differ from the generator's output", id)
		}
		lens[id] = len(frame)
	}
	return lens, nil
}
