// Package experiments reproduces the paper's evaluation (Figures 7-12 and
// the section 4.3 rate analysis). It deploys the full system on loopback —
// IBP depots, L-Bone, DVS, server agent, client agent, viewer — with
// netsim-shaped links standing in for the paper's Knoxville-to-California
// WAN and departmental LAN, then runs the orchestrated 58-access sessions
// of section 4.2 under the three cases:
//
//	Case 1: LFD stored in LAN, client agent prefetch.
//	Case 2: LFD in the WAN (California), client agent prefetch.
//	Case 3: LFD in the WAN + aggressive prestaging to LAN depots.
package experiments

import (
	"context"
	"fmt"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/dvs"
	"lonviz/internal/ibp"
	"lonviz/internal/lbone"
	"lonviz/internal/lightfield"
	"lonviz/internal/netsim"
	"lonviz/internal/session"
)

// Case selects the streaming configuration of section 4.2.
type Case int

const (
	// Case1LAN stores the database on LAN-attached depots.
	Case1LAN Case = 1
	// Case2WAN streams from remote depots with prefetching only.
	Case2WAN Case = 2
	// Case3Staged streams from remote depots with LAN-depot prestaging.
	Case3Staged Case = 3
)

// numWANDepots and numLANDepots size the two depot pools, as in the
// paper's deployment.
const numWANDepots, numLANDepots = 3, 4

// Config scales the experiment. The default shrinks the paper's setup so
// the whole suite runs in seconds while preserving latency orderings; see
// DESIGN.md section 4 for the mapping.
type Config struct {
	// StepDeg and L define the lattice (paper: 2.5 and 6).
	StepDeg float64
	L       int
	// Seed drives the procedural dataset and cursor script.
	Seed int64
	// Accesses is the session length (paper: 58).
	Accesses int
	// ThinkTime paces cursor movements.
	ThinkTime time.Duration
	// WAN and LAN are the link profiles for remote and local depots.
	WAN, LAN netsim.LinkProfile
	// CacheBytes is the client agent cache budget.
	CacheBytes int64
	// StripeSize for uploads; 0 lets lors pick.
	StripeSize int64
	// NoPrefetch disables prefetching (ablation; the paper always
	// prefetches).
	NoPrefetch bool
	// PrefetchPolicy selects the client agent's prefetch policy.
	// DefaultConfig sets the paper's quadrant; the 8-neighborhood is an
	// ablation, path-first prefetch the agent's own default.
	PrefetchPolicy agent.PrefetchPolicy
	// SuppressStageOnMiss enables the section 4.3 mitigation of pausing
	// staging while a miss is served (ablation).
	SuppressStageOnMiss bool
	// StageOrderPolicy selects staging order (ablation; default proximity).
	StageOrderPolicy agent.StageOrder
	// StageParallelism is the number of concurrent staging transfers.
	StageParallelism int
	// Replicas is the number of copies per stripe across server depots
	// (default 1; the paper's deployment replicated view sets across its
	// three California depots).
	Replicas int
}

// DefaultConfig returns the CI-scale configuration.
func DefaultConfig() Config {
	return Config{
		StepDeg:   10, // 18x36 lattice
		L:         3,  // 6x12 = 72 view sets, 7.5 degree windows
		Seed:      1,
		Accesses:  session.PaperAccessCount,
		ThinkTime: 80 * time.Millisecond,
		WAN: netsim.LinkProfile{
			Name: "wan", Latency: 35 * time.Millisecond,
			Bandwidth: 768 << 10, Shared: true,
		},
		LAN: netsim.LinkProfile{
			Name: "lan", Latency: 300 * time.Microsecond,
			Bandwidth: 60 << 20, Shared: true,
		},
		CacheBytes:       16 << 20,
		StripeSize:       64 << 10,
		StageParallelism: 12,
		PrefetchPolicy:   agent.PrefetchQuadrant,
	}
}

// PaperConfig returns the full-scale lattice (2.5 degrees, l=6). Sessions
// at paper resolutions take minutes; use for -full runs only.
func PaperConfig() Config {
	c := DefaultConfig()
	c.StepDeg = 2.5
	c.L = 6
	return c
}

// ParamsAt returns the database geometry at a sample-view resolution.
func (c Config) ParamsAt(res int) lightfield.Params {
	return lightfield.ScaledParams(c.StepDeg, c.L, res)
}

// ScaleRes maps a paper sample-view resolution (200..600) to the scaled
// resolution used by the default config: one quarter, so 200 -> 50,
// 300 -> 75, ..., 600 -> 150.
func ScaleRes(paperRes int) int { return paperRes / 4 }

// Deployment is one fully wired system instance.
type Deployment struct {
	Cfg    Config
	Case   Case
	Params lightfield.Params

	WANDepots []string
	LANDepots []string
	// WANDepotClosers shut down individual server depots — failure
	// injection hooks for tests.
	WANDepotClosers []func()
	DVSAddr         string
	Dialer          *netsim.Dialer

	SA *agent.ServerAgent
	CA *agent.ClientAgent

	closers []func()
}

// Close tears down all servers.
func (d *Deployment) Close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
}

func (d *Deployment) addCloser(f func()) { d.closers = append(d.closers, f) }

// startDepot launches one IBP depot with enough capacity for the whole
// database plus staging slack, returning its address.
func startDepot(capacity int64, copyDialer ibp.Dialer) (string, func(), error) {
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
	return addr, func() { srv.Close() }, nil
}

// Deploy builds the system for one case at one resolution and precomputes
// the database (the paper's offline generation on the cluster).
func Deploy(ctx context.Context, cfg Config, res int, cs Case) (*Deployment, error) {
	p := cfg.ParamsAt(res)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d := &Deployment{Cfg: cfg, Case: cs, Params: p}
	ok := false
	defer func() {
		if !ok {
			d.Close()
		}
	}()

	// The client-side dialer: every route defaults to LAN; server depots
	// and the DVS get WAN routes in cases 2 and 3.
	d.Dialer = netsim.NewDialer(cfg.LAN)

	dbBytes := p.UncompressedDBBytes() // generous: compressed is ~6x less
	capacity := dbBytes + dbBytes/2 + (8 << 20)

	// Server depots perform third-party copies toward the LAN depots
	// (case 3); those transfers cross the WAN once, so the copy dialer on
	// the source depot carries the WAN profile.
	copyDialer := netsim.NewDialer(cfg.WAN)
	copyDialer.ShareBucketsWith(d.Dialer) // one physical WAN pipe

	serverProfile := cfg.WAN
	if cs == Case1LAN {
		serverProfile = cfg.LAN
	}
	for i := 0; i < numWANDepots; i++ {
		addr, closer, err := startDepot(capacity, copyDialer)
		if err != nil {
			return nil, err
		}
		d.addCloser(closer)
		d.WANDepots = append(d.WANDepots, addr)
		d.WANDepotClosers = append(d.WANDepotClosers, closer)
		d.Dialer.SetRoute(addr, serverProfile)
	}
	for i := 0; i < numLANDepots; i++ {
		addr, closer, err := startDepot(capacity, nil)
		if err != nil {
			return nil, err
		}
		d.addCloser(closer)
		d.LANDepots = append(d.LANDepots, addr)
		d.Dialer.SetRoute(addr, cfg.LAN)
		copyDialer.SetRoute(addr, cfg.WAN) // source depot -> LAN depot crosses the WAN
	}

	// L-Bone directory: server depots far away, LAN depots near the
	// client at the origin.
	lb := lbone.NewServer()
	lbAddr, err := lb.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.addCloser(func() { lb.Close() })
	lbClient := &lbone.Client{BaseURL: "http://" + lbAddr}
	for i, addr := range d.WANDepots {
		if err := lbClient.Register(ctx, lbone.DepotRecord{
			Addr: addr, X: 100 + float64(i), Y: 100,
			Capacity: capacity, Free: capacity,
		}); err != nil {
			return nil, err
		}
	}
	for i, addr := range d.LANDepots {
		if err := lbClient.Register(ctx, lbone.DepotRecord{
			Addr: addr, X: 0.5 + 0.1*float64(i), Y: 0,
			Capacity: capacity, Free: capacity,
		}); err != nil {
			return nil, err
		}
	}

	// DVS root; remote in cases 2/3.
	dvsSrv := dvs.NewServer("")
	d.DVSAddr, err = dvsSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.addCloser(func() { dvsSrv.Close() })
	d.Dialer.SetRoute(d.DVSAddr, serverProfile)

	// Server agent with the procedural generator (transfer experiments do
	// not pay ray-casting cost; see DESIGN.md substitutions). Uploads use
	// an unshaped dialer: generation happened offline next to the depots.
	gen, err := lightfield.NewProceduralGenerator(p, cfg.Seed)
	if err != nil {
		return nil, err
	}
	d.SA, err = agent.NewServerAgent(agent.ServerAgentConfig{
		Dataset:    "neghip",
		Gen:        gen,
		Depots:     d.WANDepots,
		DVS:        &dvs.Client{Addr: d.DVSAddr},
		StripeSize: cfg.StripeSize,
		Replicas:   cfg.Replicas,
		Workers:    8,
	})
	if err != nil {
		return nil, err
	}
	d.addCloser(func() { d.SA.Close() })
	saAddr, err := d.SA.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	dvsSrv.Generate = agent.GenerateFunc(nil)
	if err := dvsSrv.RegisterAgent("neghip", saAddr); err != nil {
		return nil, err
	}
	if _, err := d.SA.PrecomputeAll(ctx); err != nil {
		return nil, fmt.Errorf("experiments: precompute: %w", err)
	}

	// Client agent. The LAN depots are discovered through the L-Bone, as
	// in the paper ("We use the L-Bone tools to dynamically identify
	// appropriate depots to serve as the network caches").
	var lanForStaging []string
	if cs == Case3Staged {
		near, err := lbClient.Lookup(ctx, 0, 0, numLANDepots, 1)
		if err != nil {
			return nil, err
		}
		for _, rec := range near {
			lanForStaging = append(lanForStaging, rec.Addr)
		}
		if len(lanForStaging) == 0 {
			return nil, fmt.Errorf("experiments: L-Bone found no LAN depots")
		}
	}
	d.CA, err = agent.NewClientAgent(agent.ClientAgentConfig{
		Dataset:             "neghip",
		Params:              p,
		DVS:                 &dvs.Client{Addr: d.DVSAddr, Dialer: d.Dialer},
		Dialer:              d.Dialer,
		CacheBytes:          cfg.CacheBytes,
		LANDepots:           lanForStaging,
		Prefetch:            !cfg.NoPrefetch,
		PrefetchPolicy:      cfg.PrefetchPolicy,
		SuppressStageOnMiss: cfg.SuppressStageOnMiss,
		StageOrderPolicy:    cfg.StageOrderPolicy,
		StageParallelism:    cfg.StageParallelism,
	})
	if err != nil {
		return nil, err
	}
	d.addCloser(d.CA.Close)
	ok = true
	return d, nil
}

// RunSession executes the standard orchestrated session against this
// deployment and returns the per-access records. In case 3, aggressive
// prestaging starts when the session starts ("As soon as visualization of
// a dataset begins").
func (d *Deployment) RunSession(ctx context.Context) ([]agent.AccessRecord, error) {
	script, err := session.StandardScript(d.Params, d.Cfg.Accesses, d.Cfg.Seed)
	if err != nil {
		return nil, err
	}
	v, err := agent.NewViewer(d.Params, d.CA)
	if err != nil {
		return nil, err
	}
	// PDA-style client: hold only the current view set, so every set
	// transition is a view set request, as in the paper's counting.
	v.MaxDecoded = 1
	if d.Case == Case3Staged {
		if _, err := d.CA.StartPrestaging(ctx); err != nil {
			return nil, err
		}
	}
	return session.Run(ctx, v, script, session.RunOptions{ThinkTime: d.Cfg.ThinkTime})
}

// RunCase deploys, runs one session, and tears down.
func RunCase(ctx context.Context, cfg Config, res int, cs Case) ([]agent.AccessRecord, error) {
	d, err := Deploy(ctx, cfg, res, cs)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return d.RunSession(ctx)
}
