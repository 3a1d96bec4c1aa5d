package steward

import (
	"context"
	"errors"
	"sync"
	"time"

	"lonviz/internal/edge"
	"lonviz/internal/obs"
)

// HotSetConfig wires demand-driven hot-set replication: the steward
// subscribes to the edge tier's popularity feed and pushes the hottest
// view sets toward the edge ahead of client demand, so the first access
// from a new tenant is already a LAN hit.
type HotSetConfig struct {
	// Feed returns the current hottest view sets, hottest first (typically
	// edge.Cache.Popularity().Top, or a /metrics-scraping adapter when the
	// steward runs on a different host than lfedged).
	Feed func(n int) []edge.HotItem
	// Warm replicates one view set toward the edge tier. The standard
	// implementation resolves the view set's exNode and calls edge.Warm
	// with the edge address.
	Warm func(ctx context.Context, hint string) error
	// TopN is how many feed entries each pass considers (default 8).
	TopN int
	// MinCount ignores feed entries below this decayed access count, so a
	// single stray view doesn't trigger replication (default 2).
	MinCount float64
	// Interval is the periodic pass spacing (default 5s).
	Interval time.Duration
	// Cooldown is the minimum time between warms of the same view set
	// (default 1m); the edge's own LRU keeps hot entries resident, so
	// re-warming sooner only burns WAN bandwidth.
	Cooldown time.Duration
}

// HotSetReplicator runs the feed→warm loop. Create with
// NewHotSetReplicator, start with Run; Trigger forces an early pass (the
// alert-plumbing hookup, mirroring the steward's audit triggers).
type HotSetReplicator struct {
	cfg     HotSetConfig
	trigger chan struct{}

	mu       sync.Mutex
	lastWarm map[string]time.Time
	warms    int64
	warmErrs int64
}

// NewHotSetReplicator validates the config and builds a replicator.
func NewHotSetReplicator(cfg HotSetConfig) (*HotSetReplicator, error) {
	if cfg.Feed == nil {
		return nil, errors.New("steward: hot-set replicator needs a popularity feed")
	}
	if cfg.Warm == nil {
		return nil, errors.New("steward: hot-set replicator needs a warm function")
	}
	if cfg.TopN <= 0 {
		cfg.TopN = 8
	}
	if cfg.MinCount <= 0 {
		cfg.MinCount = 2
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = time.Minute
	}
	return &HotSetReplicator{
		cfg:      cfg,
		trigger:  make(chan struct{}, 1),
		lastWarm: make(map[string]time.Time),
	}, nil
}

// RegisterMetrics publishes the warm counts of Stats into reg (scraped
// as steward.hotset.* at /metrics). Passing nil publishes into
// obs.Default().
func (h *HotSetReplicator) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default()
	}
	reg.RegisterSnapshot("steward.hotset", func() map[string]float64 {
		warms, warmErrors := h.Stats()
		return map[string]float64{"warms": float64(warms), "warm_errors": float64(warmErrors)}
	})
}

// Trigger requests an early pass. It never blocks; triggers coalesce
// into the Run loop like the steward's audit triggers.
func (h *HotSetReplicator) Trigger() {
	select {
	case h.trigger <- struct{}{}:
	default:
	}
}

// Stats reports cumulative warm attempts (succeeded, failed).
func (h *HotSetReplicator) Stats() (warms, warmErrors int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.warms, h.warmErrs
}

// Run executes periodic passes until ctx ends.
func (h *HotSetReplicator) Run(ctx context.Context) {
	t := time.NewTicker(h.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		case <-h.trigger:
		}
		h.RunOnce(ctx)
	}
}

// RunOnce executes one feed→warm pass and returns how many view sets it
// warmed.
func (h *HotSetReplicator) RunOnce(ctx context.Context) int {
	warmed := 0
	for _, item := range h.cfg.Feed(h.cfg.TopN) {
		if item.Count < h.cfg.MinCount {
			continue // hottest-first feed: everything below is colder
		}
		now := time.Now()
		h.mu.Lock()
		last, seen := h.lastWarm[item.Hint]
		if seen && now.Sub(last) < h.cfg.Cooldown {
			h.mu.Unlock()
			continue
		}
		h.lastWarm[item.Hint] = now
		h.mu.Unlock()
		err := h.cfg.Warm(ctx, item.Hint)
		h.mu.Lock()
		if err != nil {
			h.warmErrs++
			// Let the next pass retry instead of sitting out the cooldown.
			delete(h.lastWarm, item.Hint)
		} else {
			h.warms++
			warmed++
		}
		h.mu.Unlock()
		if err != nil {
			obs.DefaultLogger().WarnContext(ctx, obs.EvStewardHotsetWarm,
				"hint", item.Hint, "ok", false, "err", err)
			continue
		}
		obs.DefaultLogger().InfoContext(ctx, obs.EvStewardHotsetWarm, "hint", item.Hint, "ok", true)
		if ctx.Err() != nil {
			return warmed
		}
	}
	return warmed
}
