// Package edge implements the cooperative edge cache tier: a shared,
// multi-tenant read-through cache that sits between client agents and the
// depot pool, close to the consumers (Bethel et al.'s "network data cache"
// argument applied to the paper's view-set streaming). It speaks the IBP
// line protocol's LOAD/STATUS subset, so a rewritten exNode replica makes
// it a drop-in preferred replica for the existing lors download path: the
// first client to miss pulls the view set through the edge across the WAN,
// and every later client — any tenant, any agent — hits it at LAN cost.
//
// The cache core is a sharded, byte-capacity-bounded LRU with single-flight
// fills: concurrent misses on the same extent coalesce into one origin
// fetch. A popularity tracker (windowed access counts with exponential
// decay) rides every request and is exported through obs, so lftop, the
// TSDB, and the steward's hot-set replicator all see the same hot set.
package edge

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"lonviz/internal/ibp"
	"lonviz/internal/lru"
	"lonviz/internal/obs"
	"lonviz/internal/obs/prof"
	"lonviz/internal/singleflight"
)

// CacheConfig sizes and wires one edge cache.
type CacheConfig struct {
	// CapacityBytes bounds the total cached payload (required).
	CapacityBytes int64
	// Shards is the number of independent LRU shards (default 16, clamped
	// so every shard holds at least one typical extent).
	Shards int
	// Dialer shapes connections to origin depots on fills; nil means plain
	// TCP.
	Dialer ibp.Dialer
	// FillTimeout bounds one origin fill (default 30s). Fills run detached
	// from any single waiter's cancellation — the extent someone else is
	// waiting on must not die with the first impatient client — so this,
	// not the caller's deadline, stops a wedged fill.
	FillTimeout time.Duration
	// HalfLife is the popularity tracker's decay half-life (default 30s).
	HalfLife time.Duration
	// PipelineWindow caps in-flight requests on the cache's pipelined
	// origin connections: fills ride one persistent multiplexed
	// connection per depot instead of dialing per extent (kept untagged
	// connections for depots that don't speak PIPELINE). 0 or negative
	// means ibp.DefaultPipelineWindow.
	PipelineWindow int
	// Obs receives the origin connections' ibp.* families; nil records
	// into obs.Default(). The cache's own counts live in Stats, published
	// by RegisterMetrics.
	Obs *obs.Registry
}

// CacheStats is a point-in-time view of edge cache accounting.
type CacheStats struct {
	Capacity, Used int64
	Entries        int
	// Hits/Misses classify LOADs against the cached set; Fills counts
	// origin fetches actually performed (single-flight: concurrent misses
	// on one extent fill once), Coalesced the misses that piggybacked on
	// an in-flight fill, FillErrors the fills that failed.
	Hits, Misses, Fills, FillErrors, Coalesced int64
	Evictions                                  int64
	// FilledSets is the number of distinct view sets that crossed the WAN
	// at least once (distinct fill hints) — the denominator-free form of
	// the "each view set fetched from the depot at most once" claim.
	FilledSets int
	// Refills counts fills of an extent the cache had already filled
	// before (possible only after an eviction); zero means every extent
	// crossed the WAN exactly once.
	Refills int64
}

// Cache is the sharded single-flight read-through cache core.
type Cache struct {
	cfg    CacheConfig
	shards []*lru.Cache // independently locked, one per key hash
	// flights coalesces concurrent fills of the same extent.
	flights singleflight.Group[string, []byte]
	pop     *Popularity
	// pipes holds one persistent pipelined connection per origin depot;
	// fills load straight into the cache entry's buffer over it.
	pipes *ibp.PipePool

	fills, fillErrors, coalesced atomic.Int64

	// fillMu guards the fill-history sets behind FilledSets/Refills.
	fillMu      sync.Mutex
	filledKeys  map[string]struct{}
	filledHints map[string]struct{}
	refills     int64
}

// NewCache builds an edge cache.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if cfg.CapacityBytes <= 0 {
		return nil, fmt.Errorf("edge: non-positive cache capacity %d", cfg.CapacityBytes)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	// Every shard must be able to hold at least one typical extent; with a
	// tiny total budget, fewer shards beat shards that can cache nothing.
	for cfg.Shards > 1 && cfg.CapacityBytes/int64(cfg.Shards) < 256<<10 {
		cfg.Shards /= 2
	}
	if cfg.FillTimeout <= 0 {
		cfg.FillTimeout = 30 * time.Second
	}
	if cfg.HalfLife <= 0 {
		cfg.HalfLife = 30 * time.Second
	}
	c := &Cache{
		cfg:         cfg,
		pop:         NewPopularity(cfg.HalfLife),
		filledKeys:  make(map[string]struct{}),
		filledHints: make(map[string]struct{}),
		pipes: &ibp.PipePool{
			Dialer:  cfg.Dialer,
			Window:  cfg.PipelineWindow,
			Timeout: cfg.FillTimeout,
			Obs:     cfg.Obs,
		},
	}
	for i := 0; i < cfg.Shards; i++ {
		sh, err := lru.New(cfg.CapacityBytes / int64(cfg.Shards))
		if err != nil {
			return nil, fmt.Errorf("edge: %w", err)
		}
		c.shards = append(c.shards, sh)
	}
	return c, nil
}

// Popularity exposes the cache's hot-set tracker (the steward's
// replication feed and lftop's hot-set pane read it).
func (c *Cache) Popularity() *Popularity { return c.pop }

// Close tears down the cache's pipelined origin connections.
func (c *Cache) Close() { c.pipes.Close() }

func (c *Cache) shard(key string) *lru.Cache {
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.shards[int(h.Sum32())%len(c.shards)]
}

// cacheKey names one cached extent: the origin allocation plus the exact
// byte range. Every client resolves the same exNode from the DVS, so the
// key is identical across tenants and the first fill serves them all.
func cacheKey(cap Cap, off, length int64) string {
	return fmt.Sprintf("%s\x00%s\x00%d\x00%d", cap.OriginDepot, cap.OriginCap, off, length)
}

// Load serves one extent read through the cache: a hit returns cached
// bytes, a miss fills from the origin depot (single-flight per extent) and
// caches the result. hit reports the cache outcome for access-class
// accounting.
func (c *Cache) Load(ctx context.Context, cp Cap, off, length int64) (data []byte, hit bool, err error) {
	c.pop.Record(cp.Hint)
	key := cacheKey(cp, off, length)
	sh := c.shard(key)
	if data, ok := sh.Get(key); ok {
		return data, true, nil
	}
	data, shared, err := c.flights.Do(ctx, key, func(fctx context.Context) ([]byte, error) {
		fctx, cancel := context.WithTimeout(fctx, c.cfg.FillTimeout)
		defer cancel()
		return c.fill(fctx, cp, off, length)
	})
	if err != nil {
		return nil, false, err
	}
	if shared {
		c.coalesced.Add(1)
	}
	return data, false, nil
}

// fill fetches one extent from its origin depot and caches it.
func (c *Cache) fill(ctx context.Context, cp Cap, off, length int64) ([]byte, error) {
	// CPU attribution: miss-path origin fetches profile under
	// {class=edge_fill, depot=<origin>}, separating fill cost from the
	// hit path and naming the depot a stuck fill is waiting on.
	lctx := prof.Begin2(ctx, prof.KeyClass, "edge_fill", prof.KeyDepot, cp.OriginDepot)
	defer prof.End(ctx)
	ctx = lctx
	_, span := obs.DefaultTracer().StartSpan(ctx, obs.SpanEdgeFill)
	span.SetAttr("origin", cp.OriginDepot)
	defer span.Finish()
	// The cache entry is allocated once at its final size and filled off
	// the wire in place — no staging buffer, and a persistent pipelined
	// connection to the origin when the depot speaks PIPELINE.
	data := make([]byte, length)
	err := c.pipes.LoadInto(ctx, cp.OriginDepot, cp.OriginCap, off, data)
	if err != nil {
		c.fillErrors.Add(1)
		span.SetAttr("err", err.Error())
		obs.DefaultLogger().WarnContext(ctx, obs.EvEdgeFillErr,
			"origin", cp.OriginDepot, "hint", cp.Hint, "err", err)
		return nil, err
	}
	c.fills.Add(1)
	key := cacheKey(cp, off, length)
	c.fillMu.Lock()
	if _, again := c.filledKeys[key]; again {
		c.refills++
	} else {
		c.filledKeys[key] = struct{}{}
	}
	if cp.Hint != "" {
		c.filledHints[cp.Hint] = struct{}{}
	}
	c.fillMu.Unlock()
	_ = c.shard(key).Put(key, data) // larger than a shard: served, not cached
	return data, nil
}

// Stats returns current accounting.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{
		Fills:      c.fills.Load(),
		FillErrors: c.fillErrors.Load(),
		Coalesced:  c.coalesced.Load(),
	}
	c.fillMu.Lock()
	st.FilledSets = len(c.filledHints)
	st.Refills = c.refills
	c.fillMu.Unlock()
	for _, sh := range c.shards {
		s := sh.Stats()
		st.Capacity += s.Capacity
		st.Used += s.Used
		st.Entries += s.Entries
		st.Hits += s.Hits
		st.Misses += s.Misses
		st.Evictions += s.Evictions
	}
	return st
}

// RegisterMetrics publishes the cache's Stats and the hot set into reg
// (scraped as edge.* at /metrics), at zero on an idle edge; passing nil
// publishes into obs.Default(). Hot-set entries appear as
// edge.hot.<viewset> with their decayed counts.
func (c *Cache) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default()
	}
	reg.RegisterSnapshot("edge", func() map[string]float64 {
		st := c.Stats()
		hitRate := 0.0
		if total := st.Hits + st.Misses; total > 0 {
			hitRate = float64(st.Hits) / float64(total)
		}
		out := map[string]float64{
			"hits":            float64(st.Hits),
			"misses":          float64(st.Misses),
			"fills":           float64(st.Fills),
			"fill_errors":     float64(st.FillErrors),
			"cache.capacity":  float64(st.Capacity),
			"cache.used":      float64(st.Used),
			"cache.entries":   float64(st.Entries),
			"cache.evictions": float64(st.Evictions),
			"cache.hit_rate":  hitRate,
		}
		for _, it := range c.pop.Top(16) {
			out["hot."+it.Hint] = it.Count
		}
		return out
	})
}
