// Package steward implements the maintenance layer the LoN substrate
// demands: IBP allocations are best-effort, time-limited leases on
// storage, so a published light-field database decays toward
// unreadability unless something renews its leases and re-replicates the
// extents that depots lose. The Steward adopts exNodes and keeps them
// healthy with a scan cycle modelled on the real LoRS maintenance tools:
//
//	audit   — probe every replica allocation (lors refresh's probe pass),
//	          verify a rotating sample of payloads against the stored
//	          CRC32, and classify replicas healthy / expiring / dead
//	renew   — Extend leases that fall inside the renewal window (refresh)
//	repair  — third-party-copy under-replicated extents from a healthy
//	          replica onto fresh depots from the locator (augment)
//	prune   — drop replicas that are gone for good (trim)
//	republish — push the updated exNode through the publish hook so
//	          browsing clients resolve the new layout
//
// Repair work runs in a bounded worker pool under a per-cycle budget so
// maintenance never starves foreground traffic, and every consequential
// action is logged as a steward.* record on the obs event log and counted
// once, in Stats; RegisterMetrics publishes Stats onto the /metrics
// endpoint (the steward.* metrics of docs/OBSERVABILITY.md), and cycles,
// alert audits and repair copies are traced as spans.
package steward

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"lonviz/internal/exnode"
	"lonviz/internal/ibp"
	"lonviz/internal/lors"
	"lonviz/internal/obs"
	"lonviz/internal/obs/prof"
)

// LocateFunc finds up to n candidate depot addresses with at least
// minFree bytes free, never returning an address in exclude. The lbone
// package is the standard backend (see LBoneLocator); tests supply
// closures.
type LocateFunc func(ctx context.Context, n int, minFree int64, exclude map[string]bool) ([]string, error)

// PublishFunc pushes a repaired/renewed exNode to whatever directory the
// browsing clients resolve from (typically dvs.Client.Replace). The
// steward passes a private copy; the hook may retain it.
type PublishFunc func(ctx context.Context, name string, ex *exnode.ExNode) error

// Stats is a cumulative snapshot of steward activity.
type Stats struct {
	Cycles           int64
	ExtentsAudited   int64
	ReplicasProbed   int64
	LeasesRenewed    int64
	RenewFailures    int64
	PayloadsVerified int64
	VerifyFailures   int64
	RepairsAttempted int64
	RepairsSucceeded int64
	ReplicasPruned   int64
	ExtentsLost      int64
	Republishes      int64
	PublishFailures  int64
	// AlertAudits counts targeted audits run because an SLO alert fired,
	// ahead of the periodic cycle.
	AlertAudits int64
}

// CycleReport summarizes one scan cycle; tests use it to detect
// convergence.
type CycleReport struct {
	Objects          int
	ExtentsAudited   int
	Healthy          int // replicas classified healthy (incl. renewed)
	Expiring         int // replicas that entered the renewal window
	Dead             int // replicas classified dead this cycle
	LeasesRenewed    int
	RepairsAttempted int
	RepairsSucceeded int
	ReplicasPruned   int
	// FullyReplicated reports whether every audited extent ended the
	// cycle with at least the target number of healthy replicas.
	FullyReplicated bool
}

// repairParallelism bounds concurrent repair transfers.
const repairParallelism = 2

// Config tunes a Steward. The zero value of every field has a sensible
// default, but a useful steward needs at least Publish (to be visible)
// or Locate (to repair).
type Config struct {
	// ReplicationTarget is the number of healthy replicas every extent is
	// kept at (default 2).
	ReplicationTarget int
	// RenewalWindow: leases expiring within this window are renewed
	// (default 5m).
	RenewalWindow time.Duration
	// LeaseTerm is the lease requested on renewals and repair allocations
	// (default 30m; must not exceed the depots' MaxLease).
	LeaseTerm time.Duration
	// ScanInterval is Run's cycle period (default 1m).
	ScanInterval time.Duration
	// RepairBudget caps repair copies per cycle across all objects
	// (default 16), so a mass failure cannot monopolize the depots.
	RepairBudget int
	// VerifyPerCycle is how many extents per object get a full payload
	// CRC verification each cycle, rotating round-robin (default 1;
	// negative disables sampling).
	VerifyPerCycle int
	// PruneAfter is how many consecutive cycles a replica must be
	// unreachable before it is pruned (default 2). Replicas whose
	// capability is positively gone — expired, revoked, unknown — are
	// pruned immediately.
	PruneAfter int
	// Policy is the allocation policy for repairs (default Stable).
	Policy ibp.Policy
	// Dialer shapes depot connections; nil means plain TCP.
	Dialer ibp.Dialer
	// Health, when set, is consulted before probing and told every
	// outcome, so the steward neither hammers a dead depot nor repairs
	// onto one whose circuit is open.
	Health *lors.HealthTracker
	// Locate discovers fresh depots for repair; nil disables repair.
	Locate LocateFunc
	// Publish pushes updated exNodes to the directory; nil disables
	// republishing (the steward still maintains its own copies).
	Publish PublishFunc
	// Timeout bounds each IBP operation (0 uses the ibp default, 30s).
	Timeout time.Duration
	// Clock supplies time (for tests); nil means time.Now.
	Clock func() time.Time
	// Obs is threaded into the steward's depot connections; nil records
	// into obs.Default().
	Obs *obs.Registry
}

func (c *Config) defaults() {
	if c.ReplicationTarget <= 0 {
		c.ReplicationTarget = 2
	}
	if c.RenewalWindow <= 0 {
		c.RenewalWindow = 5 * time.Minute
	}
	if c.LeaseTerm <= 0 {
		c.LeaseTerm = 30 * time.Minute
	}
	if c.ScanInterval <= 0 {
		c.ScanInterval = time.Minute
	}
	if c.RepairBudget <= 0 {
		c.RepairBudget = 16
	}
	if c.VerifyPerCycle == 0 {
		c.VerifyPerCycle = 1
	}
	if c.PruneAfter <= 0 {
		c.PruneAfter = 2
	}
	if c.Policy == "" {
		c.Policy = ibp.Stable
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
}

// object is one adopted exNode plus the steward's per-object audit state.
type object struct {
	ex *exnode.ExNode
	// verifyCursor rotates the payload-verification sample across cycles.
	verifyCursor int
	// unreach tracks consecutive unreachable cycles per replica (keyed
	// depot+readCap), feeding the PruneAfter policy.
	unreach map[string]int
	// dirty marks a layout change that has not been published yet (set on
	// change, cleared on successful publish, so a failed publish retries
	// next cycle).
	dirty bool
}

// Steward keeps adopted exNodes healthy. Create with New, feed it
// exNodes with Adopt, and drive it with Run (or RunCycle from a test,
// then Close).
type Steward struct {
	cfg Config
	// pipes keeps the steward's depot connections from cycle to cycle.
	pipes *ibp.PipePool

	// cycleMu serializes scan cycles; mu guards the maps and stats and is
	// never held across network I/O.
	cycleMu sync.Mutex
	mu      sync.Mutex
	objects map[string]*object
	stats   Stats
	// trigger carries alert-triggered audit requests into Run's select: a
	// depot address for a targeted audit, "" for a full early cycle.
	// queued coalesces duplicates while one is pending.
	trigger chan string
	queued  map[string]bool
}

// New builds a Steward.
func New(cfg Config) *Steward {
	cfg.defaults()
	return &Steward{
		cfg:     cfg,
		pipes:   &ibp.PipePool{Dialer: cfg.Dialer, Timeout: cfg.Timeout, Obs: cfg.Obs},
		objects: make(map[string]*object),
		trigger: make(chan string, 16),
		queued:  make(map[string]bool),
	}
}

// Adopt places an exNode under management, keyed by name (replacing any
// prior adoption of the same name). The steward works on a private deep
// copy.
func (s *Steward) Adopt(name string, ex *exnode.ExNode) error {
	if name == "" {
		return errors.New("steward: empty object name")
	}
	if err := ex.Validate(); err != nil {
		return fmt.Errorf("steward: adopting %q: %w", name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects[name] = &object{ex: ex.Clone(), unreach: make(map[string]int)}
	return nil
}

// Forget drops an object from management.
func (s *Steward) Forget(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.objects, name)
}

// Objects returns the adopted object names, sorted.
func (s *Steward) Objects() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.objects))
	for name := range s.objects {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ExNode returns a deep copy of the steward's current layout for name
// (nil if not adopted).
func (s *Steward) ExNode(name string) *exnode.ExNode {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[name]
	if !ok {
		return nil
	}
	return obj.ex.Clone()
}

// ReplicaCoverage reports, per adopted exNode, how many of its
// replicas are on live depots — the minimum over the object's extents,
// since the thinnest extent bounds the object's availability. up maps
// depot addresses to liveness (the fleet scraper passes the depot
// members currently in the up state); a nil map counts every replica.
// This is the fleet.replica.coverage source: layout intersected with
// live membership, so a dying depot moves coverage the moment the
// matrix marks it down, without waiting for a steward audit to probe
// capabilities.
func (s *Steward) ReplicaCoverage(up map[string]bool) map[string]float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]float64, len(s.objects))
	for name, obj := range s.objects {
		minLive := -1
		for i := range obj.ex.Extents {
			live := 0
			for _, r := range obj.ex.Extents[i].Replicas {
				if up == nil || up[r.Depot] {
					live++
				}
			}
			if minLive < 0 || live < minLive {
				minLive = live
			}
		}
		if minLive < 0 {
			continue // no extents: nothing to cover
		}
		out[name] = float64(minLive)
	}
	return out
}

// Stats returns a snapshot of cumulative counters.
func (s *Steward) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Steward) client(addr string) *ibp.Client { return s.pipes.Client(addr) }

// Close closes the steward's depot connections; a later cycle redials.
func (s *Steward) Close() { s.pipes.Close() }

// RegisterMetrics publishes this steward's cumulative Stats into reg
// (scraped as steward.* at /metrics). Passing nil publishes into
// obs.Default().
func (s *Steward) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default()
	}
	reg.RegisterSnapshot("steward", func() map[string]float64 {
		st := s.Stats()
		return map[string]float64{
			"cycles":            float64(st.Cycles),
			"extents_audited":   float64(st.ExtentsAudited),
			"renewals":          float64(st.LeasesRenewed),
			"renew_failures":    float64(st.RenewFailures),
			"verify_failures":   float64(st.VerifyFailures),
			"repairs_attempted": float64(st.RepairsAttempted),
			"repairs":           float64(st.RepairsSucceeded),
			"pruned":            float64(st.ReplicasPruned),
			"extents_lost":      float64(st.ExtentsLost),
			"republishes":       float64(st.Republishes),
			"alert_audits":      float64(st.AlertAudits),
		}
	})
}

// Run executes scan cycles every ScanInterval until ctx is cancelled.
// Between ticks it also services alert triggers (TriggerDepotAudit /
// TriggerCycle): a firing SLO alert gets its targeted audit immediately
// instead of waiting out the interval. It closes the steward's depot
// connections on return.
func (s *Steward) Run(ctx context.Context) error {
	defer s.Close()
	t := time.NewTicker(s.cfg.ScanInterval)
	defer t.Stop()
	for {
		if _, err := s.RunCycle(ctx); err != nil {
			return err
		}
	idle:
		for {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				break idle
			case depot := <-s.trigger:
				s.dequeue(depot)
				if depot == "" {
					break idle // full early cycle
				}
				if _, err := s.AuditDepot(ctx, depot); err != nil {
					return err
				}
			}
		}
	}
}

// TriggerDepotAudit asks Run for an immediate targeted audit of every
// adopted extent holding a replica on depot. Non-blocking and
// coalescing: duplicate triggers for a depot already queued are dropped,
// and so is everything when the queue is full (the periodic cycle is the
// backstop).
func (s *Steward) TriggerDepotAudit(depot string) {
	s.mu.Lock()
	if s.queued[depot] {
		s.mu.Unlock()
		return
	}
	s.queued[depot] = true
	s.mu.Unlock()
	select {
	case s.trigger <- depot:
	default:
		s.dequeue(depot)
	}
}

// TriggerCycle asks Run for an immediate full cycle ahead of the
// interval (the reaction to an aggregate alert that names no depot).
// Non-blocking and coalescing like TriggerDepotAudit.
func (s *Steward) TriggerCycle() { s.TriggerDepotAudit("") }

func (s *Steward) dequeue(depot string) {
	s.mu.Lock()
	delete(s.queued, depot)
	s.mu.Unlock()
}

// AuditDepot runs one targeted audit: every adopted object with a
// replica on depot gets a full audit pass with payload verification
// focused on that depot's replicas, so silent corruption there is found
// and repaired now rather than when the rotating sample eventually
// lands on it. Safe to call concurrently with RunCycle (they serialize).
func (s *Steward) AuditDepot(ctx context.Context, depot string) (CycleReport, error) {
	s.cycleMu.Lock()
	defer s.cycleMu.Unlock()
	ctx, span := obs.DefaultTracer().StartSpan(ctx, obs.SpanStewardAlertAudit)
	span.SetAttr("depot", depot)
	defer span.Finish()
	var report CycleReport
	budget := &repairBudget{left: s.cfg.RepairBudget}
	for _, name := range s.objectsOnDepot(depot) {
		if err := ctx.Err(); err != nil {
			return report, err
		}
		s.processObject(ctx, name, depot, budget, &report)
	}
	s.addStats(func(st *Stats) { st.AlertAudits++ })
	return report, ctx.Err()
}

// objectsOnDepot returns the adopted object names with at least one
// replica on depot, sorted.
func (s *Steward) objectsOnDepot(depot string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for name, obj := range s.objects {
		for i := range obj.ex.Extents {
			found := false
			for _, rep := range obj.ex.Extents[i].Replicas {
				if rep.Depot == depot {
					out = append(out, name)
					found = true
					break
				}
			}
			if found {
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// RunCycle executes one audit → renew → repair → prune → republish pass
// over every adopted object. It returns an error only when ctx is done;
// per-replica failures are events and counters, not errors.
func (s *Steward) RunCycle(ctx context.Context) (CycleReport, error) {
	s.cycleMu.Lock()
	defer s.cycleMu.Unlock()
	// Root one trace per maintenance cycle: repair copies the cycle issues
	// carry its trace onto the wire, so a depot-side ibp.serve span can be
	// attributed to "the steward's 14:05 cycle" rather than to a browsing
	// client.
	ctx, span := obs.DefaultTracer().StartSpan(ctx, obs.SpanStewardCycle)
	defer span.Finish()
	var report CycleReport
	budget := &repairBudget{left: s.cfg.RepairBudget}

	for _, name := range s.Objects() {
		if err := ctx.Err(); err != nil {
			return report, err
		}
		s.processObject(ctx, name, "", budget, &report)
	}

	report.FullyReplicated = report.ExtentsAudited > 0 &&
		report.RepairsAttempted == 0 && report.Dead == 0 &&
		report.Healthy >= report.ExtentsAudited*s.cfg.ReplicationTarget
	s.addStats(func(st *Stats) { st.Cycles++ })
	return report, ctx.Err()
}

// processObject audits one adopted object and publishes the updated
// layout, folding results into report. focusDepot "" is the periodic
// cycle's behavior (rotating verification sample); a depot address
// focuses payload verification on that depot's replicas across every
// extent (the alert-triggered audit).
func (s *Steward) processObject(ctx context.Context, name, focusDepot string, budget *repairBudget, report *CycleReport) {
	// Work on a private clone so readers of ExNode/Stats never see a
	// half-audited layout.
	s.mu.Lock()
	obj, ok := s.objects[name]
	if !ok {
		s.mu.Unlock()
		return // forgotten mid-cycle
	}
	ex := obj.ex.Clone()
	cursor := obj.verifyCursor
	dirty := obj.dirty
	unreach := obj.unreach
	s.mu.Unlock()

	report.Objects++
	changed := s.auditObject(ctx, name, ex, cursor, focusDepot, unreach, budget, report)
	dirty = dirty || changed

	if dirty && s.cfg.Publish != nil {
		if err := s.cfg.Publish(ctx, name, ex.Clone()); err != nil {
			obs.DefaultLogger().WarnContext(ctx, obs.EvStewardPublishFailed, "dataset", name, "err", err)
			s.addStats(func(st *Stats) { st.PublishFailures++ })
		} else {
			obs.DefaultLogger().InfoContext(ctx, obs.EvStewardPublish, "dataset", name)
			s.addStats(func(st *Stats) { st.Republishes++ })
			dirty = false
		}
	} else if dirty && s.cfg.Publish == nil {
		dirty = false // nowhere to publish; don't retry forever
	}

	nextCursor := cursor
	if focusDepot == "" && s.cfg.VerifyPerCycle > 0 && len(ex.Extents) > 0 {
		nextCursor = (cursor + s.cfg.VerifyPerCycle) % len(ex.Extents)
	}
	s.mu.Lock()
	if cur, ok := s.objects[name]; ok && cur == obj {
		obj.ex = ex
		obj.verifyCursor = nextCursor
		obj.dirty = dirty
	}
	s.mu.Unlock()
}

func (s *Steward) addStats(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// repairBudget is the per-cycle cap on repair copies.
type repairBudget struct {
	mu   sync.Mutex
	left int
}

func (b *repairBudget) take() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.left <= 0 {
		return false
	}
	b.left--
	return true
}

func replicaKey(r exnode.Replica) string { return r.Depot + "|" + r.ReadCap }

// replicaVerdict classifies one replica after the audit probe.
type replicaVerdict int

const (
	verdictHealthy replicaVerdict = iota
	verdictDead                   // positively gone or unreachable past PruneAfter
	verdictSuspect                // unreachable, within grace
)

// auditObject runs the full cycle for one object, mutating ex in place.
// It returns whether the layout changed (renewal timestamps, repairs,
// prunes). A non-empty focusDepot switches from the rotating
// verification sample to verifying that depot's replica on every extent
// holding one — the alert-triggered audit's corruption sweep.
func (s *Steward) auditObject(ctx context.Context, name string, ex *exnode.ExNode, cursor int, focusDepot string, unreach map[string]int, budget *repairBudget, report *CycleReport) bool {
	now := s.cfg.Clock()
	changed := false

	sampled := make(map[int]bool)
	switch {
	case focusDepot != "":
		for i := range ex.Extents {
			for _, rep := range ex.Extents[i].Replicas {
				if rep.Depot == focusDepot {
					sampled[i] = true
					break
				}
			}
		}
	case s.cfg.VerifyPerCycle > 0 && len(ex.Extents) > 0:
		for k := 0; k < s.cfg.VerifyPerCycle && k < len(ex.Extents); k++ {
			sampled[(cursor+k)%len(ex.Extents)] = true
		}
	}

	type repairJob struct {
		extIdx int
		need   int
	}
	var repairs []repairJob

	for i := range ex.Extents {
		ext := &ex.Extents[i]
		if err := ctx.Err(); err != nil {
			return changed
		}
		report.ExtentsAudited++
		s.addStats(func(st *Stats) { st.ExtentsAudited++ })

		verdicts := make([]replicaVerdict, len(ext.Replicas))
		for j := range ext.Replicas {
			verdicts[j] = s.auditReplica(ctx, name, ext, j, now, unreach, report, &changed)
		}

		// Payload sampling: verify one healthy replica's bytes against the
		// stored CRC32. A mismatch is depot-side corruption — the replica
		// is reclassified dead so it gets pruned and repaired like a lost
		// one.
		if sampled[i] && ext.Checksum != "" {
			for j := range ext.Replicas {
				if verdicts[j] != verdictHealthy {
					continue
				}
				// A focused audit verifies the suspect depot's replica, not
				// whichever healthy replica happens to come first.
				if focusDepot != "" && ext.Replicas[j].Depot != focusDepot {
					continue
				}
				rep := ext.Replicas[j]
				data, err := s.client(rep.Depot).Load(ctx, rep.ReadCap, rep.AllocOffset, ext.Length)
				if err == nil {
					err = ext.VerifyData(data)
				}
				if err == nil {
					s.addStats(func(st *Stats) { st.PayloadsVerified++ })
				} else {
					obs.DefaultLogger().WarnContext(ctx, obs.EvStewardVerifyFailed,
						"dataset", name, "extent", ext.Offset, "depot", rep.Depot, "err", err)
					s.addStats(func(st *Stats) { st.VerifyFailures++ })
					verdicts[j] = verdictDead
					report.Healthy--
					report.Dead++
				}
				break // one sampled replica per extent per cycle
			}
		}

		healthy := 0
		for _, v := range verdicts {
			if v == verdictHealthy {
				healthy++
			}
		}

		// Prune dead replicas, but never below one remaining replica: if
		// everything is gone the extent is lost and the stale entries are
		// the only forensic trail (and the depots might come back).
		if healthy > 0 {
			kept := ext.Replicas[:0]
			for j, rep := range ext.Replicas {
				if verdicts[j] == verdictDead {
					obs.DefaultLogger().InfoContext(ctx, obs.EvStewardPrune,
						"dataset", name, "extent", ext.Offset, "depot", rep.Depot)
					s.addStats(func(st *Stats) { st.ReplicasPruned++ })
					report.ReplicasPruned++
					delete(unreach, replicaKey(rep))
					changed = true
					continue
				}
				kept = append(kept, rep)
			}
			ext.Replicas = kept
		} else {
			obs.DefaultLogger().WarnContext(ctx, obs.EvStewardExtentLost, "dataset", name, "extent", ext.Offset)
			s.addStats(func(st *Stats) { st.ExtentsLost++ })
			continue // no healthy source: nothing to repair from
		}

		if healthy < s.cfg.ReplicationTarget && s.cfg.Locate != nil {
			repairs = append(repairs, repairJob{extIdx: i, need: s.cfg.ReplicationTarget - healthy})
		}
	}

	// Repair pass: bounded worker pool, per-cycle budget. Each job owns
	// its extent, so concurrent appends never collide; per-job results are
	// folded into the report only after the pool drains.
	if len(repairs) > 0 {
		sem := make(chan struct{}, repairParallelism)
		var wg sync.WaitGroup
		results := make([]repairResult, len(repairs))
		for k, job := range repairs {
			wg.Add(1)
			sem <- struct{}{}
			go func(k int, job repairJob) {
				defer wg.Done()
				defer func() { <-sem }()
				results[k] = s.repairExtent(ctx, name, &ex.Extents[job.extIdx], job.need, now, budget)
			}(k, job)
		}
		wg.Wait()
		for _, res := range results {
			report.RepairsAttempted += res.attempted
			report.RepairsSucceeded += res.succeeded
			changed = changed || res.succeeded > 0
		}
	}
	return changed
}

// auditReplica probes one replica, renewing its lease when it is inside
// the renewal window, and returns its verdict. It mutates the replica's
// recorded expiry in place.
func (s *Steward) auditReplica(ctx context.Context, name string, ext *exnode.Extent, j int, now time.Time, unreach map[string]int, report *CycleReport, changed *bool) replicaVerdict {
	rep := &ext.Replicas[j]
	key := replicaKey(*rep)

	markUnreachable := func() replicaVerdict {
		unreach[key]++
		if unreach[key] >= s.cfg.PruneAfter {
			report.Dead++
			return verdictDead
		}
		return verdictSuspect
	}

	// A circuit-open depot is not probed at all: the breaker exists so
	// nobody hammers it during the cooldown. It still counts as an
	// unreachable cycle for the prune policy.
	if s.cfg.Health != nil && !s.cfg.Health.Allow(rep.Depot) {
		return markUnreachable()
	}

	if rep.ManageCap == "" {
		// Read-only replica: cannot be probed or renewed. Count it
		// healthy; downloads will discover the truth.
		report.Healthy++
		return verdictHealthy
	}

	cl := s.client(rep.Depot)
	s.addStats(func(st *Stats) { st.ReplicasProbed++ })
	info, err := cl.Probe(ctx, rep.ManageCap)
	if err != nil {
		if capGone(err) {
			// The allocation is positively gone — lease expired, volatile
			// revocation, or an unknown capability. Dead immediately.
			s.cfg.Health.ReportSuccess(rep.Depot) // the depot answered
			delete(unreach, key)
			report.Dead++
			return verdictDead
		}
		s.cfg.Health.ReportFailure(rep.Depot)
		return markUnreachable()
	}
	s.cfg.Health.ReportSuccess(rep.Depot)
	delete(unreach, key)
	if rep.Expiry() != info.Expires {
		rep.SetExpiry(info.Expires)
		*changed = true
	}

	if info.Expires.Sub(now) <= s.cfg.RenewalWindow {
		report.Expiring++
		exp, err := cl.Extend(ctx, rep.ManageCap, s.cfg.LeaseTerm)
		if err != nil {
			if capGone(err) {
				report.Dead++
				return verdictDead
			}
			obs.DefaultLogger().WarnContext(ctx, obs.EvStewardRenewFailed,
				"dataset", name, "extent", ext.Offset, "depot", rep.Depot, "err", err)
			s.addStats(func(st *Stats) { st.RenewFailures++ })
			// Still alive until its lease actually runs out.
			report.Healthy++
			return verdictHealthy
		}
		rep.SetExpiry(exp)
		*changed = true
		obs.DefaultLogger().DebugContext(ctx, obs.EvStewardRenew, "dataset", name, "extent", ext.Offset, "depot", rep.Depot)
		s.addStats(func(st *Stats) { st.LeasesRenewed++ })
		report.LeasesRenewed++
	}
	report.Healthy++
	return verdictHealthy
}

// capGone reports errors that mean the allocation no longer exists (as
// opposed to the depot being unreachable).
func capGone(err error) bool {
	return errors.Is(err, ibp.ErrNoCap) || errors.Is(err, ibp.ErrExpired) || errors.Is(err, ibp.ErrRevoked)
}

// repairResult is one repair job's contribution to the cycle report.
type repairResult struct {
	attempted, succeeded int
}

// repairExtent restores up to need replicas for one extent by third-party
// copy from a surviving replica onto fresh depots from the locator. It
// runs on a worker-pool goroutine, so it touches only its own extent and
// reports counters via the returned result, never the shared CycleReport.
func (s *Steward) repairExtent(ctx context.Context, name string, ext *exnode.Extent, need int, now time.Time, budget *repairBudget) repairResult {
	var res repairResult
	// CPU attribution: background repair traffic profiles under
	// {class=steward_repair}, so a capture taken during a user-facing
	// latency alert shows whether repair copies were competing for CPU.
	lctx := prof.Begin1(ctx, prof.KeyClass, "steward_repair")
	defer prof.End(ctx)
	ctx = lctx
	// Exclude every depot already holding this extent — healthy or not —
	// so repair increases depot diversity instead of doubling up.
	exclude := make(map[string]bool, len(ext.Replicas))
	for _, rep := range ext.Replicas {
		exclude[rep.Depot] = true
	}
	sources := allowedSources(s.cfg.Health, ext.Replicas)
	if len(sources) == 0 {
		return res
	}

	countAttempt := func() {
		res.attempted++
		s.addStats(func(st *Stats) { st.RepairsAttempted++ })
	}
	for placed := 0; placed < need; placed++ {
		if err := ctx.Err(); err != nil {
			return res
		}
		if !budget.take() {
			return res // per-cycle budget exhausted; next cycle continues
		}
		candidates, err := s.cfg.Locate(ctx, need-placed+1, ext.Length, exclude)
		if err != nil || len(candidates) == 0 {
			countAttempt()
			obs.DefaultLogger().WarnContext(ctx, obs.EvStewardRepairDone, "dataset", name, "extent", ext.Offset,
				"depot", "", "ok", false, "err", firstErr(err, errors.New("steward: no candidate depots")))
			return res
		}
		placedHere := false
		for _, addr := range candidates {
			if exclude[addr] {
				continue
			}
			if s.cfg.Health != nil && !s.cfg.Health.Allow(addr) {
				continue
			}
			countAttempt()
			rctx, rspan := obs.DefaultTracer().StartSpan(ctx, obs.SpanStewardRepair)
			rspan.SetAttr("object", name)
			rspan.SetAttr("depot", addr)
			rep, err := s.copyOnto(rctx, ext, sources, addr)
			if err != nil {
				rspan.SetAttr("err", err.Error())
				rspan.Finish()
				s.cfg.Health.ReportFailure(addr)
				obs.DefaultLogger().WarnContext(rctx, obs.EvStewardRepairDone,
					"dataset", name, "extent", ext.Offset, "depot", addr, "ok", false, "err", err)
				continue
			}
			rspan.Finish()
			s.cfg.Health.ReportSuccess(addr)
			obs.DefaultLogger().InfoContext(rctx, obs.EvStewardRepairDone,
				"dataset", name, "extent", ext.Offset, "depot", addr, "ok", true)
			rep.SetExpiry(now.Add(s.cfg.LeaseTerm))
			ext.Replicas = append(ext.Replicas, rep)
			exclude[addr] = true
			s.addStats(func(st *Stats) { st.RepairsSucceeded++ })
			res.succeeded++
			placedHere = true
			break
		}
		if !placedHere {
			return res // no candidate worked; retry next cycle
		}
	}
	return res
}

// copyOnto allocates on addr and third-party-copies the extent there from
// the first source that succeeds, then reads it back and verifies the
// payload CRC: a corrupt repair would otherwise be advertised as healthy
// redundancy. On failure the target allocation is freed rather than leaked.
func (s *Steward) copyOnto(ctx context.Context, ext *exnode.Extent, sources []exnode.Replica, addr string) (exnode.Replica, error) {
	target := s.client(addr)
	caps, err := target.Allocate(ctx, ext.Length, s.cfg.LeaseTerm, s.cfg.Policy)
	if err != nil {
		return exnode.Replica{}, fmt.Errorf("allocate: %w", err)
	}
	free := func() { _ = target.Free(context.WithoutCancel(ctx), caps.Manage) }

	var lastErr error
	copied := false
	for _, src := range sources {
		if err := s.client(src.Depot).Copy(ctx, src.ReadCap, src.AllocOffset, ext.Length, addr, caps.Write, 0); err != nil {
			lastErr = err
			continue
		}
		copied = true
		break
	}
	if !copied {
		free()
		return exnode.Replica{}, fmt.Errorf("copy: %w", lastErr)
	}
	if ext.Checksum != "" {
		data, err := target.Load(ctx, caps.Read, 0, ext.Length)
		if err == nil {
			err = ext.VerifyData(data)
		}
		if err != nil {
			free()
			return exnode.Replica{}, fmt.Errorf("verify: %w", err)
		}
	}
	return exnode.Replica{Depot: addr, ReadCap: caps.Read, ManageCap: caps.Manage}, nil
}

// allowedSources filters replicas to plausibly readable copy sources.
func allowedSources(h *lors.HealthTracker, reps []exnode.Replica) []exnode.Replica {
	out := make([]exnode.Replica, 0, len(reps))
	for _, r := range reps {
		if h != nil && !h.Allow(r.Depot) {
			continue
		}
		out = append(out, r)
	}
	return out
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
