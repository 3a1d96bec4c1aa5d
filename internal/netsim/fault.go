// Fault injection: the paper's value proposition is that LoN-based
// browsing keeps working over a lossy, variable WAN, not just a clean one.
// FaultDialer wraps any dialer with deterministic, per-depot failure
// behaviour — refused connections, mid-stream drops, stalls that hang
// until the operation deadline, silent payload corruption, and latency
// spikes — so resilience tests can kill or degrade one specific depot and
// replay the exact same fault sequence from a seed.

package netsim

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"
)

// FaultProfile describes the failure behaviour injected on connections to
// one address. Probabilities are in [0,1]; a zero profile injects nothing.
type FaultProfile struct {
	// RefuseProb is the probability a dial fails outright (connection
	// refused) — the clean failure mode.
	RefuseProb float64
	// DropProb is the per-read probability the connection dies mid-stream
	// (the peer socket is closed under the reader).
	DropProb float64
	// StallProb is the per-connection probability that reads hang until
	// the connection deadline expires — the degraded-link failure mode
	// that distinguishes a sick depot from a dead one.
	StallProb float64
	// StallMax caps a stall on connections that carry no deadline
	// (default 2s), so an unbounded reader cannot hang a test forever.
	StallMax time.Duration
	// CorruptProb is the per-connection probability that one payload byte
	// is silently flipped. Corruption skips everything up to and including
	// the first newline, so protocol status lines survive and only the
	// binary payload is poisoned — the failure only checksums can catch.
	CorruptProb float64
	// SpikeProb is the per-connection probability of an added Spike delay
	// before the first read (a latency spike, not a failure).
	SpikeProb float64
	// Spike is the delay added when a spike fires (default 100ms).
	Spike time.Duration
}

func (p FaultProfile) zero() bool {
	return p.RefuseProb == 0 && p.DropProb == 0 && p.StallProb == 0 &&
		p.CorruptProb == 0 && p.SpikeProb == 0
}

// ErrInjectedRefusal is returned (wrapped) when a dial is refused by the
// fault layer.
var ErrInjectedRefusal = fmt.Errorf("netsim: injected connection refusal")

// ErrInjectedDrop is returned (wrapped) when a read dies mid-stream.
var ErrInjectedDrop = fmt.Errorf("netsim: injected connection drop")

// FaultDialer wraps an inner dialer (nil means plain TCP) with per-address
// fault profiles. All randomness comes from one seeded source, so a fixed
// seed replays the same fault decisions given the same operation sequence.
// It also counts dials per address, which lets tests assert that a
// circuit-open depot receives zero requests during its cooldown.
type FaultDialer struct {
	mu       sync.Mutex
	inner    UnderlyingDialer
	rng      *rand.Rand
	profiles map[string]FaultProfile
	fallback FaultProfile
	dials    map[string]int
	refused  map[string]int
}

// UnderlyingDialer is the connection source a FaultDialer wraps;
// *netsim.Dialer satisfies it.
type UnderlyingDialer interface {
	Dial(addr string) (net.Conn, error)
}

// netDial is the nil-inner fallback.
type netDial struct{}

func (netDial) Dial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// NewFaultDialer wraps inner (nil = plain TCP) with a deterministic fault
// source.
func NewFaultDialer(inner UnderlyingDialer, seed int64) *FaultDialer {
	if inner == nil {
		inner = netDial{}
	}
	return &FaultDialer{
		inner:    inner,
		rng:      rand.New(rand.NewSource(seed)),
		profiles: make(map[string]FaultProfile),
		dials:    make(map[string]int),
		refused:  make(map[string]int),
	}
}

// SetFault assigns a fault profile for connections to addr.
func (f *FaultDialer) SetFault(addr string, p FaultProfile) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.profiles[addr] = p
}

// SetFallback assigns the profile used for addresses without their own.
func (f *FaultDialer) SetFallback(p FaultProfile) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fallback = p
}

// Kill makes every dial to addr fail — a dead depot.
func (f *FaultDialer) Kill(addr string) { f.SetFault(addr, FaultProfile{RefuseProb: 1}) }

// Revive clears addr's profile — the depot is healthy again.
func (f *FaultDialer) Revive(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.profiles, addr)
}

// Dials reports how many connection attempts (including refused ones) have
// targeted addr.
func (f *FaultDialer) Dials(addr string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dials[addr]
}

// Refused reports how many dials to addr were refused by injection.
func (f *FaultDialer) Refused(addr string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.refused[addr]
}

// chance draws one seeded Bernoulli decision; callers must hold f.mu.
func (f *FaultDialer) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return f.rng.Float64() < p
}

// Dial implements the ibp.Dialer contract with faults applied. Per-
// connection decisions (stall, corrupt, spike) are drawn at dial time so a
// connection's fate is fixed by the seed and dial order.
func (f *FaultDialer) Dial(addr string) (net.Conn, error) {
	f.mu.Lock()
	p, ok := f.profiles[addr]
	if !ok {
		p = f.fallback
	}
	f.dials[addr]++
	if p.zero() {
		f.mu.Unlock()
		return f.inner.Dial(addr)
	}
	if f.chance(p.RefuseProb) {
		f.refused[addr]++
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: dial %s", ErrInjectedRefusal, addr)
	}
	fc := &faultConn{dialer: f, profile: p}
	fc.stall = f.chance(p.StallProb)
	fc.corrupt = f.chance(p.CorruptProb)
	if f.chance(p.SpikeProb) {
		fc.spike = p.Spike
		if fc.spike <= 0 {
			fc.spike = 100 * time.Millisecond
		}
	}
	f.mu.Unlock()
	conn, err := f.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	fc.Conn = conn
	return fc, nil
}

// dropChance draws a per-read drop decision.
func (f *FaultDialer) dropChance(p float64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.chance(p)
}

// faultConn applies a connection's drawn fate to its reads.
type faultConn struct {
	net.Conn
	dialer  *FaultDialer
	profile FaultProfile
	stall   bool
	corrupt bool
	spike   time.Duration

	spikeOnce sync.Once

	deadlineMu sync.Mutex
	deadline   time.Time

	sawNewline bool
	corrupted  bool
}

// SetDeadline records the deadline so stalls know when to give up, then
// forwards it.
func (c *faultConn) SetDeadline(t time.Time) error {
	c.deadlineMu.Lock()
	c.deadline = t
	c.deadlineMu.Unlock()
	return c.Conn.SetDeadline(t)
}

// SetReadDeadline records and forwards, like SetDeadline.
func (c *faultConn) SetReadDeadline(t time.Time) error {
	c.deadlineMu.Lock()
	c.deadline = t
	c.deadlineMu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

// stallOut sleeps until the recorded deadline (re-read in small steps so a
// cancellation that moves the deadline into the past takes effect), then
// reports a timeout — exactly what a hung remote looks like to the reader.
func (c *faultConn) stallOut() error {
	max := c.profile.StallMax
	if max <= 0 {
		max = 2 * time.Second
	}
	end := time.Now().Add(max)
	for {
		c.deadlineMu.Lock()
		dl := c.deadline
		c.deadlineMu.Unlock()
		if !dl.IsZero() && dl.Before(end) {
			end = dl
		}
		remaining := time.Until(end)
		if remaining <= 0 {
			return os.ErrDeadlineExceeded
		}
		step := 5 * time.Millisecond
		if remaining < step {
			step = remaining
		}
		time.Sleep(step)
	}
}

// Read applies, in order: the latency spike, the stall, the mid-stream
// drop, and payload corruption.
func (c *faultConn) Read(b []byte) (int, error) {
	c.spikeOnce.Do(func() {
		if c.spike > 0 {
			time.Sleep(c.spike)
		}
	})
	if c.stall {
		return 0, c.stallOut()
	}
	if c.dialer.dropChance(c.profile.DropProb) {
		c.Conn.Close()
		return 0, fmt.Errorf("%w: read", ErrInjectedDrop)
	}
	n, err := c.Conn.Read(b)
	if n > 0 && c.corrupt && !c.corrupted {
		c.corruptPayload(b[:n])
	}
	return n, err
}

// corruptPayload flips one bit of the first byte that lies beyond the
// response status line, so the wire protocol stays intact and only the
// binary payload is poisoned.
func (c *faultConn) corruptPayload(b []byte) {
	i := 0
	if !c.sawNewline {
		for ; i < len(b); i++ {
			if b[i] == '\n' {
				c.sawNewline = true
				i++
				break
			}
		}
	}
	if c.sawNewline && i < len(b) {
		b[i] ^= 0x80
		c.corrupted = true
	}
}
