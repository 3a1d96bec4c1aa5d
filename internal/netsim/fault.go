// Fault injection: the paper's value proposition is that LoN-based
// browsing keeps working over a lossy, variable WAN, not just a clean one.
// FaultDialer wraps any dialer with deterministic, per-depot failure
// behaviour — refused connections, mid-stream drops, stalls that hang
// until the operation deadline, silent payload corruption, and latency
// spikes — so resilience tests can kill or degrade one specific depot and
// replay the exact same fault sequence from a seed.
//
// Every fault but a refusal is drawn per reply, so a connection kept for a
// whole session meets them as often as one dialed per operation would. To
// find each reply, the fault layer frames the IBP line protocol
// (docs/PROTOCOL.md): a request is one line, plus for STORE the payload
// its third argument counts; a reply is one status line, prefixed "T<n> "
// on a connection upgraded by PIPELINE, plus for an OK to a LOAD the body
// its last field counts. Bytes that answer no request seen are a reply
// without a body.

package netsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// FaultProfile describes the failure behaviour injected on connections to
// one address, from the moment it is set: on open connections too.
// Probabilities are in [0,1]; a zero profile injects nothing.
type FaultProfile struct {
	// RefuseProb is the probability a dial fails outright (connection
	// refused) — the clean failure mode.
	RefuseProb float64
	// DropProb is the per-reply probability the connection dies as the
	// reply starts (the peer socket is closed under the reader).
	DropProb float64
	// StallProb is the per-reply probability that the reply never comes:
	// reads hang until the connection deadline expires, and the connection
	// stays stalled — the degraded-link failure mode that distinguishes a
	// sick depot from a dead one.
	StallProb float64
	// StallMax caps a stall on connections that carry no deadline
	// (default 2s), so an unbounded reader cannot hang a test forever.
	StallMax time.Duration
	// CorruptProb is the per-reply probability that one bit of the reply's
	// body is silently flipped. The status line survives and a reply
	// without a body is left alone: the failure only checksums can catch.
	CorruptProb float64
	// SpikeProb is the per-reply probability of an added Spike delay
	// before the reply (a latency spike, not a failure).
	SpikeProb float64
	// Spike is the delay added when a spike fires (default 100ms).
	Spike time.Duration
}

// ErrInjectedRefusal is returned (wrapped) when a dial is refused by the
// fault layer.
var ErrInjectedRefusal = fmt.Errorf("netsim: injected connection refusal")

// ErrInjectedDrop is returned (wrapped) when a read dies mid-stream.
var ErrInjectedDrop = fmt.Errorf("netsim: injected connection drop")

// FaultDialer wraps an inner dialer (nil means plain TCP) with per-address
// fault profiles. All randomness comes from one seeded source, so a fixed
// seed replays the same fault decisions given the same sequence of dials
// and replies. It also counts dials per address, which lets tests assert
// that a circuit-open depot receives zero requests during its cooldown:
// Kill breaks the open connections, so reaching a killed depot takes a
// dial.
type FaultDialer struct {
	mu       sync.Mutex
	inner    UnderlyingDialer
	rng      *rand.Rand
	profiles map[string]FaultProfile
	fallback FaultProfile
	dials    map[string]int
	refused  map[string]int
	live     map[string]map[*faultConn]bool
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
		live:     make(map[string]map[*faultConn]bool),
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

// Kill makes every dial to addr fail and breaks the open connections to it
// — a dead depot.
func (f *FaultDialer) Kill(addr string) {
	f.mu.Lock()
	f.profiles[addr] = FaultProfile{RefuseProb: 1}
	live := f.live[addr]
	delete(f.live, addr)
	f.mu.Unlock()
	for c := range live {
		c.Conn.Close()
	}
}

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

// profile returns addr's profile; callers must hold f.mu.
func (f *FaultDialer) profile(addr string) FaultProfile {
	if p, ok := f.profiles[addr]; ok {
		return p
	}
	return f.fallback
}

// chance draws one seeded Bernoulli decision; callers must hold f.mu.
func (f *FaultDialer) chance(p float64) bool {
	return p >= 1 || p > 0 && f.rng.Float64() < p
}

// Dial implements the ibp.Dialer contract with faults applied: the refusal
// is decided here, the rest reply by reply.
func (f *FaultDialer) Dial(addr string) (net.Conn, error) {
	f.mu.Lock()
	f.dials[addr]++
	if f.chance(f.profile(addr).RefuseProb) {
		f.refused[addr]++
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: dial %s", ErrInjectedRefusal, addr)
	}
	f.mu.Unlock()
	conn, err := f.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	fc := &faultConn{Conn: conn, dialer: f, addr: addr, byTag: make(map[string]bool), rbuf: make([]byte, 32<<10)}
	f.mu.Lock()
	if f.live[addr] == nil {
		f.live[addr] = make(map[*faultConn]bool)
	}
	f.live[addr][fc] = true
	f.mu.Unlock()
	return fc, nil
}

// faultConn frames the requests written and the replies read on one
// connection, and applies each reply's fate as it starts.
type faultConn struct {
	net.Conn
	dialer *FaultDialer
	addr   string

	deadlineMu sync.Mutex
	deadline   time.Time

	// The writer's: the request line so far, and the payload bytes of the
	// current request still to pass.
	wline []byte
	wskip int

	// Requests awaiting their reply, untagged in order and tagged by tag;
	// the value says the reply carries a body.
	mu      sync.Mutex
	inOrder []bool
	byTag   map[string]bool

	// The reader's.
	rbuf     []byte
	pending  []byte // read from Conn, not yet handed out
	rline    []byte // the status line so far
	inReply  bool   // the current reply's fate has been drawn
	body     int    // body bytes of the current reply still to come
	corrupt  bool   // the next body byte gets a flipped bit
	stallMax time.Duration
}

// maxFramedLine bounds how much of a line the framing keeps: no line of
// the protocol is longer.
const maxFramedLine = 4096

func appendBounded(line, b []byte) []byte {
	return append(line, b[:min(len(b), max(0, maxFramedLine-len(line)))]...)
}

// Write records the requests in b before they leave, so no reply can
// arrive ahead of what it answers.
func (c *faultConn) Write(b []byte) (int, error) {
	for rest := b; len(rest) > 0; {
		if c.wskip > 0 {
			k := min(c.wskip, len(rest))
			c.wskip, rest = c.wskip-k, rest[k:]
			continue
		}
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			c.wline = appendBounded(c.wline, rest)
			break
		}
		f := strings.Fields(string(appendBounded(c.wline, rest[:i])))
		c.wline, rest = c.wline[:0], rest[i+1:]
		if len(f) == 0 {
			continue
		}
		if f[0] == "STORE" && len(f) >= 4 {
			c.wskip, _ = strconv.Atoi(f[3])
		}
		c.mu.Lock()
		if i := tagIndex(f); i > 0 {
			c.byTag[f[i][len("tag="):]] = f[0] == "LOAD"
		} else {
			c.inOrder = append(c.inOrder, f[0] == "LOAD")
		}
		c.mu.Unlock()
	}
	return c.Conn.Write(b)
}

// tagIndex finds the tag= token, which precedes any deadline= and trace=
// tokens; 0 means none.
func tagIndex(f []string) int {
	for i := len(f) - 1; i > 0; i-- {
		if strings.HasPrefix(f[i], "tag=") {
			return i
		}
	}
	return 0
}

// bodyOf returns how many body bytes follow a status line, claiming the
// request it answers.
func (c *faultConn) bodyOf(line string) int {
	f := strings.Fields(line)
	var body bool
	c.mu.Lock()
	if len(f) > 0 && len(f[0]) > 1 && f[0][0] == 'T' {
		body = c.byTag[f[0][1:]]
		delete(c.byTag, f[0][1:])
		f = f[1:]
	} else if len(c.inOrder) > 0 {
		body, c.inOrder = c.inOrder[0], c.inOrder[1:]
	}
	c.mu.Unlock()
	if !body || len(f) < 2 || f[0] != "OK" {
		return 0
	}
	n, _ := strconv.Atoi(f[len(f)-1])
	return max(n, 0)
}

// Read hands out one reply at a time, drawing its fate — drop, stall,
// spike, then corruption of its body — as it starts.
func (c *faultConn) Read(b []byte) (int, error) {
	if c.stallMax > 0 {
		return 0, c.stallOut()
	}
	if len(c.pending) == 0 {
		n, err := c.Conn.Read(c.rbuf)
		if n == 0 {
			return 0, err
		}
		c.pending = c.rbuf[:n] // an error with bytes recurs on the next read
	}
	if !c.inReply {
		f := c.dialer
		f.mu.Lock()
		p := f.profile(c.addr)
		drop, stall, spike, corrupt := f.chance(p.DropProb), f.chance(p.StallProb), f.chance(p.SpikeProb), f.chance(p.CorruptProb)
		f.mu.Unlock()
		switch {
		case drop:
			c.Conn.Close()
			return 0, fmt.Errorf("%w: read", ErrInjectedDrop)
		case stall:
			c.stallMax = orDefault(p.StallMax, 2*time.Second)
			return 0, c.stallOut()
		case spike:
			time.Sleep(orDefault(p.Spike, 100*time.Millisecond))
		}
		c.inReply, c.corrupt = true, corrupt
	}
	n := 0
	for c.inReply && n < len(b) && n < len(c.pending) {
		if c.body > 0 {
			k := min(c.body, len(b)-n, len(c.pending)-n)
			copy(b[n:n+k], c.pending[n:n+k])
			if c.corrupt {
				b[n] ^= 0x80
				c.corrupt = false
			}
			n, c.body = n+k, c.body-k
			c.inReply = c.body > 0
			continue
		}
		x := c.pending[n]
		b[n] = x
		n++
		if x != '\n' {
			c.rline = appendBounded(c.rline, []byte{x})
			continue
		}
		c.body = c.bodyOf(string(c.rline))
		c.rline, c.inReply = c.rline[:0], c.body > 0
	}
	c.pending = c.pending[n:]
	return n, nil
}

// orDefault is d, or def when d is unset.
func orDefault(d, def time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return def
}

// Close forgets the connection and closes it.
func (c *faultConn) Close() error {
	c.dialer.mu.Lock()
	delete(c.dialer.live[c.addr], c)
	c.dialer.mu.Unlock()
	return c.Conn.Close()
}

// SetDeadline records the deadline so stalls know when to give up, then
// forwards it.
func (c *faultConn) SetDeadline(t time.Time) error {
	c.record(t)
	return c.Conn.SetDeadline(t)
}

// SetReadDeadline records and forwards, like SetDeadline.
func (c *faultConn) SetReadDeadline(t time.Time) error {
	c.record(t)
	return c.Conn.SetReadDeadline(t)
}

func (c *faultConn) record(t time.Time) {
	c.deadlineMu.Lock()
	c.deadline = t
	c.deadlineMu.Unlock()
}

// stallOut sleeps until the recorded deadline (re-read in small steps so a
// cancellation that moves the deadline into the past takes effect), then
// reports a timeout — exactly what a hung remote looks like to the reader.
func (c *faultConn) stallOut() error {
	end := time.Now().Add(c.stallMax)
	for {
		c.deadlineMu.Lock()
		if dl := c.deadline; !dl.IsZero() && dl.Before(end) {
			end = dl
		}
		c.deadlineMu.Unlock()
		remaining := time.Until(end)
		if remaining <= 0 {
			return os.ErrDeadlineExceeded
		}
		time.Sleep(min(remaining, 5*time.Millisecond))
	}
}
