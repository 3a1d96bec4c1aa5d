// Package netsim simulates wide-area and local-area network conditions
// over real TCP connections on the loopback interface. The paper's
// experiments span a real WAN (UT Knoxville to three depots in California)
// and a 1 Gb/s departmental LAN; reproducing them deterministically
// requires controlling latency and bandwidth, so every simulated link runs
// through a shaper on the dialing side. What the shaper does, and no more:
// a dial sleeps one Latency after connecting; a connection's first read
// that returns bytes sleeps one Latency and later reads sleep none; reads
// are rate-limited by a token bucket, and writes are not shaped at all.
//
// Shaping wraps net.Conn, so the IBP wire protocol, the L-Bone, and the
// DVS all run over genuinely concurrent sockets — the code paths are the
// real ones, only the physics are scaled.
package netsim

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// LinkProfile describes one link as the dialing side sees it.
type LinkProfile struct {
	// Name labels the profile in logs and metrics.
	Name string
	// Latency is the one-way propagation delay. A dial sleeps it once
	// after connecting, and a connection's first read that returns bytes
	// sleeps it once; later reads and all writes sleep nothing.
	Latency time.Duration
	// Bandwidth is the sustained read rate in bytes per second (0 =
	// unlimited). Writes are not rate-limited.
	Bandwidth int64
	// Burst is the token bucket depth in bytes; defaults to one RTT of
	// bandwidth or 64 KiB, whichever is larger.
	Burst int64
	// Shared makes all connections dialed with this profile (through one
	// Dialer) share a single token bucket, modeling a common bottleneck
	// link. Concurrent transfers then contend for bandwidth — the effect
	// behind the paper's inflated LAN depot latency while prestaging runs.
	Shared bool
}

// Common profiles approximating the paper's topology at laptop scale.
var (
	// ProfileWAN models the UTK <-> California path: ~35 ms one-way,
	// ~40 Mb/s per stream (the paper's LoRS downloads sustained tens of
	// Mb/s on Abilene/ESNet).
	ProfileWAN = LinkProfile{Name: "wan", Latency: 35 * time.Millisecond, Bandwidth: 5 * 1024 * 1024}
	// ProfileLAN models the department LAN: 0.2 ms, 1 Gb/s.
	ProfileLAN = LinkProfile{Name: "lan", Latency: 200 * time.Microsecond, Bandwidth: 125 * 1024 * 1024}
	// ProfileLocal is effectively unshaped loopback.
	ProfileLocal = LinkProfile{Name: "local"}
)

func (p LinkProfile) burst() int64 {
	if p.Burst > 0 {
		return p.Burst
	}
	b := int64(64 * 1024)
	if p.Bandwidth > 0 {
		rttBytes := int64(float64(p.Bandwidth) * (2 * p.Latency.Seconds()))
		if rttBytes > b {
			b = rttBytes
		}
	}
	return b
}

// tokenBucket is a thread-safe byte rate limiter.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // bytes per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate, burst int64) *tokenBucket {
	return &tokenBucket{
		rate:   float64(rate),
		burst:  float64(burst),
		tokens: float64(burst),
		last:   time.Now(),
	}
}

// wait blocks until n bytes may pass, then consumes them. Requests larger
// than the burst are split implicitly by consuming in full and waiting out
// the deficit, which preserves long-run rate.
func (tb *tokenBucket) wait(n int) {
	if tb == nil || tb.rate <= 0 {
		return
	}
	tb.mu.Lock()
	now := time.Now()
	tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
	tb.last = now
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	tb.tokens -= float64(n)
	var sleep time.Duration
	if tb.tokens < 0 {
		sleep = time.Duration(-tb.tokens / tb.rate * float64(time.Second))
	}
	tb.mu.Unlock()
	if sleep > 0 {
		time.Sleep(sleep)
	}
}

// Conn shapes an underlying net.Conn. Its first read that returns bytes is
// delayed by the link latency, and every read is paced by the token
// bucket; writes pass through unshaped.
type Conn struct {
	net.Conn
	profile LinkProfile
	bucket  *tokenBucket
	// latencyOnce delays only the first read to model propagation without
	// adding per-segment latency (TCP pipelines segments within a stream).
	latencyOnce sync.Once
}

// Shape wraps c with the given profile. A zero profile passes through.
func Shape(c net.Conn, p LinkProfile) *Conn {
	var tb *tokenBucket
	if p.Bandwidth > 0 {
		tb = newTokenBucket(p.Bandwidth, p.burst())
	}
	return &Conn{Conn: c, profile: p, bucket: tb}
}

// Read implements net.Conn with shaping applied.
func (c *Conn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.latencyOnce.Do(func() {
			if c.profile.Latency > 0 {
				time.Sleep(c.profile.Latency)
			}
		})
		c.bucket.wait(n)
	}
	return n, err
}

// Profile returns the link profile of the connection.
func (c *Conn) Profile() LinkProfile { return c.profile }

// Dialer dials with a per-destination link profile, shaping the client
// side of the connection. The zero Dialer dials unshaped.
type Dialer struct {
	mu       sync.RWMutex
	profiles map[string]LinkProfile // addr -> profile
	fallback LinkProfile
	shared   map[string]*tokenBucket // profile name -> shared bucket
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
}

// NewDialer returns a Dialer whose default profile is fallback.
func NewDialer(fallback LinkProfile) *Dialer {
	return &Dialer{
		profiles: make(map[string]LinkProfile),
		fallback: fallback,
		shared:   make(map[string]*tokenBucket),
	}
}

// sharedBucket returns (creating on first use) the common bucket for a
// Shared profile.
func (d *Dialer) sharedBucket(p LinkProfile) *tokenBucket {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.shared == nil {
		d.shared = make(map[string]*tokenBucket)
	}
	tb, ok := d.shared[p.Name]
	if !ok {
		tb = newTokenBucket(p.Bandwidth, p.burst())
		d.shared[p.Name] = tb
	}
	return tb
}

// SetRoute assigns a profile for connections to addr (exact match on the
// dialed address string).
func (d *Dialer) SetRoute(addr string, p LinkProfile) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.profiles[addr] = p
}

// RouteTo returns the profile that would shape a connection to addr.
func (d *Dialer) RouteTo(addr string) LinkProfile {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if p, ok := d.profiles[addr]; ok {
		return p
	}
	return d.fallback
}

// Dial connects to addr over TCP and shapes the result. The connect
// handshake itself also pays the route's latency once, modeling SYN
// propagation.
func (d *Dialer) Dial(addr string) (net.Conn, error) {
	p := d.RouteTo(addr)
	timeout := d.DialTimeout
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("netsim: dial %s: %w", addr, err)
	}
	if p.Latency > 0 {
		time.Sleep(p.Latency)
	}
	sc := Shape(c, p)
	if p.Shared && p.Bandwidth > 0 {
		sc.bucket = d.sharedBucket(p)
	}
	return sc, nil
}

// ShareBucketsWith makes d draw Shared-profile bandwidth from the same
// token buckets as o, modeling distinct dialers whose traffic crosses one
// physical bottleneck (e.g. client downloads and depot-to-depot staging
// both traversing the same WAN uplink). Call before issuing any dials.
func (d *Dialer) ShareBucketsWith(o *Dialer) {
	if o == nil {
		return
	}
	o.mu.Lock()
	if o.shared == nil {
		o.shared = make(map[string]*tokenBucket)
	}
	shared := o.shared
	o.mu.Unlock()
	d.mu.Lock()
	d.shared = shared
	d.mu.Unlock()
}
