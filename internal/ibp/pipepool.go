package ibp

import (
	"context"
	"sync"
	"time"

	"lonviz/internal/obs"
)

// PipePool keeps a Client per depot address, each asking its depot for
// PIPELINE: the way the agents, the edge cache, the steward and lors reach
// depots. A Client dials and handshakes on first use, falls back to kept
// untagged connections against a depot that refuses PIPELINE (and never
// asks it again), and redials once when a connection that has served
// before breaks under an idempotent request.
type PipePool struct {
	// Dialer establishes connections; nil means plain TCP.
	Dialer Dialer
	// Window is the in-flight window requested per depot connection (the
	// depot may grant less), and the number of untagged connections kept
	// to a depot that refuses. 0 or negative means DefaultPipelineWindow.
	Window int
	// Timeout bounds one operation when the caller's context has no
	// sooner deadline (default 30s), matching Client.Timeout semantics.
	Timeout time.Duration
	// Obs receives the ibp.* client families; nil records into
	// obs.Default().
	Obs *obs.Registry

	mu     sync.Mutex
	depots map[string]*Client
}

// Client returns the pool's Client for addr, made on first contact from
// the pool's fields as they stand then. It stays the pool's: Close the
// pool, not the Client.
func (pp *PipePool) Client(addr string) *Client {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	c := pp.depots[addr]
	if c == nil {
		c = &Client{Addr: addr, Dialer: pp.Dialer, Timeout: pp.Timeout, Obs: pp.Obs, window: pp.Window}
		if pp.Window <= 0 {
			c.window = DefaultPipelineWindow
		}
		if pp.depots == nil {
			pp.depots = make(map[string]*Client)
		}
		pp.depots[addr] = c
	}
	return c
}

// LoadInto reads exactly len(dst) bytes at offset through readCap on the
// depot at addr, directly into dst.
func (pp *PipePool) LoadInto(ctx context.Context, addr, readCap string, offset int64, dst []byte) error {
	return pp.Client(addr).LoadInto(ctx, readCap, offset, dst)
}

// Mode reports how the pool currently reaches addr: "pipelined",
// "serial", or "" when the depot has not been contacted yet.
func (pp *PipePool) Mode(addr string) string {
	pp.mu.Lock()
	c := pp.depots[addr]
	pp.mu.Unlock()
	if c == nil {
		return ""
	}
	return c.wire().Mode()
}

// Close tears down every kept connection. The pool remains usable;
// subsequent operations redial.
func (pp *PipePool) Close() error {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	for _, c := range pp.depots {
		c.Close()
	}
	return nil
}
