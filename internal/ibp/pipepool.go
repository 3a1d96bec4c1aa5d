package ibp

import (
	"context"
	"sync"
	"time"

	"lonviz/internal/obs"
	"lonviz/internal/wire"
)

// PipePool keeps one pipelined connection per depot address: the
// data-plane entry point lors and the edge cache use for reads. The
// transport under it dials and handshakes on first use, falls back to
// one-shot connections against a depot that refuses PIPELINE (and never
// asks it again), and redials once when a pipe that has served before
// breaks under a load.
type PipePool struct {
	// Dialer establishes connections; nil means plain TCP.
	Dialer Dialer
	// Window is the in-flight window requested per depot connection
	// (the depot may grant less). 0 means DefaultPipelineWindow;
	// negative disables pipelining, making every operation dial its own
	// connection — the ablation/compatibility switch.
	Window int
	// Timeout bounds one operation when the caller's context has no
	// sooner deadline (default 30s), matching Client.Timeout semantics.
	Timeout time.Duration
	// Obs receives the ibp.pipe.* families; nil records into
	// obs.Default().
	Obs *obs.Registry

	mu     sync.Mutex
	depots map[string]*wire.Client
}

// depot returns the transport for addr, made on first contact from the
// pool's fields as they stand then.
func (pp *PipePool) depot(addr string) *wire.Client {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	t := pp.depots[addr]
	if t == nil {
		t = &wire.Client{Addr: addr, Dialer: pp.Dialer, Timeout: orDefault(pp.Timeout), Obs: pp.Obs, Proto: &pipeProto}
		if t.Window = pp.Window; pp.Window == 0 {
			t.Window = DefaultPipelineWindow
		}
		if pp.depots == nil {
			pp.depots = make(map[string]*wire.Client)
		}
		pp.depots[addr] = t
	}
	return t
}

// LoadInto reads exactly len(dst) bytes at offset through readCap on the
// depot at addr, directly into dst.
func (pp *PipePool) LoadInto(ctx context.Context, addr, readCap string, offset int64, dst []byte) error {
	return load(ctx, pp.depot(addr), readCap, offset, dst)
}

// Mode reports how the pool currently reaches addr: "pipelined",
// "serial", or "" when the depot has not been contacted yet.
func (pp *PipePool) Mode(addr string) string {
	pp.mu.Lock()
	t := pp.depots[addr]
	pp.mu.Unlock()
	if t == nil {
		return ""
	}
	return t.Mode()
}

// Close tears down every live pipe. The pool remains usable; subsequent
// operations redial.
func (pp *PipePool) Close() error {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	for _, t := range pp.depots {
		t.Close()
	}
	return nil
}
