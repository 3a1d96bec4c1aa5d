package ibp

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"lonviz/internal/obs"
	"lonviz/internal/wire"
)

// The client side is a verb table over the one transport in internal/wire:
// each verb below formats its request line and parses its OK fields, once,
// whichever way the connection is held. Client keeps its connections to one
// depot; Pipe is one upgraded connection; PipePool keeps a Client per depot.

// Dialer abstracts connection establishment so tests and experiments can
// inject netsim-shaped links. *netsim.Dialer satisfies it.
type Dialer = wire.Dialer

// proto is the protocol as every IBP client speaks it. Its series are fed
// by every operation, untagged or tagged alike: obs.DepotLatencyBias and
// the depot-latency SLO rules read the per-depot histogram and must see
// them all.
var proto = wire.Protocol{
	Names: wire.ClientNames{
		ProfClass:     "ibp_client",
		OpMs:          obs.MIBPOpMs,
		Errors:        obs.MIBPOpErrors,
		PeerMs:        obs.MIBPDepotMs,
		PipeFallbacks: obs.MIBPPipeFallbacks,
		PipeOps:       obs.MIBPPipeOps,
	},
	Tokens:    true,
	Err:       replyErr,
	Malformed: ErrProto,
	Broken:    ErrPipeBroken,
}

// replyErr maps the fields after "ERR" — a code, then the message — to the
// typed error.
func replyErr(f []string) error { return errOf(f[0], strings.Join(f[1:], " ")) }

// transport is what a verb runs on: a wire.Client in any configuration, or
// the one tagged connection of a Pipe.
type transport interface {
	Do(ctx context.Context, call *wire.Call) error
}

// do sends one request line and returns the reply's OK fields, which must
// number want.
func do(ctx context.Context, t transport, call *wire.Call, want int) ([]string, error) {
	if err := t.Do(ctx, call); err != nil {
		return nil, err
	}
	if len(call.Fields) != want {
		verb, _, _ := strings.Cut(call.Line, " ")
		return nil, fmt.Errorf("%w: %s response fields", ErrProto, verb)
	}
	return call.Fields, nil
}

func load(ctx context.Context, t transport, readCap string, offset int64, dst []byte) error {
	return t.Do(ctx, &wire.Call{
		Line:       fmt.Sprintf("LOAD %s %d %d", readCap, offset, len(dst)),
		Idempotent: true, Body: wire.SizedBody, Max: maxTransfer, Dst: dst,
	})
}

func store(ctx context.Context, t transport, writeCap string, offset int64, data []byte) error {
	return t.Do(ctx, &wire.Call{Line: fmt.Sprintf("STORE %s %d %d", writeCap, offset, len(data)), Payload: data})
}

func probe(ctx context.Context, t transport, manageCap string) (AllocInfo, error) {
	f, err := do(ctx, t, &wire.Call{Line: "PROBE " + manageCap, Idempotent: true}, 3)
	if err != nil {
		return AllocInfo{}, err
	}
	size, err1 := strconv.ParseInt(f[0], 10, 64)
	expMs, err2 := strconv.ParseInt(f[1], 10, 64)
	if err1 != nil || err2 != nil {
		return AllocInfo{}, fmt.Errorf("%w: PROBE response numbers", ErrProto)
	}
	return AllocInfo{Size: size, Expires: time.UnixMilli(expMs), Policy: Policy(f[2])}, nil
}

// Client performs IBP operations against one depot address over the
// connections it keeps until Close: a Client of its own holds one untagged
// connection, a request at a time; one from a PipePool asks the depot for
// PIPELINE and shares one tagged connection among all its operations
// (falling back to untagged connections, a window's worth, against a depot
// that refuses). Every operation takes a context: cancellation interrupts
// in-flight transfers, and a context deadline tightens the per-operation
// timeout. The zero value plus Addr is ready to use; the fields are read at
// the first operation, and the Client must not be copied after it.
type Client struct {
	// Addr is the depot's host:port.
	Addr string
	// Dialer establishes connections; nil means plain TCP.
	Dialer Dialer
	// Timeout bounds one whole operation (default 30s). The effective
	// deadline is min(ctx deadline, now+Timeout).
	Timeout time.Duration
	// Obs receives per-operation latency histograms, byte counters, and
	// error counts; nil records into obs.Default(). See
	// docs/OBSERVABILITY.md for the ibp.* metric catalog.
	Obs *obs.Registry

	window int // set by PipePool: the PIPELINE window to ask for
	once   sync.Once
	t      wire.Client
}

// defaultTimeout bounds an operation whose owner set no Timeout.
const defaultTimeout = 30 * time.Second

func orDefault(timeout time.Duration) time.Duration {
	if timeout > 0 {
		return timeout
	}
	return defaultTimeout
}

// wire is the Client's transport, made on first use from its fields.
func (c *Client) wire() *wire.Client {
	c.once.Do(func() {
		c.t.Addr, c.t.Dialer, c.t.Timeout, c.t.Obs = c.Addr, c.Dialer, orDefault(c.Timeout), c.Obs
		c.t.Proto, c.t.Window = &proto, c.window
	})
	return &c.t
}

// Close closes the kept connections; requests in flight on a tagged one
// fail. The Client remains usable: later operations redial.
func (c *Client) Close() error { return c.wire().Close() }

// Allocate requests an allocation on the depot.
func (c *Client) Allocate(ctx context.Context, size int64, lease time.Duration, policy Policy) (Capabilities, error) {
	f, err := do(ctx, c.wire(), &wire.Call{Line: fmt.Sprintf("ALLOCATE %d %d %s", size, lease.Milliseconds(), policy)}, 3)
	if err != nil {
		return Capabilities{}, err
	}
	return Capabilities{Read: f[0], Write: f[1], Manage: f[2]}, nil
}

// Store writes data at offset through a write capability.
func (c *Client) Store(ctx context.Context, writeCap string, offset int64, data []byte) error {
	return store(ctx, c.wire(), writeCap, offset, data)
}

// Load reads length bytes at offset through a read capability.
func (c *Client) Load(ctx context.Context, readCap string, offset, length int64) ([]byte, error) {
	if length < 0 || length > maxTransfer {
		return nil, fmt.Errorf("%w: LOAD of %d bytes", ErrBadParam, length)
	}
	dst := make([]byte, length)
	return dst, load(ctx, c.wire(), readCap, offset, dst)
}

// LoadInto reads exactly len(dst) bytes at offset through a read
// capability, directly into dst.
func (c *Client) LoadInto(ctx context.Context, readCap string, offset int64, dst []byte) error {
	return load(ctx, c.wire(), readCap, offset, dst)
}

// Probe returns allocation metadata through a manage capability.
func (c *Client) Probe(ctx context.Context, manageCap string) (AllocInfo, error) {
	return probe(ctx, c.wire(), manageCap)
}

// Extend renews the allocation lease.
func (c *Client) Extend(ctx context.Context, manageCap string, lease time.Duration) (time.Time, error) {
	f, err := do(ctx, c.wire(), &wire.Call{Line: fmt.Sprintf("EXTEND %s %d", manageCap, lease.Milliseconds())}, 1)
	if err != nil {
		return time.Time{}, err
	}
	ms, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("%w: EXTEND response number", ErrProto)
	}
	return time.UnixMilli(ms), nil
}

// Free releases the allocation immediately.
func (c *Client) Free(ctx context.Context, manageCap string) error {
	return c.wire().Do(ctx, &wire.Call{Line: "FREE " + manageCap})
}

// Copy asks this depot to transfer an extent directly to a write
// capability on another depot (third-party copy).
func (c *Client) Copy(ctx context.Context, readCap string, offset, length int64, targetAddr, targetWriteCap string, targetOffset int64) error {
	return c.wire().Do(ctx, &wire.Call{Line: fmt.Sprintf("COPY %s %d %d %s %s %d",
		readCap, offset, length, targetAddr, targetWriteCap, targetOffset)})
}

// Status returns the depot's capacity accounting.
func (c *Client) Status(ctx context.Context) (capacity, used int64, allocations int, err error) {
	f, err := do(ctx, c.wire(), &wire.Call{Line: "STATUS", Idempotent: true}, 3)
	if err != nil {
		return 0, 0, 0, err
	}
	capacity, err1 := strconv.ParseInt(f[0], 10, 64)
	used, err2 := strconv.ParseInt(f[1], 10, 64)
	allocs, err3 := strconv.Atoi(f[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, 0, fmt.Errorf("%w: STATUS response numbers", ErrProto)
	}
	return capacity, used, allocs, nil
}
