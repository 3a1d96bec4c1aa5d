package ibp

import (
	"context"

	"lonviz/internal/obs"
	"lonviz/internal/wire"
)

// Pipe is one pipelined connection to a depot: many tagged requests in
// flight, each LOAD body read from the socket directly into its caller's
// destination slice. Safe for concurrent use; requests beyond the
// negotiated window block until a slot frees. A Pipe that breaks stays
// broken — PipePool is what redials.
type Pipe struct {
	conn *wire.ClientConn
}

// DialPipe connects to addr, performs the PIPELINE handshake asking for
// the given window (0 means DefaultPipelineWindow), and returns the
// upgraded connection. A depot that refuses the handshake is an error.
func DialPipe(ctx context.Context, addr string, dialer Dialer, window int, reg *obs.Registry) (*Pipe, error) {
	if window <= 0 {
		window = DefaultPipelineWindow
	}
	t := &wire.Client{Addr: addr, Dialer: dialer, Obs: reg, Proto: &proto, Window: window}
	conn, err := t.Connect(ctx)
	if err != nil {
		return nil, err
	}
	return &Pipe{conn}, nil
}

// Window returns the negotiated in-flight window.
func (p *Pipe) Window() int { return p.conn.Window() }

// Broken reports the pipe's terminal error, or nil while it is usable.
func (p *Pipe) Broken() error { return p.conn.Broken() }

// Close tears the pipe down; in-flight requests fail with ErrPipeBroken.
func (p *Pipe) Close() error { return p.conn.Close() }

// Load reads exactly len(dst) bytes at offset through a read capability,
// directly into dst.
func (p *Pipe) Load(ctx context.Context, readCap string, offset int64, dst []byte) error {
	return load(ctx, p.conn, readCap, offset, dst)
}

// Store writes data at offset through a write capability.
func (p *Pipe) Store(ctx context.Context, writeCap string, offset int64, data []byte) error {
	return store(ctx, p.conn, writeCap, offset, data)
}

// Probe returns allocation metadata through a manage capability.
func (p *Pipe) Probe(ctx context.Context, manageCap string) (AllocInfo, error) {
	return probe(ctx, p.conn, manageCap)
}
