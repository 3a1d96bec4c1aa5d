package wire_test

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/dvs"
	"lonviz/internal/ibp"
	"lonviz/internal/lightfield"
	"lonviz/internal/obs"
)

// streamDialer's connections are one end of a net.Pipe. The other end grants
// PIPELINE first when tagged is set, then waits for one request line, answers
// it with stream whatever it asked, and hangs up.
type streamDialer struct {
	stream []byte
	tagged bool
}

func (d streamDialer) Dial(string) (net.Conn, error) {
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		br := bufio.NewReader(server)
		if d.tagged {
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
			if _, err := server.Write([]byte("OK 8\n")); err != nil {
				return
			}
		}
		if _, err := br.ReadString('\n'); err != nil {
			return
		}
		go io.Copy(io.Discard, br) // the request's payload, until the hang-up
		server.Write(d.stream)     // fails if the client has had enough and closed
	}()
	return client, nil
}

// fuzzedVerb is one client call against a stream of server bytes; body is
// what the call took for its reply body.
type fuzzedVerb struct {
	name   string
	tagged bool
	call   func(ctx context.Context, d ibp.Dialer, p *ibp.Pipe, dst []byte) (body []byte, err error)
}

// A call may allocate a few times what the stream delivered (a body is
// buffered as it grows, then joined by the test) plus fuzzSlack: connection
// buffers, one buffer's worth for a length that lies, goroutines, the test's
// own garbage. What the stream claims never enters into it.
const fuzzSlack = 768 << 10

var fuzzKey = dvs.Key{Dataset: "ds", ViewSet: "r01c02"}

var fuzzedVerbs = []fuzzedVerb{
	{name: "LOAD-into", call: func(ctx context.Context, d ibp.Dialer, _ *ibp.Pipe, dst []byte) ([]byte, error) {
		return dst, (&ibp.Client{Addr: "x", Dialer: d, Obs: obs.NewRegistry()}).LoadInto(ctx, "rcap", 0, dst)
	}},
	{name: "LOAD", call: func(ctx context.Context, d ibp.Dialer, _ *ibp.Pipe, dst []byte) ([]byte, error) {
		return (&ibp.Client{Addr: "x", Dialer: d, Obs: obs.NewRegistry()}).Load(ctx, "rcap", 0, int64(len(dst)))
	}},
	{name: "PROBE", call: func(ctx context.Context, d ibp.Dialer, _ *ibp.Pipe, _ []byte) ([]byte, error) {
		_, err := (&ibp.Client{Addr: "x", Dialer: d, Obs: obs.NewRegistry()}).Probe(ctx, "mcap")
		return nil, err
	}},
	{name: "STORE", call: func(ctx context.Context, d ibp.Dialer, _ *ibp.Pipe, _ []byte) ([]byte, error) {
		return nil, (&ibp.Client{Addr: "x", Dialer: d, Obs: obs.NewRegistry()}).Store(ctx, "wcap", 0, []byte("hello"))
	}},
	{name: "STATUS", call: func(ctx context.Context, d ibp.Dialer, _ *ibp.Pipe, _ []byte) ([]byte, error) {
		_, _, _, err := (&ibp.Client{Addr: "x", Dialer: d, Obs: obs.NewRegistry()}).Status(ctx)
		return nil, err
	}},
	{name: "tagged-LOAD", tagged: true, call: func(ctx context.Context, _ ibp.Dialer, p *ibp.Pipe, dst []byte) ([]byte, error) {
		return dst, p.Load(ctx, "rcap", 0, dst)
	}},
	{name: "tagged-PROBE", tagged: true, call: func(ctx context.Context, _ ibp.Dialer, p *ibp.Pipe, _ []byte) ([]byte, error) {
		_, err := p.Probe(ctx, "mcap")
		return nil, err
	}},
	{name: "tagged-STORE", tagged: true, call: func(ctx context.Context, _ ibp.Dialer, p *ibp.Pipe, _ []byte) ([]byte, error) {
		return nil, p.Store(ctx, "wcap", 0, []byte("hello"))
	}},
	{name: "GET", call: func(ctx context.Context, d ibp.Dialer, _ *ibp.Pipe, _ []byte) ([]byte, error) {
		cl := &dvs.Client{Addr: "x", Dialer: d}
		defer cl.CloseIdle()
		reps, err := cl.Get(ctx, fuzzKey)
		return bytes.Join(reps, nil), err
	}},
	{name: "AGENT", call: func(ctx context.Context, d ibp.Dialer, _ *ibp.Pipe, _ []byte) ([]byte, error) {
		cl := &dvs.Client{Addr: "x", Dialer: d}
		defer cl.CloseIdle()
		_, err := cl.AgentFor(ctx, "ds")
		return nil, err
	}},
	{name: "PUT", call: func(ctx context.Context, d ibp.Dialer, _ *ibp.Pipe, _ []byte) ([]byte, error) {
		cl := &dvs.Client{Addr: "x", Dialer: d}
		defer cl.CloseIdle()
		return nil, cl.Put(ctx, fuzzKey, []byte("<exnode/>"))
	}},
	{name: "RENDER", call: func(ctx context.Context, d ibp.Dialer, _ *ibp.Pipe, _ []byte) ([]byte, error) {
		return agent.RequestRemote(ctx, d, "x", "ds", "r01c02")
	}},
	{name: "GETVS", call: func(ctx context.Context, d ibp.Dialer, _ *ibp.Pipe, _ []byte) ([]byte, error) {
		src := &agent.RemoteSource{Addr: "x", Dataset: "ds", Dialer: d}
		defer closeIdle(src)
		frame, _, err := src.GetViewSet(ctx, lightfield.ViewSetID{R: 1, C: 2})
		return frame, err
	}},
}

// FuzzClientReply feeds arbitrary server byte streams to every client
// verb's reply path, untagged and tagged: no panic, no call outliving its
// deadline, no byte written outside the destination, no allocation in
// proportion to a length the stream merely claims, and success only when the
// stream opens with a well-formed OK reply whose body is what the caller
// got.
func FuzzClientReply(f *testing.F) {
	doc, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		f.Fatal(err)
	}
	examples := regexp.MustCompile("`((?:OK|ERR|MISS)[^`\n]*)`").FindAllSubmatch(doc, -1)
	if len(examples) < 15 {
		f.Fatalf("only %d example replies found in docs/PROTOCOL.md", len(examples))
	}
	for i := range fuzzedVerbs {
		for _, m := range examples {
			f.Add(uint8(i), append(m[1], '\n'))
		}
		for _, s := range []string{
			"OK 5\nhello", "OK 5\nhel", "OK 3\nhel", "OK 99999999999\n", "OK -1\n", "OK 4096 1700000000000 stable\n",
			"OK 2\n3\nabc4\ndefg", "OK 1\n4194304\n", "OK 1024\n", "OK 5000\n", "OK 1\n\n", "OK wan 5\nframe",
			"OK wan 268435456\n", "OK psychic 5\nframe", "OK 9\n<exnode/>", "MISS\n", "ERR\n", "ERR BUSY queue_full\n",
			"ERR NOCAP unknown\n", "WAT\n", "\n", "", strings.Repeat("x", 9000), "OK " + strings.Repeat("9", 5000) + "\n",
			"T2 OK 5\nhello", "T1\n", "T OK\n", "T18446744073709551616 OK\n",
		} {
			f.Add(uint8(i), []byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, stream []byte) {
		v := fuzzedVerbs[int(which)%len(fuzzedVerbs)]
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		reply := stream // what answers the verb's own request
		var pipe *ibp.Pipe
		if v.tagged {
			p, err := ibp.DialPipe(ctx, "x", streamDialer{stream, true}, 8, obs.NewRegistry())
			if err != nil {
				t.Fatalf("handshake: %v", err)
			}
			defer p.Close()
			var mine bool
			if reply, mine = bytes.CutPrefix(stream, []byte("T1 ")); !mine {
				reply = nil
			}
			pipe = p
		}
		const guard = 16
		arena := bytes.Repeat([]byte{0xA5}, 5+2*guard)
		dst := arena[guard : guard+5 : guard+5]

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		body, err := v.call(ctx, streamDialer{stream: stream}, pipe, dst)
		took := time.Since(start)
		runtime.ReadMemStats(&after)

		if took > 7*time.Second {
			t.Errorf("%s took %v under a 5 s deadline", v.name, took)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*uint64(len(stream))+fuzzSlack {
			t.Errorf("%s allocated %d bytes for a %d-byte stream", v.name, grew, len(stream))
		}
		for i, b := range arena {
			if (i < guard || i >= guard+5) && b != 0xA5 {
				t.Fatalf("%s wrote outside its destination at offset %d", v.name, i-guard)
			}
		}
		if err != nil {
			return
		}
		line, rest, ok := bytes.Cut(reply, []byte("\n"))
		if fields := bytes.Fields(line); !ok || len(fields) == 0 || string(fields[0]) != "OK" {
			t.Fatalf("%s succeeded on a stream that does not open with an OK reply: %q", v.name, stream)
		}
		if body != nil && v.name != "GET" && !bytes.HasPrefix(rest, body) {
			t.Errorf("%s returned body %q, stream carried %q", v.name, body, rest)
		}
	})
}
