package wire_test

// Client transcript: the mirror image of parity_test.go. A scripted peer
// records the exact request bytes every client verb puts on the wire —
// untagged and, for IBP, tagged; with and without the optional tokens — and
// plays back every reply shape docs/PROTOCOL.md lists, so the typed error
// each one maps to is pinned too. It drives exported client constructors
// only, so it passes unchanged on any commit that speaks the protocol.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/dvs"
	"lonviz/internal/geom"
	"lonviz/internal/ibp"
	"lonviz/internal/lightfield"
	"lonviz/internal/obs"
)

// scriptedPeer answers each request with the next reply of its script and
// records what it was sent. A request is its line plus, for the three verbs
// that declare one, the payload. PIPELINE is granted as asked (unless refuse
// or mute is set) and flips the connection to tagged: scripted replies are
// then prefixed with the request's tag.
type scriptedPeer struct {
	addr string
	stop func()
	// refuse answers PIPELINE the way a depot that predates it does; mute
	// does not answer it at all.
	refuse, mute bool
	// respond, when set, replaces the script: it returns the exact bytes
	// to write for a request (tag prefix included), "" for none.
	respond func(req string) string

	mu      sync.Mutex
	got     []string
	replies []string
	conns   int
}

func startScriptedPeer(t *testing.T, replies ...string) *scriptedPeer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &scriptedPeer{addr: l.Addr().String(), replies: replies}
	var wg sync.WaitGroup
	var conns []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			conns = append(conns, c)
			p.conns++
			p.mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				p.serve(c)
			}()
		}
	}()
	var once sync.Once
	p.stop = func() {
		once.Do(func() {
			l.Close()
			p.mu.Lock()
			for _, c := range conns {
				c.Close()
			}
			p.mu.Unlock()
			wg.Wait()
		})
	}
	t.Cleanup(p.stop)
	return p
}

var tagToken = regexp.MustCompile(` tag=(\d+)`)

// Endings of a scripted reply: after hangup the peer closes the connection
// (how a truncated body reaches a client that would otherwise wait for the
// rest); stall, alone, leaves the request unanswered and the connection open.
const (
	hangup = "\x04"
	stall  = "\x05"
)

func (p *scriptedPeer) serve(c net.Conn) {
	br := bufio.NewReader(c)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == "PIPELINE" {
			p.record(line)
			if p.mute {
				continue
			}
			if p.refuse {
				fmt.Fprint(c, "ERR PROTO unknown verb PIPELINE\n")
				return
			}
			fmt.Fprintf(c, "OK %s\n", f[1])
			continue
		}
		req := line
		if len(f) > 3 && (f[0] == "STORE" || f[0] == "PUT" || f[0] == "REPLACE") {
			n, _ := strconv.Atoi(f[3])
			payload := make([]byte, n)
			if _, err := io.ReadFull(br, payload); err != nil {
				return
			}
			req += string(payload)
		}
		if p.respond != nil {
			p.record(req)
			if _, err := c.Write([]byte(p.respond(req))); err != nil {
				return
			}
			continue
		}
		reply, ok := p.next(req)
		if !ok {
			return
		}
		if reply == stall {
			continue
		}
		if m := tagToken.FindStringSubmatch(line); m != nil {
			reply = "T" + m[1] + " " + reply
		}
		reply, last := strings.CutSuffix(reply, hangup)
		if _, err := c.Write([]byte(reply)); err != nil || last {
			return
		}
	}
}

func (p *scriptedPeer) record(req string) {
	p.mu.Lock()
	p.got = append(p.got, req)
	p.mu.Unlock()
}

// next records req and hands out the reply for it; a script that has run
// out hangs up.
func (p *scriptedPeer) next(req string) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.got = append(p.got, req)
	if len(p.replies) == 0 {
		return "", false
	}
	reply := p.replies[0]
	p.replies = p.replies[1:]
	return reply, true
}

func (p *scriptedPeer) requests() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.got...)
}

func (p *scriptedPeer) accepted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conns
}

// clientRow is one client call against a scripted peer: the bytes it must
// send (after " tag=1" and the tokens, where the variant has them, are
// spliced in before the first newline), the reply it gets, and what the
// caller must see.
type clientRow struct {
	name  string
	reply string
	want  string
	call  func(ctx context.Context, c *clients) (got string, err error)
	// result is what call returns for an OK reply; wantErr the sentinel
	// an error reply maps to, errText a substring for errors that have no
	// sentinel.
	result  string
	wantErr error
	errText string
	// brokenTagged: on a tagged connection the reply cannot be attributed
	// or framed, so the pipe is declared broken instead.
	brokenTagged bool
}

// clients are the client values of one row, all pointed at its peer.
type clients struct {
	ibp    *ibp.Client
	pipe   *ibp.Pipe
	dvs    *dvs.Client
	remote *agent.RemoteSource
	addr   string
}

var deadlineToken = regexp.MustCompile(`deadline=\d+`)

// runClientRows plays rows one peer each. tagged drives the row through an
// ibp.Pipe (the row's call picks it up); tokens says propagation is on, which
// tokenless protocols ignore.
func runClientRows(t *testing.T, rows []clientRow, tagged, tokens, tokenless bool) {
	for _, r := range rows {
		r := r
		t.Run(r.name, func(t *testing.T) {
			peer := startScriptedPeer(t) // no reply: the peer hangs up
			if r.reply != "" {
				peer = startScriptedPeer(t, r.reply)
			}
			// Every caller has a deadline and a span; whether they reach the
			// wire is propagation's decision alone.
			budget := time.Minute
			if tagged && r.brokenTagged {
				budget = 3 * time.Second // a pipe that mislays the waiter must not stall the suite
			}
			ctx, cancel := context.WithTimeout(context.Background(), budget)
			defer cancel()
			ctx, span := obs.NewTracer(8).StartSpan(ctx, "transcript")
			defer span.Finish()
			wantTokens := ""
			if tokens && !tokenless {
				wantTokens = " deadline=N " + obs.TraceToken(ctx)
			}
			c := &clients{
				addr:   peer.addr,
				ibp:    &ibp.Client{Addr: peer.addr, Obs: obs.NewRegistry()},
				dvs:    &dvs.Client{Addr: peer.addr},
				remote: &agent.RemoteSource{Addr: peer.addr, Dataset: "ds"},
			}
			defer c.dvs.CloseIdle()
			line, payload, _ := strings.Cut(r.want, "\n")
			want := line + wantTokens + "\n" + payload
			if tagged {
				p, err := ibp.DialPipe(ctx, peer.addr, nil, 8, obs.NewRegistry())
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				c.pipe = p
				// The handshake carries no tokens; the tag goes before them.
				want = "PIPELINE 8\n|" + line + " tag=1" + wantTokens + "\n" + payload
			}
			got, err := r.call(ctx, c)
			sent := deadlineToken.ReplaceAllString(strings.Join(peer.requests(), "|"), "deadline=N")
			if sent != want {
				t.Errorf("request bytes\n got %q\nwant %q", sent, want)
			}
			switch {
			case tagged && r.brokenTagged:
				if !errors.Is(err, ibp.ErrPipeBroken) {
					t.Errorf("error = %v, want ErrPipeBroken", err)
				}
			case r.wantErr != nil || r.errText != "":
				if r.wantErr != nil && !errors.Is(err, r.wantErr) {
					t.Errorf("error = %v, want %v", err, r.wantErr)
				}
				if err == nil || !strings.Contains(err.Error(), r.errText) {
					t.Errorf("error = %v, want one mentioning %q", err, r.errText)
				}
			default:
				if err != nil || got != r.result {
					t.Errorf("result = %q, %v; want %q", got, err, r.result)
				}
			}
		})
	}
}

// variantsOf runs rows untagged and (when tagged is set) tagged, each with
// and without the optional tokens.
func variantsOf(t *testing.T, rows []clientRow, tagged, tokenless bool) {
	defer obs.SetPropagation(false)
	modes := map[string]bool{"untagged": false}
	if tagged {
		modes["tagged"] = true
	}
	for name, tag := range modes {
		for _, tokens := range []bool{false, true} {
			if tokens {
				name += "+tokens"
			}
			obs.SetPropagation(tokens)
			t.Run(name, func(t *testing.T) { runClientRows(t, rows, tag, tokens, tokenless) })
		}
	}
}

// ibpErrorRows answers one PROBE with each error shape of the IBP protocol.
func ibpErrorRows(probe func(ctx context.Context, c *clients) (string, error)) []clientRow {
	rows := []clientRow{
		{name: "ERR-INTERNAL", reply: "ERR INTERNAL disk on fire\n", errText: "remote error INTERNAL: disk on fire"},
		{name: "ERR-bare", reply: "ERR\n", wantErr: ibp.ErrProto, brokenTagged: true},
		{name: "junk", reply: "WAT 1 2\n", wantErr: ibp.ErrProto, brokenTagged: true},
		{name: "empty-line", reply: "\n", wantErr: ibp.ErrProto, brokenTagged: true},
		{name: "short-OK", reply: "OK 1\n", wantErr: ibp.ErrProto},
	}
	for code, sentinel := range map[string]error{
		"NOCAP": ibp.ErrNoCap, "EXPIRED": ibp.ErrExpired, "REVOKED": ibp.ErrRevoked,
		"NOSPACE": ibp.ErrNoSpace, "DURATION": ibp.ErrDuration, "BADPARAM": ibp.ErrBadParam,
		"RANGE": ibp.ErrRange, "PROTO": ibp.ErrProto, "BUSY": ibp.ErrBusy,
	} {
		rows = append(rows, clientRow{name: "ERR-" + code, reply: "ERR " + code + " because reasons\n",
			wantErr: sentinel, errText: "because reasons"})
	}
	for i := range rows {
		rows[i].want, rows[i].call = "PROBE mcap\n", probe
	}
	return rows
}

func TestClientTranscriptIBP(t *testing.T) {
	// The three verbs a Pipe carries: each row picks the pipe when the
	// variant made one.
	load := func(ctx context.Context, c *clients) (string, error) {
		dst := make([]byte, 5)
		if c.pipe != nil {
			return string(dst), c.pipe.Load(ctx, "rcap", 8, dst)
		}
		err := c.ibp.LoadInto(ctx, "rcap", 8, dst)
		return string(dst), err
	}
	probe := func(ctx context.Context, c *clients) (string, error) {
		var info ibp.AllocInfo
		var err error
		if c.pipe != nil {
			info, err = c.pipe.Probe(ctx, "mcap")
		} else {
			info, err = c.ibp.Probe(ctx, "mcap")
		}
		return fmt.Sprintf("%d %d %s", info.Size, info.Expires.UnixMilli(), info.Policy), err
	}
	both := []clientRow{
		{name: "LOAD", want: "LOAD rcap 8 5\n", reply: "OK 5\nhello", result: "hello", call: load},
		{name: "LOAD-wrong-size", want: "LOAD rcap 8 5\n", reply: "OK 3\nhel", wantErr: ibp.ErrProto, call: load},
		{name: "LOAD-ERR", want: "LOAD rcap 8 5\n", reply: "ERR RANGE past the end\n", wantErr: ibp.ErrRange, call: load},
		{name: "STORE", want: "STORE wcap 8 5\nhello", reply: "OK 5\n",
			call: func(ctx context.Context, c *clients) (string, error) {
				if c.pipe != nil {
					return "", c.pipe.Store(ctx, "wcap", 8, []byte("hello"))
				}
				return "", c.ibp.Store(ctx, "wcap", 8, []byte("hello"))
			}},
		{name: "PROBE", want: "PROBE mcap\n", reply: "OK 4096 1700000000000 stable\n",
			result: "4096 1700000000000 stable", call: probe},
		{name: "PROBE-bad-number", want: "PROBE mcap\n", reply: "OK big 1700000000000 stable\n",
			wantErr: ibp.ErrProto, call: probe},
	}
	both = append(both, ibpErrorRows(probe)...)
	variantsOf(t, both, true, false)

	serial := []clientRow{
		{name: "ALLOCATE", want: "ALLOCATE 4096 60000 stable\n", reply: "OK r1 w1 m1\n", result: "r1 w1 m1",
			call: func(ctx context.Context, c *clients) (string, error) {
				caps, err := c.ibp.Allocate(ctx, 4096, time.Minute, ibp.Stable)
				return caps.Read + " " + caps.Write + " " + caps.Manage, err
			}},
		{name: "ALLOCATE-short", want: "ALLOCATE 4096 60000 stable\n", reply: "OK r1 w1\n", wantErr: ibp.ErrProto,
			call: func(ctx context.Context, c *clients) (string, error) {
				_, err := c.ibp.Allocate(ctx, 4096, time.Minute, ibp.Stable)
				return "", err
			}},
		{name: "LOAD-alloc", want: "LOAD rcap 8 5\n", reply: "OK 5\nhello", result: "hello",
			call: func(ctx context.Context, c *clients) (string, error) {
				b, err := c.ibp.Load(ctx, "rcap", 8, 5)
				return string(b), err
			}},
		{name: "LOAD-truncated", want: "LOAD rcap 8 5\n", reply: "OK 5\nhel" + hangup, wantErr: ibp.ErrProto,
			call: func(ctx context.Context, c *clients) (string, error) {
				_, err := c.ibp.Load(ctx, "rcap", 8, 5)
				return "", err
			}},
		{name: "LOAD-huge", want: "LOAD rcap 8 5\n", reply: "OK 99999999999\n", wantErr: ibp.ErrProto,
			call: func(ctx context.Context, c *clients) (string, error) {
				_, err := c.ibp.Load(ctx, "rcap", 8, 5)
				return "", err
			}},
		{name: "EXTEND", want: "EXTEND mcap 60000\n", reply: "OK 1700000000000\n", result: "1700000000000",
			call: func(ctx context.Context, c *clients) (string, error) {
				exp, err := c.ibp.Extend(ctx, "mcap", time.Minute)
				return strconv.FormatInt(exp.UnixMilli(), 10), err
			}},
		{name: "FREE", want: "FREE mcap\n", reply: "OK 0\n",
			call: func(ctx context.Context, c *clients) (string, error) { return "", c.ibp.Free(ctx, "mcap") }},
		{name: "COPY", want: "COPY rcap 0 5 10.0.0.1:6714 wcap2 16\n", reply: "OK 5\n",
			call: func(ctx context.Context, c *clients) (string, error) {
				return "", c.ibp.Copy(ctx, "rcap", 0, 5, "10.0.0.1:6714", "wcap2", 16)
			}},
		{name: "STATUS", want: "STATUS\n", reply: "OK 1000 10 1\n", result: "1000 10 1",
			call: func(ctx context.Context, c *clients) (string, error) {
				capacity, used, n, err := c.ibp.Status(ctx)
				return fmt.Sprintf("%d %d %d", capacity, used, n), err
			}},
		{name: "hangup", want: "STATUS\n", reply: "", wantErr: ibp.ErrProto,
			call: func(ctx context.Context, c *clients) (string, error) {
				_, _, _, err := c.ibp.Status(ctx)
				return "", err
			}},
	}
	variantsOf(t, serial, false, false)
}

// TestClientTranscriptOutOfOrder: two tagged LOADs answered newest first
// land in their own destinations.
func TestClientTranscriptOutOfOrder(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	first := make(chan struct{})
	var sent [3]string
	served := make(chan struct{})
	go func() {
		defer close(served)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		for i := range sent {
			if sent[i], err = br.ReadString('\n'); err != nil {
				return
			}
			switch i {
			case 0:
				fmt.Fprint(c, "OK 8\n")
			case 1:
				close(first)
			}
		}
		fmt.Fprint(c, "T2 OK 3\nBBBT1 OK 2\nAA")
		br.ReadString('\n') // until the client hangs up
	}()
	ctx := context.Background()
	p, err := ibp.DialPipe(ctx, l.Addr().String(), nil, 8, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	a, b := make([]byte, 2), make([]byte, 3)
	errs := make(chan error, 2)
	go func() { errs <- p.Load(ctx, "capA", 0, a) }()
	<-first
	go func() { errs <- p.Load(ctx, "capB", 0, b) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	<-served
	if got, want := strings.Join(sent[:], ""), "PIPELINE 8\nLOAD capA 0 2 tag=1\nLOAD capB 0 3 tag=2\n"; got != want {
		t.Errorf("request bytes\n got %q\nwant %q", got, want)
	}
	if string(a) != "AA" || string(b) != "BBB" {
		t.Errorf("destinations = %q, %q; want AA, BBB", a, b)
	}
}

func TestClientTranscriptDVS(t *testing.T) {
	k := dvs.Key{Dataset: "ds", ViewSet: "r01c02"}
	get := func(ctx context.Context, c *clients) (string, error) {
		reps, err := c.dvs.Get(ctx, k)
		s := make([]string, len(reps))
		for i, r := range reps {
			s[i] = string(r)
		}
		return strings.Join(s, ","), err
	}
	put := func(ctx context.Context, c *clients) (string, error) {
		return "", c.dvs.Put(ctx, k, []byte("<exnode/>"))
	}
	agentFor := func(ctx context.Context, c *clients) (string, error) { return c.dvs.AgentFor(ctx, "ds") }
	rows := []clientRow{
		{name: "GET", want: "GET ds r01c02\n", reply: "OK 2\n3\nabc4\ndefg", result: "abc,defg", call: get},
		{name: "GET-none", want: "GET ds r01c02\n", reply: "OK 0\n", result: "", call: get},
		{name: "GET-MISS", want: "GET ds r01c02\n", reply: "MISS\n", wantErr: dvs.ErrMiss, call: get},
		{name: "GET-BUSY", want: "GET ds r01c02\n", reply: "ERR BUSY queue_full\n", wantErr: dvs.ErrBusy, errText: "queue_full", call: get},
		{name: "GET-ERR", want: "GET ds r01c02\n", reply: "ERR generation failed\n", errText: "dvs: remote: generation failed", call: get},
		{name: "GET-junk", want: "GET ds r01c02\n", reply: "WAT\n", wantErr: dvs.ErrProto, call: get},
		{name: "GET-bad-count", want: "GET ds r01c02\n", reply: "OK 5000\n", wantErr: dvs.ErrProto, call: get},
		{name: "GET-bad-size", want: "GET ds r01c02\n", reply: "OK 1\n99999999\n", wantErr: dvs.ErrProto, call: get},
		{name: "GET-truncated", want: "GET ds r01c02\n", reply: "OK 1\n9\nabc" + hangup, wantErr: dvs.ErrProto, call: get},
		{name: "PUT", want: "PUT ds r01c02 9\n<exnode/>", reply: "OK\n", call: put},
		{name: "PUT-BUSY", want: "PUT ds r01c02 9\n<exnode/>", reply: "ERR BUSY deadline\n", wantErr: dvs.ErrBusy, call: put},
		{name: "PUT-ERR", want: "PUT ds r01c02 9\n<exnode/>", reply: "ERR bad length\n", errText: "dvs: remote: bad length", call: put},
		{name: "REPLACE", want: "REPLACE ds r01c02 9\n<exnode/>", reply: "OK\n",
			call: func(ctx context.Context, c *clients) (string, error) {
				return "", c.dvs.Replace(ctx, k, []byte("<exnode/>"))
			}},
		{name: "REGAGENT", want: "REGAGENT ds 10.0.0.2:7000\n", reply: "OK\n",
			call: func(ctx context.Context, c *clients) (string, error) {
				return "", c.dvs.RegisterAgent(ctx, "ds", "10.0.0.2:7000")
			}},
		{name: "AGENT", want: "AGENT ds\n", reply: "OK 10.0.0.2:7000\n", result: "10.0.0.2:7000", call: agentFor},
		{name: "AGENT-MISS", want: "AGENT ds\n", reply: "MISS\n", wantErr: dvs.ErrMiss, call: agentFor},
		{name: "AGENT-BUSY", want: "AGENT ds\n", reply: "ERR BUSY queue_full\n", wantErr: dvs.ErrBusy, call: agentFor},
		{name: "AGENT-junk", want: "AGENT ds\n", reply: "OK\n", wantErr: dvs.ErrProto, call: agentFor},
	}
	variantsOf(t, rows, false, false)
}

func TestClientTranscriptRender(t *testing.T) {
	render := func(ctx context.Context, c *clients) (string, error) {
		xml, err := agent.RequestRemote(ctx, nil, c.addr, "ds", "r01c02")
		return string(xml), err
	}
	rows := []clientRow{
		{name: "RENDER", want: "RENDER ds r01c02\n", reply: "OK 9\n<exnode/>", result: "<exnode/>", call: render},
		{name: "RENDER-BUSY", want: "RENDER ds r01c02\n", reply: "ERR BUSY render request shed, retry later\n",
			wantErr: ibp.ErrBusy, errText: "render request shed", call: render},
		{name: "RENDER-ERR", want: "RENDER ds r01c02\n", reply: "ERR agent: view set r01c02 outside database\n",
			errText: "agent: remote render: agent: view set r01c02 outside database", call: render},
		{name: "RENDER-junk", want: "RENDER ds r01c02\n", reply: "WAT\n", errText: "WAT", call: render},
		{name: "RENDER-huge", want: "RENDER ds r01c02\n", reply: "OK 99999999\n", errText: "length", call: render},
		{name: "RENDER-truncated", want: "RENDER ds r01c02\n", reply: "OK 9\n<ex" + hangup, errText: "EOF", call: render},
	}
	variantsOf(t, rows, false, false)
}

func TestClientTranscriptClientAgent(t *testing.T) {
	id := lightfield.ViewSetID{R: 1, C: 2}
	getvs := func(ctx context.Context, c *clients) (string, error) {
		frame, rep, err := c.remote.GetViewSet(ctx, id)
		return fmt.Sprintf("%s %d %s", rep.Class, rep.Bytes, frame), err
	}
	rows := []clientRow{
		{name: "GETVS-wan", want: "GETVS ds r01c02\n", reply: "OK wan 5\nframe", result: "wan 5 frame", call: getvs},
		{name: "GETVS-hit", want: "GETVS ds r01c02\n", reply: "OK hit 5\nframe", result: "hit 5 frame", call: getvs},
		{name: "GETVS-lan", want: "GETVS ds r01c02\n", reply: "OK lan-depot 5\nframe", result: "lan-depot 5 frame", call: getvs},
		{name: "GETVS-edge", want: "GETVS ds r01c02\n", reply: "OK edge 5\nframe", result: "edge 5 frame", call: getvs},
		{name: "GETVS-class", want: "GETVS ds r01c02\n", reply: "OK psychic 5\nframe", errText: "psychic", call: getvs},
		{name: "GETVS-ERR", want: "GETVS ds r01c02\n", reply: "ERR unknown dataset ds\n",
			errText: "agent: remote getvs: unknown dataset ds", call: getvs},
		{name: "GETVS-junk", want: "GETVS ds r01c02\n", reply: "WAT\n", errText: "WAT", call: getvs},
		{name: "GETVS-huge", want: "GETVS ds r01c02\n", reply: "OK wan 999999999999\n", errText: "length", call: getvs},
		{name: "MOVE", want: "MOVE 0.5 1.25\n", reply: "OK\n", result: "",
			call: func(ctx context.Context, c *clients) (string, error) {
				c.remote.OnUserMove(geom.Spherical{Theta: 0.5, Phi: 1.25})
				return "", nil
			}},
	}
	// The client-agent protocol defines no optional tokens: a caller with a
	// deadline and a span sends the same bytes.
	variantsOf(t, rows, false, true)
}
