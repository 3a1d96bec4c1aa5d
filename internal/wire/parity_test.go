package wire_test

// Transcript parity: request line in, exact reply bytes out, for every verb
// and every reachable error of the five line protocols, over a TCP socket
// against servers built from exported constructors only. The file knows
// nothing of how the servers are built inside, so it passes unchanged on
// any commit that speaks docs/PROTOCOL.md.

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
	"testing"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/dvs"
	"lonviz/internal/edge"
	"lonviz/internal/ibp"
	"lonviz/internal/lightfield"
	"lonviz/internal/obs"
)

// bodyKind says what follows an OK status line.
type bodyKind int

const (
	bodyNone bodyKind = iota
	bodyLast          // as many bytes as the line's last field says
	bodyDVS           // "OK <n>" then n times "<len>\n" and len bytes
)

// connAfter says what the server does with the connection after the reply.
type connAfter int

const (
	kept          connAfter = iota
	dropsSerial             // dropped when untagged, kept when tagged
	dropsAlways             // dropped in both modes
	keptOrDropped           // not pinned: the test redials
)

type only int

const (
	bothModes only = iota
	untaggedOnly
	taggedOnly
)

// row is one exchange. req may name earlier captures as $NAME; want is a
// regexp for the whole status line (no newline) whose named groups become
// captures.
type row struct {
	req      string
	payload  string
	want     string
	body     bodyKind
	wantBody string
	after    connAfter
	only     only
	bare     bool // send exactly req: no optional tokens appended
	// unread: an untagged server answers without reading the payload and
	// drops the connection, so the payload is not sent then (bytes left
	// unread turn the close into a reset that can overtake the reply).
	unread bool
}

const testTokens = " deadline=60000 trace=a1/b2"

// session is one client connection driven row by row.
type session struct {
	t      *testing.T
	addr   string
	tagged bool
	tokens bool
	vars   map[string]string
	conn   net.Conn
	br     *bufio.Reader
	tag    int
}

func (s *session) dial() {
	s.t.Helper()
	conn, err := net.Dial("tcp", s.addr)
	if err != nil {
		s.t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	s.conn, s.br = conn, bufio.NewReader(conn)
	if s.tagged {
		fmt.Fprintf(conn, "PIPELINE 8\n")
		if line, err := s.br.ReadString('\n'); err != nil || line != "OK 8\n" {
			s.t.Fatalf("PIPELINE 8 -> %q, %v", line, err)
		}
	}
}

func (s *session) close() {
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
}

func (s *session) run(rows []row) {
	s.t.Helper()
	defer s.close()
	for _, r := range rows {
		if r.only == untaggedOnly && s.tagged || r.only == taggedOnly && !s.tagged {
			continue
		}
		s.exchange(r)
	}
}

func (s *session) exchange(r row) {
	s.t.Helper()
	if s.conn == nil {
		s.dial()
	}
	req, want := r.req, r.want
	for k, v := range s.vars {
		req = strings.ReplaceAll(req, "$"+k, v)
		want = strings.ReplaceAll(want, "$"+k, regexp.QuoteMeta(v))
	}
	// Emission order is fixed: tag, then deadline, then trace. A row that
	// brings its own trailing tokens gets the tag spliced in before them.
	head, own := req, ""
	if i := strings.Index(req, " deadline="); i >= 0 {
		head, own = req[:i], req[i:]
	}
	line := head
	if s.tagged {
		s.tag++
		line += " tag=" + strconv.Itoa(s.tag)
	}
	line += own
	if s.tokens && !r.bare && own == "" {
		line += testTokens
	}
	payload := r.payload
	if r.unread && !s.tagged {
		payload = ""
	}
	if _, err := io.WriteString(s.conn, line+"\n"+payload); err != nil {
		s.t.Fatalf("%q: write: %v", line, err)
	}
	status, err := s.br.ReadString('\n')
	if err != nil {
		s.t.Fatalf("%q: reading reply: %v", line, err)
	}
	status = strings.TrimSuffix(status, "\n")
	if s.tagged {
		prefix := "T" + strconv.Itoa(s.tag) + " "
		if !strings.HasPrefix(status, prefix) {
			s.t.Fatalf("%q -> %q, want prefix %q", line, status, prefix)
		}
		status = status[len(prefix):]
	}
	re := regexp.MustCompile("^(?:" + want + ")$")
	m := re.FindStringSubmatch(status)
	if m == nil {
		s.t.Fatalf("%q -> %q, want %s", line, status, want)
	}
	for i, name := range re.SubexpNames() {
		if name != "" {
			s.vars[name] = m[i]
		}
	}
	if strings.HasPrefix(status, "OK") {
		body := s.readBody(line, status, r.body)
		if r.wantBody != "" && body != r.wantBody {
			s.t.Fatalf("%q: body %q, want %q", line, body, r.wantBody)
		}
	}
	after := r.after
	if after == dropsSerial {
		after = kept
		if !s.tagged {
			after = dropsAlways
		}
	}
	switch after {
	case dropsAlways:
		if _, err := s.br.ReadByte(); !errors.Is(err, io.EOF) && !isReset(err) {
			s.t.Fatalf("%q: connection not dropped after reply (read: %v)", line, err)
		}
		s.close()
	case keptOrDropped:
		s.close()
	}
}

// isReset: a server that drops a connection with unread payload on it
// sends a reset, which is as good as EOF here.
func isReset(err error) bool {
	return err != nil && strings.Contains(err.Error(), "reset")
}

func (s *session) readBody(line, status string, kind bodyKind) string {
	s.t.Helper()
	f := strings.Fields(status)
	read := func(n int) string {
		buf := make([]byte, n)
		if _, err := io.ReadFull(s.br, buf); err != nil {
			s.t.Fatalf("%q: reading %d payload bytes: %v", line, n, err)
		}
		return string(buf)
	}
	switch kind {
	case bodyLast:
		n, err := strconv.Atoi(f[len(f)-1])
		if err != nil {
			s.t.Fatalf("%q: no length in %q", line, status)
		}
		return read(n)
	case bodyDVS:
		n, err := strconv.Atoi(f[1])
		if err != nil {
			s.t.Fatalf("%q: no count in %q", line, status)
		}
		var all strings.Builder
		for i := 0; i < n; i++ {
			szLine, err := s.br.ReadString('\n')
			if err != nil {
				s.t.Fatalf("%q: %v", line, err)
			}
			sz, err := strconv.Atoi(strings.TrimSpace(szLine))
			if err != nil {
				s.t.Fatalf("%q: bad entry size %q", line, szLine)
			}
			all.WriteString(szLine)
			all.WriteString(read(sz))
		}
		return all.String()
	}
	return ""
}

// variants runs rows four ways where the protocol has a tagged mode
// (untagged/tagged x plain/with tokens), two ways otherwise. setup builds a
// fresh service for each, so every variant sees the same state and must
// give the same answers.
func variants(t *testing.T, pipelined bool, setup func(t *testing.T) (addr string, vars map[string]string), rows []row) {
	for _, tagged := range []bool{false, true} {
		if tagged && !pipelined {
			continue
		}
		for _, tokens := range []bool{false, true} {
			name := "untagged"
			if tagged {
				name = "tagged"
			}
			if tokens {
				name += "+tokens"
			}
			t.Run(name, func(t *testing.T) {
				addr, vars := setup(t)
				if vars == nil {
					vars = map[string]string{}
				}
				s := &session{t: t, addr: addr, tagged: tagged, tokens: tokens, vars: vars}
				s.run(rows)
			})
		}
	}
}

func startDepot(t *testing.T) (*ibp.Depot, *ibp.Server, string) {
	t.Helper()
	d, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 1 << 20, MaxLease: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv := ibp.NewServer(d)
	srv.Obs = obs.NewRegistry()
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return d, srv, addr
}

const (
	protoSuffix = ": ibp: protocol error"
	noCap       = "ibp: unknown or wrong-type capability"
)

func TestTranscriptParityIBP(t *testing.T) {
	var target *ibp.Depot
	var targetRead string
	setup := func(t *testing.T) (string, map[string]string) {
		_, _, addr := startDepot(t)
		var taddr string
		target, _, taddr = startDepot(t)
		caps, err := target.Allocate(16, time.Minute, ibp.Stable)
		if err != nil {
			t.Fatal(err)
		}
		targetRead = caps.Read
		return addr, map[string]string{"TADDR": taddr, "TW": caps.Write}
	}
	rows := []row{
		{req: "STATUS", want: `OK 1048576 0 0`},
		{req: "ALLOCATE 100 60000 stable", want: `OK (?P<R>\S+) (?P<W>\S+) (?P<M>\S+)`},
		{req: "STORE $W 0 5", payload: "hello", want: `OK 5`},
		{req: "LOAD $R 0 5", want: `OK 5`, body: bodyLast, wantBody: "hello"},
		{req: "LOAD $R 3 0", want: `OK 0`, body: bodyLast},
		{req: "PROBE $M", want: `OK 100 \d{13} stable`},
		{req: "EXTEND $M 120000", want: `OK \d{13}`},
		{req: "COPY $R 0 5 $TADDR $TW 2", want: `OK 5`},
		{req: "STATUS", want: `OK 1048576 100 1`},
		{req: "ALLOCATE 7 1000 volatile", want: `OK \S+ \S+ \S+`},

		// Command errors keep the connection in both modes.
		{req: "LOAD nosuchcap 0 5", want: `ERR NOCAP ` + noCap},
		{req: "LOAD $W 0 5", want: `ERR NOCAP ` + noCap},
		{req: "LOAD $R 90 20", want: `ERR RANGE ibp: extent outside allocation: load \[90,110\) in 100`},
		{req: "STORE $W 98 5", payload: "hello", want: `ERR RANGE ibp: extent outside allocation: store \[98,103\) in 100`},
		{req: "STORE nosuchcap 0 5", payload: "hello", want: `ERR NOCAP ` + noCap},
		{req: "ALLOCATE -1 60000 stable", want: `ERR BADPARAM ibp: bad parameter: size -1`},
		{req: "ALLOCATE 10 60000 weird", want: `ERR BADPARAM ibp: bad parameter: policy "weird"`},
		{req: "ALLOCATE 2097152 60000 stable", want: `ERR NOSPACE ibp: allocation refused: insufficient capacity: need 2097152, free \d+`},
		{req: "ALLOCATE 10 999999999 stable", want: `ERR DURATION ibp: allocation refused: lease too long: \S+ > max 1h0m0s`},
		{req: "EXTEND $M 999999999", want: `ERR DURATION ibp: allocation refused: lease too long: \S+ > max 1h0m0s`},
		{req: "PROBE nosuchcap", want: `ERR NOCAP ` + noCap},
		{req: "EXTEND nosuchcap 1000", want: `ERR NOCAP ` + noCap},
		{req: "FREE nosuchcap", want: `ERR NOCAP ` + noCap},
		{req: "COPY nosuchcap 0 5 $TADDR $TW 0", want: `ERR NOCAP local read: ` + noCap},
		{req: "COPY $R 0 5 $TADDR nosuchcap 0", want: `ERR NOCAP target store: ` + noCap + `: ` + noCap},
		// The connection survived all of the above.
		{req: "LOAD $R 0 5", want: `OK 5`, body: bodyLast, wantBody: "hello"},

		// Malformed requests: protocol-fatal on a serial connection. A
		// tagged connection stays framed, so it keeps going, except after a
		// STORE whose payload length cannot be known.
		{req: "LOAD $R 0", want: `ERR PROTO LOAD wants 3 args` + protoSuffix, after: dropsSerial},
		{req: "LOAD $R x 5", want: `ERR PROTO bad LOAD numbers` + protoSuffix, after: dropsSerial},
		{req: "LOAD $R 0 -5", want: `ERR PROTO bad LOAD numbers` + protoSuffix, after: dropsSerial},
		{req: "LOAD $R 0 67108865", want: `ERR PROTO bad LOAD numbers` + protoSuffix, after: dropsSerial},
		{req: "ALLOCATE 1 2", want: `ERR PROTO ALLOCATE wants 3 args` + protoSuffix, after: dropsSerial},
		{req: "ALLOCATE a b stable", want: `ERR PROTO bad ALLOCATE numbers` + protoSuffix, after: dropsSerial},
		{req: "PROBE", want: `ERR PROTO PROBE wants 1 arg` + protoSuffix, after: dropsSerial},
		{req: "EXTEND $M", want: `ERR PROTO EXTEND wants 2 args` + protoSuffix, after: dropsSerial},
		{req: "EXTEND $M soon", want: `ERR PROTO bad EXTEND lease` + protoSuffix, after: dropsSerial},
		{req: "FREE", want: `ERR PROTO FREE wants 1 arg` + protoSuffix, after: dropsSerial},
		{req: "COPY $R 0 5", want: `ERR PROTO COPY wants 6 args` + protoSuffix, after: dropsSerial},
		{req: "COPY $R a 5 $TADDR $TW 0", want: `ERR PROTO bad COPY numbers` + protoSuffix, after: dropsSerial},
		{req: "STATUS now", want: `ERR PROTO STATUS wants no args` + protoSuffix, after: dropsSerial},
		{req: "FROB 1 2", want: `ERR PROTO unknown verb FROB` + protoSuffix, after: dropsSerial},
		{req: "load $R 0 5", want: `ERR PROTO unknown verb load` + protoSuffix, after: dropsSerial},
		{req: "", want: `ERR PROTO empty request` + protoSuffix, after: dropsAlways, only: untaggedOnly, bare: true},
		{req: "PIPELINE 4", want: `ERR PROTO unknown verb PIPELINE` + protoSuffix, only: taggedOnly},
		{req: "STORE $W 0", want: `ERR PROTO STORE wants 3 args` + protoSuffix, after: dropsAlways},
		{req: "STORE $W 0 many", want: `ERR PROTO bad STORE numbers` + protoSuffix, after: dropsAlways},
		{req: "STORE $W 0 -1", want: `ERR PROTO bad STORE numbers` + protoSuffix, after: dropsAlways},

		// An exhausted budget is shed before dispatch.
		{req: "STATUS deadline=0", want: `ERR BUSY deadline: ibp: depot busy, retry elsewhere`, after: dropsSerial},
		{req: "LOAD $R 0 5 deadline=0 trace=a1/b2", want: `ERR BUSY deadline: ibp: depot busy, retry elsewhere`, after: dropsSerial},
		{req: "STORE $W 0 5 deadline=0", payload: "HELLO", unread: true, want: `ERR BUSY deadline: ibp: depot busy, retry elsewhere`, after: dropsSerial},
		{req: "LOAD $R 0 5", want: `OK 5`, body: bodyLast, wantBody: "hello"},

		{req: "FREE $M", want: `OK 0`},
		{req: "LOAD $R 0 5", want: `ERR NOCAP ` + noCap},
	}
	variants(t, true, setup, rows)
	// The third-party COPY really landed on the other depot.
	got, err := target.Load(targetRead, 2, 5)
	if err != nil || string(got) != "hello" {
		t.Fatalf("COPY target holds %q, %v", got, err)
	}
}

// TestTranscriptParityHandshake pins the PIPELINE exchange itself and the
// one request a tagged connection cannot answer.
func TestTranscriptParityHandshake(t *testing.T) {
	_, disabled, disabledAddr := startDepot(t)
	disabled.PipelineWindow = -1
	_, _, depotAddr := startDepot(t)
	_, edgeAddr := startEdge(t)
	one := func(addr, req string) string {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		io.WriteString(conn, req)
		conn.(*net.TCPConn).CloseWrite()
		reply, _ := io.ReadAll(conn)
		return string(reply)
	}
	for _, tc := range []struct{ addr, req, want string }{
		{depotAddr, "PIPELINE\n", "ERR PROTO PIPELINE wants 1 arg" + protoSuffix + "\n"},
		{depotAddr, "PIPELINE 0\n", "ERR PROTO bad PIPELINE window" + protoSuffix + "\n"},
		{depotAddr, "PIPELINE lots\n", "ERR PROTO bad PIPELINE window" + protoSuffix + "\n"},
		{disabledAddr, "PIPELINE 8\n", "ERR PROTO pipelining disabled" + protoSuffix + "\n"},
		{edgeAddr, "PIPELINE\n", "ERR PROTO PIPELINE wants 1 arg\n"},
		{edgeAddr, "PIPELINE -3\n", "ERR PROTO bad PIPELINE window\n"},
		// Granted, then an untagged request: dropped with no answer.
		{depotAddr, "PIPELINE 1000\nSTATUS\n", "OK 32\n"},
		{edgeAddr, "PIPELINE 1000\nSTATUS\n", "OK 32\n"},
		{depotAddr, "PIPELINE 2 trace=a1/b2\nSTATUS tag=x\n", "OK 2\n"},
		// Granted, then tagged requests answered in turn.
		{depotAddr, "PIPELINE 2\nSTATUS tag=18446744073709551615\n", "OK 2\nT18446744073709551615 OK 1048576 0 0\n"},
	} {
		if got := one(tc.addr, tc.req); got != tc.want {
			t.Errorf("%q -> %q, want %q", tc.req, got, tc.want)
		}
	}
}

func startEdge(t *testing.T) (*edge.Server, string) {
	t.Helper()
	reg := obs.NewRegistry()
	cache, err := edge.NewCache(edge.CacheConfig{CapacityBytes: 1 << 20, FillTimeout: 5 * time.Second, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv := edge.NewServer(cache)
	srv.Obs = reg
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func TestTranscriptParityEdge(t *testing.T) {
	const payload = "sixteen byte set"
	setup := func(t *testing.T) (string, map[string]string) {
		origin, _, originAddr := startDepot(t)
		caps, err := origin.Allocate(int64(len(payload)), time.Minute, ibp.Stable)
		if err != nil {
			t.Fatal(err)
		}
		if err := origin.Store(caps.Write, 0, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		_, addr := startEdge(t)
		return addr, map[string]string{
			"C":     edge.Cap{Hint: "r00c01", OriginDepot: originAddr, OriginCap: caps.Read}.Encode(),
			"BAD":   edge.Cap{Hint: "r00c02", OriginDepot: originAddr, OriginCap: "nosuchcap"}.Encode(),
			"PLAIN": caps.Read,
		}
	}
	rows := []row{
		{req: "STATUS", want: `OK 1048576 0 0`},
		{req: "LOAD $C 0 16", want: `OK 16`, body: bodyLast, wantBody: payload}, // miss, filled
		{req: "LOAD $C 0 16", want: `OK 16`, body: bodyLast, wantBody: payload}, // hit
		{req: "LOAD $C 8 4", want: `OK 4`, body: bodyLast, wantBody: "byte"},
		{req: "STATUS", want: `OK 1048576 20 2`},
		{req: "LOAD $PLAIN 0 16", want: `ERR NOCAP not an edge composite capability`},
		{req: "LOAD edge!h!!cap 0 16", want: `ERR NOCAP not an edge composite capability`},
		{req: "LOAD $BAD 0 16", want: `ERR INTERNAL fill: .*` + noCap + `.*`},
		{req: "LOAD $C 0 16", want: `OK 16`, body: bodyLast, wantBody: payload},

		{req: "LOAD $C 0", want: `ERR PROTO LOAD wants 3 args`, after: dropsSerial},
		{req: "LOAD $C x 16", want: `ERR PROTO bad LOAD numbers`, after: dropsSerial},
		{req: "LOAD $C 0 67108865", want: `ERR PROTO bad LOAD numbers`, after: dropsSerial},
		{req: "STATUS now", want: `ERR PROTO STATUS wants no args`, after: dropsSerial},
		{req: "ALLOCATE 100 60000 stable", want: `ERR PROTO unknown verb ALLOCATE`, after: dropsSerial},
		{req: "STORE $C 0 4", want: `ERR PROTO unknown verb STORE`, after: dropsSerial},
		{req: "", want: `ERR PROTO empty request`, after: dropsAlways, only: untaggedOnly, bare: true},
		{req: "PIPELINE 4", want: `ERR PROTO unknown verb PIPELINE`, only: taggedOnly},

		// What a serial edge connection does after a shed is not pinned
		// (its only serial client dials per request); a tagged one stays.
		{req: "STATUS deadline=0", want: `ERR BUSY deadline`, after: keptOrDropped, only: untaggedOnly},
		{req: "LOAD $C 0 16 deadline=0 trace=a1/b2", want: `ERR BUSY deadline`, after: keptOrDropped, only: untaggedOnly},
		{req: "STATUS deadline=0", want: `ERR BUSY deadline`, only: taggedOnly},
		{req: "LOAD $C 0 16 deadline=0 trace=a1/b2", want: `ERR BUSY deadline`, only: taggedOnly},
		{req: "LOAD $C 0 16", want: `OK 16`, body: bodyLast, wantBody: payload},
	}
	variants(t, true, setup, rows)
}

func TestTranscriptParityDVS(t *testing.T) {
	setup := func(t *testing.T) (string, map[string]string) {
		srv := dvs.NewServer("")
		srv.Obs = obs.NewRegistry()
		srv.Generate = func(ctx context.Context, agentAddr string, key dvs.Key) ([]byte, error) {
			return nil, errors.New("generator\ndown")
		}
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return addr, nil
	}
	rows := []row{
		{req: "GET d r00c00", want: `MISS`},
		{req: "PUT d r00c00 9", payload: "<exnode/>", want: `OK`},
		{req: "GET d r00c00", want: `OK 1`, body: bodyDVS, wantBody: "9\n<exnode/>"},
		{req: "PUT d r00c00 4", payload: "<b/>", want: `OK`},
		{req: "GET d r00c00", want: `OK 2`, body: bodyDVS, wantBody: "9\n<exnode/>4\n<b/>"},
		{req: "REPLACE d r00c00 5", payload: "<new>", want: `OK`},
		{req: "GET d r00c00", want: `OK 1`, body: bodyDVS, wantBody: "5\n<new>"},
		{req: "AGENT d", want: `MISS`},
		{req: "REGAGENT d 127.0.0.1:9", want: `OK`},
		{req: "AGENT d", want: `OK 127\.0\.0\.1:9`},
		{req: "AGENT other", want: `MISS`},
		// A registered agent whose generation fails: an error, not a miss,
		// flattened to one line.
		{req: "GET d r00c01", want: `ERR dvs: on-demand generation of d/r00c01: generator down`},
		{req: "GET d r00c00", want: `OK 1`, body: bodyDVS, wantBody: "5\n<new>"},

		{req: "PUT d r00c00 0", want: `ERR bad length`, after: dropsAlways},
		{req: "PUT d r00c00 x", want: `ERR bad length`, after: dropsAlways},
		{req: "REPLACE d r00c00 4194305", want: `ERR bad length`, after: dropsAlways},
		{req: "PUT d r00c00", want: `ERR bad request`, after: dropsAlways},
		{req: "GET d", want: `ERR bad request`, after: dropsAlways},
		{req: "GET d r00c00 extra", want: `ERR bad request`, after: dropsAlways},
		{req: "REGAGENT d", want: `ERR bad request`, after: dropsAlways},
		{req: "AGENT", want: `ERR bad request`, after: dropsAlways},
		{req: "STATUS", want: `ERR bad request`, after: dropsAlways},
		{req: "PIPELINE 8", want: `ERR bad request`, after: dropsAlways},
		{req: "", want: `ERR bad request`, after: dropsAlways, bare: true},

		{req: "GET d r00c00 deadline=0", want: `ERR BUSY deadline`, after: dropsAlways},
		{req: "PUT d r00c00 4 deadline=0 trace=a1/b2", payload: "<c/>", unread: true, want: `ERR BUSY deadline`, after: dropsAlways},
		{req: "GET d r00c00", want: `OK 1`, body: bodyDVS, wantBody: "5\n<new>"},
	}
	variants(t, false, setup, rows)
}

// agentRig is a published two-by-four database: depot, DVS, server agent.
type agentRig struct {
	params  lightfield.Params
	gen     lightfield.Generator
	dvsAddr string
	sa      *agent.ServerAgent
	saAddr  string
}

func startAgentRig(t *testing.T) *agentRig {
	t.Helper()
	r := &agentRig{params: lightfield.ScaledParams(45, 2, 6)}
	d, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 1 << 24, MaxLease: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	depot := ibp.NewServer(d)
	depotAddr, err := depot.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { depot.Close() })
	dvsSrv := dvs.NewServer("")
	r.dvsAddr, err = dvsSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dvsSrv.Close() })
	r.gen, err = lightfield.NewProceduralGenerator(r.params, 77)
	if err != nil {
		t.Fatal(err)
	}
	r.sa, err = agent.NewServerAgent(agent.ServerAgentConfig{
		Dataset: "neghip",
		Gen:     r.gen,
		Depots:  []string{depotAddr},
		DVS:     &dvs.Client{Addr: r.dvsAddr},
		Obs:     obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.sa.Close() })
	r.saAddr, err = r.sa.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTranscriptParityRender(t *testing.T) {
	setup := func(t *testing.T) (string, map[string]string) {
		return startAgentRig(t).saAddr, nil
	}
	rows := []row{
		{req: "RENDER neghip r00c01", want: `OK \d+`, body: bodyLast},
		{req: "RENDER neghip garbage", want: `ERR agent: bad view set key "garbage"`},
		{req: "RENDER neghip r90c90", want: `ERR agent: view set r90c90 outside database`},
		{req: "RENDER neghip r00c01 deadline=0", want: `ERR BUSY render request shed, retry later`},
		{req: "RENDER neghip r01c03", want: `OK \d+`, body: bodyLast},
		{req: "RENDER wrong r00c00", want: `ERR bad request`, after: dropsAlways},
		{req: "RENDER neghip", want: `ERR bad request`, after: dropsAlways},
		{req: "RENDER neghip r00c00 extra", want: `ERR bad request`, after: dropsAlways},
		{req: "GETVS neghip r00c00", want: `ERR bad request`, after: dropsAlways},
		{req: "", want: `ERR bad request`, after: dropsAlways, bare: true},
	}
	variants(t, false, setup, rows)
}

func TestTranscriptParityClientAgent(t *testing.T) {
	r := startAgentRig(t)
	if _, err := r.sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	ca, err := agent.NewClientAgent(agent.ClientAgentConfig{
		Dataset:    "neghip",
		Params:     r.params,
		DVS:        &dvs.Client{Addr: r.dvsAddr},
		CacheBytes: 1 << 22,
		Obs:        obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ca.Close)
	srv, err := agent.NewClientAgentServer(ca, "neghip")
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	rows := []row{
		{req: "STATS", want: `OK 0 0 0 0`},
		{req: "GETVS neghip r00c01", want: `OK wan (?P<N>\d+)`, body: bodyLast},
		{req: "GETVS neghip r00c01", want: `OK hit $N`, body: bodyLast},
		{req: "STATS", want: `OK 1 0 1 0`},
		{req: "MOVE 10.5 -20", want: `OK`},
		{req: "MOVE a b", want: `ERR bad angles`},
		{req: "GETVS wrongds r00c00", want: `ERR unknown dataset wrongds`},
		{req: "GETVS neghip garbage", want: `ERR agent: bad view set key "garbage"`},
		{req: "GETVS neghip r90c90", want: `ERR .*r90c90.*`},
		{req: "STATS", want: `OK 1 0 1 0`},
		// This protocol defines no optional tokens: one more field is one
		// field too many.
		{req: "STATS trace=a1/b2", want: `ERR bad request`, after: dropsAlways},
		{req: "GETVS neghip r00c01 deadline=500", want: `ERR bad request`, after: dropsAlways},
		{req: "GETVS neghip", want: `ERR bad request`, after: dropsAlways},
		{req: "MOVE 1", want: `ERR bad request`, after: dropsAlways},
		{req: "RENDER neghip r00c00", want: `ERR bad request`, after: dropsAlways},
		{req: "", want: `ERR bad request`, after: dropsAlways},
	}
	s := &session{t: t, addr: addr, vars: map[string]string{}}
	s.run(rows)
}
