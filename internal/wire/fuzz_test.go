package wire

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lonviz/internal/obs"
)

// protocolExamples pulls every example request line out of
// docs/PROTOCOL.md: code spans and code-block lines that start with a verb.
func protocolExamples(tb testing.TB) []string {
	doc, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, m := range regexp.MustCompile("`([A-Z]{3,}[^`\n]*)`").FindAllSubmatch(doc, -1) {
		out = append(out, string(m[1]))
	}
	for _, m := range regexp.MustCompile(`(?m)^([A-Z]{3,} [^\n]*)$`).FindAllSubmatch(doc, -1) {
		out = append(out, string(m[1]))
	}
	if len(out) < 20 {
		tb.Fatalf("only %d example lines found in docs/PROTOCOL.md", len(out))
	}
	return out
}

// FuzzParseRequest: the parser never panics, strips each token at most
// once, only from the end, trace then deadline then tag, and leaves no
// token behind that it was asked to strip.
func FuzzParseRequest(f *testing.F) {
	for _, line := range protocolExamples(f) {
		f.Add(line, true, true)
		f.Add(line+" tag=7 deadline=250 trace=a1/b2", true, true)
	}
	for _, line := range []string{
		"", "\n", " \t ", "tag=1", "STATUS tag=1 tag=2", "LOAD c 0 5 trace=a1/b2 deadline=5 tag=3",
		"LOAD c 0 5 tag=18446744073709551616", "STATUS deadline=-1", "STATUS trace=0/0",
		"STATUS trace=a1/b2 trace=c3/d4", "GET d v deadline=0 deadline=9",
	} {
		f.Add(line, true, true)
		f.Add(line, false, true)
		f.Add(line, true, false)
	}
	f.Fuzz(func(t *testing.T, line string, tokens, tagged bool) {
		req := ParseRequest(line, tokens, tagged)
		orig := strings.Fields(line)
		if !slices.Equal(req.Fields, orig[:len(req.Fields)]) {
			t.Fatalf("fields %q are not a prefix of %q", req.Fields, orig)
		}
		if (req.Traced || req.HasBudget) && !tokens || req.Tagged && !tagged {
			t.Fatalf("stripped a token the connection does not define: %+v", req)
		}
		// The stripped tail is exactly [tag=][deadline=][trace=], in the
		// order clients emit them.
		tail := orig[len(req.Fields):]
		for _, tok := range []struct {
			stripped bool
			prefix   string
		}{{req.Tagged, "tag="}, {req.HasBudget, "deadline="}, {req.Traced, "trace="}} {
			if !tok.stripped {
				continue
			}
			if len(tail) == 0 || !strings.HasPrefix(tail[0], tok.prefix) {
				t.Fatalf("%q: stripped %q out of order (tail %q)", line, tok.prefix, tail)
			}
			tail = tail[1:]
		}
		if len(tail) != 0 {
			t.Fatalf("%q: %q vanished without being a token", line, tail)
		}
		// Nothing it should have stripped is still the last argument.
		if n := len(req.Fields); n > 0 {
			last := req.Fields[n-1:]
			if _, _, ok := StripTagToken(last); ok && tagged && !req.Tagged {
				t.Fatalf("%q: tag survives in %q", line, req.Fields)
			}
			if _, _, ok := obs.StripDeadlineToken(last); ok && tokens && !req.HasBudget && !req.Tagged {
				t.Fatalf("%q: deadline survives in %q", line, req.Fields)
			}
			if _, _, ok := obs.StripTraceToken(last); ok && tokens && !req.Traced && !req.HasBudget && !req.Tagged {
				t.Fatalf("%q: trace survives in %q", line, req.Fields)
			}
		}
	})
}

// scriptConn is a connection whose peer already said everything it will:
// reads come from a fixed script, writes are kept.
type scriptConn struct {
	in  *bytes.Reader
	mu  sync.Mutex
	out bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error) { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.Write(p)
}
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

const stubLineCap = 64

// stubServer is a service with one payload verb, one plain verb and the
// upgrade. Its handlers report any request the loop should not have let
// through.
func stubServer(t *testing.T) *Server {
	refuse := func(msg string) string { return "ERR " + msg }
	checkLine := func(req *Request) {
		if n := len(strings.Join(req.Fields, " ")); n >= stubLineCap {
			t.Errorf("handler saw a %d-byte request, cap is %d", n, stubLineCap)
		}
	}
	return NewServer(Service{
		Names: Names{Component: "stub"},
		Verbs: map[string]Verb{
			"PUT": {
				Payload: func(req *Request, r *Reply) (int, bool) {
					checkLine(req)
					if len(req.Fields) != 2 {
						r.Line("ERR PUT wants 1 arg")
						return 0, false
					}
					n, err := strconv.Atoi(req.Fields[1])
					if err != nil || n < 0 || n > 1<<16 {
						r.Line("ERR bad length")
						return 0, false
					}
					return n, true
				},
				Handle: func(_ context.Context, req *Request, r *Reply) bool {
					if want, _ := strconv.Atoi(req.Fields[1]); len(req.Payload) != want {
						t.Errorf("PUT %d got a %d-byte payload", want, len(req.Payload))
					}
					fmt.Fprintf(r, "OK %d\n", len(req.Payload))
					return true
				},
			},
			"ECHO": {Handle: func(_ context.Context, req *Request, r *Reply) bool {
				checkLine(req)
				r.Line("OK " + strings.Join(req.Fields[1:], " "))
				return len(req.Fields) < 4 // a long ECHO is this protocol's fatal error
			}},
			"PIPELINE": Pipeline,
		},
		LineCap: stubLineCap,
		Tokens:  true,
		Busy:    func(reason string) string { return "ERR BUSY " + reason },
		Refuse:  refuse,
	}, func() Settings { return Settings{Obs: obs.NewRegistry()} })
}

// serveScript runs one connection to the end of its script and returns
// what the server wrote.
func serveScript(t *testing.T, script []byte) string {
	c := &scriptConn{in: bytes.NewReader(script)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		stubServer(t).serveConn(c)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("connection still being served 10 s after its script ended: %q", script)
	}
	return c.out.String()
}

// FuzzServeConn: arbitrary bytes never panic or wedge the loop and never
// get a request past the line cap; and whatever a payload holds, the loop
// reads exactly the declared length, so the request after it is answered
// as if the payload were opaque — untagged and tagged alike.
func FuzzServeConn(f *testing.F) {
	for _, ex := range protocolExamples(f) {
		f.Add([]byte(ex+"\n"), []byte(ex))
	}
	f.Add([]byte("PUT 3\nabcECHO hi\nPIPELINE 2\nECHO a tag=1\nPUT 1 tag=2\nxECHO untagged\n"), []byte("ECHO inside\nPIPELINE 9\n"))
	f.Add([]byte("PUT 70000\n"), []byte{})
	f.Add([]byte("PUT 5\nab"), []byte("\n\n\n"))
	f.Add([]byte(strings.Repeat("A", 200)+"\nECHO late\n"), []byte("T1 OK"))
	f.Add([]byte("ECHO a deadline=0\nECHO b trace=a1/b2\nECHO 1 2 3 4\nECHO never\n"), []byte("PUT 9\n"))
	f.Fuzz(func(t *testing.T, raw, payload []byte) {
		serveScript(t, raw)

		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		put := fmt.Sprintf("PUT %d", len(payload))
		want := fmt.Sprintf("OK %d\nOK after\n", len(payload))
		untagged := put + "\n" + string(payload) + "ECHO after\n"
		if got := serveScript(t, []byte(untagged)); got != want {
			t.Fatalf("untagged: %q answered %q, want %q", untagged, got, want)
		}
		tagged := "PIPELINE 1\n" + put + " tag=1\n" + string(payload) + "ECHO after tag=2\n"
		want = fmt.Sprintf("OK 1\nT1 OK %d\nT2 OK after\n", len(payload))
		if got := serveScript(t, []byte(tagged)); got != want {
			t.Fatalf("tagged: %q answered %q, want %q", tagged, got, want)
		}
	})
}
