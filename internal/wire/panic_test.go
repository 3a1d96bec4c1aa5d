package wire_test

import (
	"bufio"
	"context"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"lonviz/internal/obs"
	"lonviz/internal/overload"
	"lonviz/internal/wire"
)

// TestHandlerPanicReachesEventLog: a verb handler that panics costs its own
// connection only — the connection closes, a new one is served — and the
// panic lands in the event log (so in /debug/events and a capture bundle's
// events.json) as one error record naming the component. That holds on an
// untagged connection and on a pipelined one, whose handlers run on
// workers of their own. The server admits one request at a time, so a
// panic that kept its admission slot would leave every later request shed.
func TestHandlerPanicReachesEventLog(t *testing.T) {
	const component = "panictest"
	svc := testService(nil)
	svc.Names.Component = component
	svc.Names.Shed = "panictest.shed"
	svc.Verbs["BOOM"] = wire.Verb{Handle: func(context.Context, *wire.Request, *wire.Reply) bool {
		panic("handler blew up")
	}}
	l := tcpListener(t)()
	gate := overload.NewGate(1, 0, 0)
	srv := wire.NewServer(svc, func() wire.Settings {
		return wire.Settings{Obs: obs.NewRegistry(), Admission: gate}
	})
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	var since uint64
	if evs := obs.DefaultLogger().Events(); len(evs) > 0 {
		since = evs[len(evs)-1].Seq
	}
	// exchange sends lines on a new connection and returns the first n
	// replies, or all those read before the connection ends.
	exchange := func(lines string, n int) ([]string, error) {
		nc, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.WriteString(nc, lines); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(nc)
		var replies []string
		for len(replies) != n {
			reply, err := br.ReadString('\n')
			if err != nil {
				return replies, err
			}
			replies = append(replies, reply)
		}
		return replies, nil
	}
	for _, tc := range []struct {
		name, lines string
		replies     []string
	}{
		{"untagged", "BOOM\n", nil},
		{"pipelined", "PIPELINE 4\nBOOM tag=1\n", []string{"OK 4\n"}},
	} {
		replies, err := exchange(tc.lines, -1)
		if err != io.EOF || !slices.Equal(replies, tc.replies) {
			t.Fatalf("%s panicking request: replies %q, err %v; want %q and the connection closed (EOF)",
				tc.name, replies, err, tc.replies)
		}
		if replies, err := exchange("PING\n", 1); err != nil || !slices.Equal(replies, []string{"OK\n"}) {
			t.Fatalf("request after the %s panic: replies %q, err %v; want OK", tc.name, replies, err)
		}
	}

	var got []obs.Event
	for _, ev := range obs.DefaultLogger().Events() {
		if ev.Seq > since && ev.Name == obs.EvWirePanic {
			got = append(got, ev)
		}
	}
	if len(got) != 2 {
		t.Fatalf("%d %s records, want 2: %+v", len(got), obs.EvWirePanic, got)
	}
	for _, ev := range got {
		fields := map[string]string{}
		for _, f := range ev.Fields {
			fields[f.Key] = f.Value
		}
		if ev.Level != "error" || fields["component"] != component || fields["panic"] != "handler blew up" {
			t.Errorf("panic record = %+v, want level error, component %s, panic %q", ev, component, "handler blew up")
		}
	}
}
