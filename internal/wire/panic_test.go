package wire_test

import (
	"bufio"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"lonviz/internal/obs"
	"lonviz/internal/wire"
)

// TestHandlerPanicReachesEventLog: a verb handler that panics costs its own
// connection only — the connection closes, a new one is served — and the
// panic lands in the event log (so in /debug/events and a capture bundle's
// events.json) as one error record naming the component.
func TestHandlerPanicReachesEventLog(t *testing.T) {
	const component = "panictest"
	svc := testService(nil)
	svc.Names.Component = component
	svc.Verbs["BOOM"] = wire.Verb{Handle: func(context.Context, *wire.Request, *wire.Reply) bool {
		panic("handler blew up")
	}}
	l := tcpListener(t)()
	serveTest(t, svc, l)

	var since uint64
	if evs := obs.DefaultLogger().Events(); len(evs) > 0 {
		since = evs[len(evs)-1].Seq
	}
	exchange := func(line string) (string, error) {
		nc, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.WriteString(nc, line); err != nil {
			t.Fatal(err)
		}
		return bufio.NewReader(nc).ReadString('\n')
	}
	if reply, err := exchange("BOOM\n"); err != io.EOF {
		t.Fatalf("panicking request: reply %q, err %v; want the connection closed (EOF)", reply, err)
	}
	if reply, err := exchange("PING\n"); err != nil || reply != "OK\n" {
		t.Fatalf("request after the panic: reply %q, err %v; want OK", reply, err)
	}

	var got []obs.Event
	for _, ev := range obs.DefaultLogger().Events() {
		if ev.Seq > since && ev.Name == obs.EvWirePanic {
			got = append(got, ev)
		}
	}
	if len(got) != 1 {
		t.Fatalf("%d %s records, want 1: %+v", len(got), obs.EvWirePanic, got)
	}
	fields := map[string]string{}
	for _, f := range got[0].Fields {
		fields[f.Key] = f.Value
	}
	if got[0].Level != "error" || fields["component"] != component || fields["panic"] != "handler blew up" {
		t.Errorf("panic record = %+v, want level error, component %s, panic %q", got[0], component, "handler blew up")
	}
}
