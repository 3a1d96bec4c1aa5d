package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

// TestClientWatchdogNeedsRequestsInFlight: the tagged reader's idle watchdog
// breaks a connection that owes a reply and has gone quiet, and only that:
// an idle connection outlives any number of watchdog periods. (In-package
// because only here can the 30 s period be shortened.)
func TestClientWatchdogNeedsRequestsInFlight(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { // grants PIPELINE, then reads requests and never answers
		nc, err := l.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		if _, err := br.ReadString('\n'); err != nil {
			return
		}
		fmt.Fprint(nc, "OK 4\n")
		for {
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
		}
	}()
	errBroken, errMalformed := errors.New("broken"), errors.New("malformed")
	const period = 40 * time.Millisecond
	c := &Client{
		Addr:   l.Addr().String(),
		Proto:  &Protocol{Err: func([]string) error { return errors.New("refused") }, Malformed: errMalformed, Broken: errBroken},
		Window: 4,
		idle:   period,
	}
	defer c.Close()
	cc, err := c.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(4 * period)
	if err := cc.Broken(); err != nil {
		t.Fatalf("idle connection broken after 4 watchdog periods: %v", err)
	}
	start := time.Now()
	err = cc.Do(context.Background(), &Call{Line: "PROBE cap"})
	if !errors.Is(err, errBroken) {
		t.Fatalf("request never answered: %v, want the watchdog to break the connection", err)
	}
	if waited := time.Since(start); waited > 10*period {
		t.Errorf("watchdog took %v, period is %v", waited, period)
	}
	if cc.Broken() == nil {
		t.Error("connection not marked broken")
	}
}
