package daemon

import (
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"lonviz/internal/ibp"
	"lonviz/internal/lbone"
	"lonviz/internal/obs/slo"
)

// harness returns a harness on a private flag set.
func harness() (*Daemon, *flag.FlagSet) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	d := newOn(fs, "test")
	return d, fs
}

func parse(t *testing.T, fs *flag.FlagSet, args ...string) {
	t.Helper()
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
}

func TestBadLogLevelFailsBeforeBody(t *testing.T) {
	d, fs := harness()
	parse(t, fs, "-log-level", "loud")
	ran := false
	err := d.run(context.Background(), func(context.Context, *slo.Stack) error {
		ran = true
		return nil
	})
	if err == nil || ran {
		t.Fatalf("run = %v, body ran %v; want an error and no body", err, ran)
	}
}

func TestCancelledContextClosesStack(t *testing.T) {
	d, fs := harness()
	parse(t, fs, "-metrics-addr", "127.0.0.1:0", "-tsdb-interval", "10ms")
	ctx, cancel := context.WithCancel(context.Background())
	addr := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- d.run(ctx, func(ctx context.Context, stack *slo.Stack) error {
			stack.MarkReady()
			addr <- stack.Addr()
			<-ctx.Done()
			return nil
		})
	}()
	a := <-addr
	if c, err := net.Dial("tcp", a); err != nil {
		t.Fatalf("stack not serving on %s: %v", a, err)
	} else {
		c.Close()
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel = %v, want nil", err)
		}
	case <-time.After(closeTimeout + 2*time.Second):
		t.Fatalf("run did not return within the %v close bound", closeTimeout)
	}
	if c, err := net.DialTimeout("tcp", a, 200*time.Millisecond); err == nil {
		c.Close()
		t.Fatalf("stack still accepting on %s after run returned", a)
	}
}

func TestAdmissionGate(t *testing.T) {
	d, fs := harness()
	adm := d.Admission()
	parse(t, fs)
	if g := adm.Gate(); g != nil {
		t.Fatalf("-max-inflight 0: gate = %v, want nil", g)
	}

	d, fs = harness()
	adm = d.Admission()
	parse(t, fs, "-max-inflight", "2", "-max-queue", "3")
	if adm.Gate() == nil {
		t.Fatal("-max-inflight 2: gate = nil")
	}
}

// TestPipelineWindowOneRule: the flag reads in the library's spelling,
// where a server's "off" is -1 because a library 0 means the default; a
// client handed -1 asks for the default, since every client keeps its
// connections either way.
func TestPipelineWindowOneRule(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
	}{
		{nil, ibp.DefaultPipelineWindow},
		{[]string{"-pipeline-window", "8"}, 8},
		{[]string{"-pipeline-window", "0"}, -1},
		{[]string{"-pipeline-window", "-1"}, -1},
	} {
		d, fs := harness()
		w := d.PipelineWindow("usage")
		parse(t, fs, c.args...)
		if got := w(); got != c.want {
			t.Errorf("%v: window = %d, want %d", c.args, got, c.want)
		}
	}
}

// TestAnnounceRegistersBeforeReturning pins the one announce sequence: the
// first registration is synchronous and carries the metrics address.
func TestAnnounceRegistersBeforeReturning(t *testing.T) {
	srv := lbone.NewServer()
	lb, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	d, fs := harness()
	parse(t, fs, "-metrics-addr", "127.0.0.1:0")
	err = d.run(context.Background(), func(ctx context.Context, stack *slo.Stack) error {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		d.Announce(ctx, stack, "http://"+lb, time.Hour, func() lbone.DepotRecord {
			return lbone.DepotRecord{Addr: "127.0.0.1:1", Kind: lbone.KindEdge}
		})
		members, err := (&lbone.Client{BaseURL: "http://" + lb}).Members(ctx)
		if err != nil {
			return err
		}
		if len(members) != 1 || members[0].MetricsAddr != stack.Addr() {
			t.Errorf("members after Announce = %+v, want one with MetricsAddr %s", members, stack.Addr())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBodyErrorExitsNonZero runs Run in a child process (see
// TestHelperDaemon) and checks the exit status and message.
func TestBodyErrorExitsNonZero(t *testing.T) {
	out, err := helper(t, "fail").CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("exit = %v, want status 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "helper: boom") {
		t.Fatalf("output lacks the body error:\n%s", out)
	}
}

// TestSIGTERMExitsZero checks that a signal cancels the body's context
// and a body that then returns nil exits 0.
func TestSIGTERMExitsZero(t *testing.T) {
	cmd := helper(t, "serve")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, _ := io.ReadAtLeast(stdout, buf, len("ready\n"))
	if !strings.Contains(string(buf[:n]), "ready") {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("helper did not start: %q", buf[:n])
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(stdout)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM = %v, want 0", err)
	}
	if !strings.Contains(string(rest), "helper: shutting down") {
		t.Fatalf("no shutdown line after the signal: %q", rest)
	}
}

func helper(t *testing.T, mode string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperDaemon$")
	cmd.Env = append(os.Environ(), "DAEMON_HELPER="+mode)
	return cmd
}

// TestHelperDaemon is the child process of the exit-status tests; it does
// nothing unless DAEMON_HELPER names a mode.
func TestHelperDaemon(t *testing.T) {
	mode := os.Getenv("DAEMON_HELPER")
	if mode == "" {
		t.Skip("child process of TestBodyErrorExitsNonZero and TestSIGTERMExitsZero")
	}
	d, fs := harness()
	parse(t, fs)
	d.Name = "helper"
	d.Run(func(ctx context.Context, _ *slo.Stack) error {
		if mode == "fail" {
			return errors.New("boom")
		}
		os.Stdout.WriteString("ready\n")
		<-ctx.Done()
		os.Stdout.WriteString("helper: shutting down\n")
		return nil
	})
}
