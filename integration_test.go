package lonviz

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestBinariesEndToEnd builds the real executables and runs a complete
// deployment: two depots, an L-Bone, a DVS, a server agent publishing a
// procedural database, and a browsing client — the multi-process shape of
// the paper's system, on loopback. It ends every daemon the way an
// operator does, with SIGTERM, and checks each shuts down cleanly.
func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries")
	}
	bin := t.TempDir()
	for _, tool := range []string{"depotd", "lboned", "dvsd", "lfserve", "lfbrowse", "lfgen", "lfedged"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}

	freePort := func() string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		return l.Addr().String()
	}
	waitListen := func(addr string) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
			if err == nil {
				c.Close()
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("nothing listening on %s", addr)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	type proc struct {
		name string
		cmd  *exec.Cmd
		out  *syncBuffer
		done chan error // receives Wait's result once the process exits
	}
	var procs []*proc
	start := func(name string, args ...string) *syncBuffer {
		p := &proc{name: name, cmd: exec.Command(filepath.Join(bin, name), args...), out: &syncBuffer{}, done: make(chan error, 1)}
		p.cmd.Stdout = p.out
		p.cmd.Stderr = p.out
		if err := p.cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", name, err)
		}
		go func() { p.done <- p.cmd.Wait() }()
		procs = append(procs, p)
		return p.out
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.cmd.Process.Kill()
			<-p.done
		}
	})

	lbAddr := freePort()
	start("lboned", "-addr", lbAddr)
	waitListen(lbAddr)

	depot1 := freePort()
	depot2 := freePort()
	start("depotd", "-addr", depot1, "-capacity", "67108864", "-lbone", "http://"+lbAddr, "-x", "1", "-y", "1")
	start("depotd", "-addr", depot2, "-capacity", "67108864", "-dir", t.TempDir(), "-lbone", "http://"+lbAddr, "-x", "2", "-y", "2")
	waitListen(depot1)
	waitListen(depot2)

	dvsAddr := freePort()
	start("dvsd", "-addr", dvsAddr, "-generate")
	waitListen(dvsAddr)

	// lfgen writes a store; lfserve serves it with live fallback.
	storeDir := t.TempDir()
	genOut, err := exec.Command(filepath.Join(bin, "lfgen"),
		"-out", storeDir, "-procedural", "-res", "16", "-step", "30", "-l", "3").CombinedOutput()
	if err != nil {
		t.Fatalf("lfgen: %v\n%s", err, genOut)
	}
	if !strings.Contains(string(genOut), "generated 8 view sets") {
		t.Fatalf("lfgen output unexpected:\n%s", genOut)
	}

	saAddr := freePort()
	serveBuf := start("lfserve",
		"-addr", saAddr,
		"-depots", depot1+","+depot2,
		"-dvs", dvsAddr,
		"-procedural",
		"-store", storeDir,
		"-res", "16", "-step", "30", "-l", "3")
	waitListen(saAddr)
	// Wait for precompute to publish.
	deadline := time.Now().Add(30 * time.Second)
	for !strings.Contains(serveBuf.String(), "published") {
		if time.Now().After(deadline) {
			t.Fatalf("lfserve never published:\n%s", serveBuf.String())
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The client browses 10 accesses.
	browse := exec.Command(filepath.Join(bin, "lfbrowse"),
		"-dvs", dvsAddr,
		"-res", "16", "-step", "30", "-l", "3",
		"-accesses", "10", "-think", "5ms")
	out, err := browse.CombinedOutput()
	if err != nil {
		t.Fatalf("lfbrowse: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "10 accesses") {
		t.Errorf("lfbrowse did not complete the session:\n%s", text)
	}
	// At least one access had to cross the network.
	if !strings.Contains(text, "wan") {
		t.Errorf("no WAN access recorded:\n%s", text)
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	rows := 0
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "1 ") || strings.Contains(line, "r0") {
			rows++
		}
	}
	if rows == 0 {
		t.Errorf("no per-access rows in output:\n%s", text)
	}
	// An edge cache with the observability stack on reports ready on
	// /readyz once it serves and has announced itself to the L-Bone.
	edgeMetrics := freePort()
	start("lfedged", "-addr", freePort(), "-metrics-addr", edgeMetrics, "-lbone", "http://"+lbAddr)
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + edgeMetrics + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("lfedged /readyz never returned 200 (last: %v)", err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// SIGTERM ends every daemon: each prints its shutdown line and exits 0
	// within a few seconds.
	for _, p := range procs {
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("signalling %s: %v", p.name, err)
		}
	}
	for _, p := range procs {
		select {
		case err := <-p.done:
			p.done <- err // for Cleanup
			if err != nil {
				t.Errorf("%s after SIGTERM: %v\n%s", p.name, err, p.out.String())
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s still running 5s after SIGTERM\n%s", p.name, p.out.String())
			continue
		}
		if !strings.Contains(p.out.String(), p.name+": shutting down") {
			t.Errorf("%s printed no shutdown line:\n%s", p.name, p.out.String())
		}
	}
	fmt.Fprintln(os.Stderr, "integration: full binary pipeline OK")
}

// syncBuffer is a bytes.Buffer safe to read while an exec.Cmd's copier
// goroutine is still writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
