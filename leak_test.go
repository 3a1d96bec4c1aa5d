package lonviz

import (
	"runtime"
	"testing"
	"time"
)

// checkGoroutines takes the goroutine count now and, as the test's last
// cleanup, waits up to ten seconds for it to fall back to within ten of
// that, failing with every goroutine's stack if it does not. Call it first
// in a test, so that every other cleanup (and defer) has run when it
// looks: viewers, flights, decode lanes, servers and daemons' waiters all
// have to be gone, on the failure paths too.
func checkGoroutines(t *testing.T) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > baseline+10 {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("goroutine leak: %d now vs %d at start\n%s",
					runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}
