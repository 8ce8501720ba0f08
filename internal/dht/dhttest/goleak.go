package dhttest

import (
	"runtime"
	"time"
)

// LeakChecker is the subset of *testing.T the goroutine-leak assertion
// needs, kept as an interface so the helper works for tests, benchmarks,
// and fuzz targets alike.
type LeakChecker interface {
	Helper()
	Cleanup(func())
	Errorf(format string, args ...any)
}

// VerifyNoLeaks snapshots the goroutine count when called and registers a
// cleanup that fails the test if the count has not returned to the
// baseline by the end. Call it first thing in a test, before any transport
// or overlay is constructed.
//
// Teardown is asynchronous (connection goroutines unwind after Close
// returns), so the cleanup polls with a short sleep for up to about two
// seconds before declaring a leak, and dumps every goroutine stack when it
// does so the parked frame is immediately visible in the failure output.
//
// The baseline comparison is <=, not ==: a sibling parallel test finishing
// mid-poll can legitimately drop the count below the starting value.
func VerifyNoLeaks(t LeakChecker) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		const (
			attempts = 200
			pause    = 10 * time.Millisecond
		)
		var n int
		for i := 0; i < attempts; i++ {
			n = runtime.NumGoroutine()
			if n <= base {
				return
			}
			time.Sleep(pause)
		}
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Errorf("goroutine leak: %d goroutines at test start, %d after teardown; stacks:\n%s",
			base, n, buf)
	})
}
