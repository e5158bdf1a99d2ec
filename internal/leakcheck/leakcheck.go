// Package leakcheck verifies that a test leaves no goroutines behind — the
// reusable assertion the session-lifecycle chaos sweeps are built on: every
// fault-injected session must unwind its lane readers, relay pumps, link
// pumps and conduit watchers, not just return an error.
package leakcheck

import (
	"runtime"
	"strings"
	"time"
)

// failer is the subset of testing.TB leakcheck needs; taking the interface
// keeps the package free of a testing import in its API surface.
type failer interface {
	Helper()
	Errorf(format string, args ...any)
	Cleanup(func())
}

// grace bounds how long Check waits for stragglers after the test body
// finishes. Teardown goroutines (abort-frame flushers, conduit watchers
// observing a cancel) may legitimately need a few scheduler rounds to
// observe closed channels; a real leak never converges, so the polling
// loop fails fast on growth that persists.
const grace = 4 * time.Second

// Check snapshots the goroutine count and registers a cleanup that fails
// the test if, after the body completes, the count does not return to the
// baseline within a grace period. Call it first thing in any test that
// spins up session machinery:
//
//	func TestChaosSomething(t *testing.T) {
//		leakcheck.Check(t)
//		...
//	}
//
// The comparison is against a count taken before the body ran, so
// goroutines pre-existing the test (the runtime's own, other tests'
// long-lived leftovers) do not produce false failures.
func Check(t failer) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(grace)
		var after int
		for {
			after = runtime.NumGoroutine()
			if after <= before || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if after > before {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Errorf("goroutine leak: %d before, %d after %v grace\n%s",
				before, after, grace, trimStacks(string(buf[:n])))
		}
	})
}

// trimStacks drops the runtime-internal stacks from a full goroutine dump
// so the failure message leads with the goroutines a leak investigation
// actually needs.
func trimStacks(dump string) string {
	var keep []string
	for _, g := range strings.Split(dump, "\n\n") {
		if strings.Contains(g, "runtime.gopark") && strings.Contains(g, "GC") {
			continue
		}
		keep = append(keep, g)
	}
	return strings.Join(keep, "\n\n")
}
