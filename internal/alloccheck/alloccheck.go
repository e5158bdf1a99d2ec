// Package alloccheck reads what a piece of code allocates, for the tests
// that pin it. The runtime counts allocation per process, not per
// goroutine, so a reading also holds whatever other goroutines allocated
// meanwhile — a finished test's stragglers, the runtime's own. They can
// only add to it, so the least of several readings is the closest to the
// code's own allocation.
package alloccheck

import "runtime"

// Least runs fn k times (at least once) and reports the least heap bytes
// and the least heap objects the process allocated during one run. Code
// that cannot run twice — it consumes a frame, or answers a peer — is read
// once, with k = 1.
func Least(k int, fn func()) (bytes, objects uint64) {
	bytes, objects = ^uint64(0), ^uint64(0)
	for range max(k, 1) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	return bytes, objects
}
