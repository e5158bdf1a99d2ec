//go:build race

package wire

// raceEnabled reports that this test binary runs under the race detector,
// whose sync.Pool drops a random share of what is put back: the frame pool
// allocates again now and then, so steady-state allocation counts are
// asserted in the plain build only.
const raceEnabled = true
