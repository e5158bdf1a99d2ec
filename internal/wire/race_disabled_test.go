//go:build !race

package wire

// raceEnabled reports whether this test binary runs under the race
// detector (see race_enabled_test.go).
const raceEnabled = false
