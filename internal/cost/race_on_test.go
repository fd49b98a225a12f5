//go:build race

package cost

// raceEnabled reports whether the test binary runs under the race
// detector, whose own allocations void an allocation count.
const raceEnabled = true
