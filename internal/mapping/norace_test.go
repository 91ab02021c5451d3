//go:build !race

package mapping

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = false
