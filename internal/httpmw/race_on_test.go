//go:build race

package httpmw

// raceEnabled reports a -race build, under which sync.Pool drops items at
// random, so allocation counts are not meaningful.
const raceEnabled = true
