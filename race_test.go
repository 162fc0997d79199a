//go:build race

package meetpoly

// raceEnabled reports a -race build, under which TestPerfGates skips
// its allocation and timing floors.
const raceEnabled = true
