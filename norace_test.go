//go:build !race

package meetpoly

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
