//go:build !race

package sched

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
