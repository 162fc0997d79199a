//go:build race

package sched

// raceEnabled reports a -race build. Its sync.Pool drops items at
// random, so allocation counts that include the pooled run scratch are
// noisy there.
const raceEnabled = true
