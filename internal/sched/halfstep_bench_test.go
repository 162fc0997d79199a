package sched_test

import (
	"testing"

	"meetpoly/internal/schedbench"
)

// BenchmarkRunnerHalfSteps measures ns (and allocations) per adversary
// half-step; cmd/rvbench runs the same harness and records the numbers
// in BENCH_sched.json.
func BenchmarkRunnerHalfSteps(b *testing.B) {
	b.Run("stepper", schedbench.HalfSteps())
}
