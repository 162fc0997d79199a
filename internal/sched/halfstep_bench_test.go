package sched_test

import (
	"testing"

	"meetpoly/internal/schedbench"
)

// BenchmarkRunnerHalfSteps measures ns (and allocations) per adversary
// half-step on the per-event path; perfbench's sched.halfstep_ns runs
// the same harness, and the root package's TestPerfGates holds the same
// workload under a ceiling. Its agents' steppers are not route-book
// replays, so the runner never applies a contact-free stretch here:
// BenchmarkRunnerStretch measures that path.
func BenchmarkRunnerHalfSteps(b *testing.B) {
	b.Run("stepper", schedbench.HalfSteps())
}

// BenchmarkRunnerStretch measures ns per half-step on the contact-free
// stretch path: BenchmarkRunnerHalfSteps's workload (two co-rotating
// agents on the 6-ring under round-robin), but with both agents
// replaying routes from a warm route book, so every half-step runs in
// Runner.lockstep. The b.N events are split into runs of at most
// schedbench.StretchEvents events, which bounds the routes the book
// holds; the runner set-up that split adds is part of the measurement.
func BenchmarkRunnerStretch(b *testing.B) {
	book := schedbench.NewStretchBook()
	if err := schedbench.Stretch(book, schedbench.StretchEvents); err != nil { // materialize both routes
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		budget := min(schedbench.StretchEvents, b.N-done)
		if err := schedbench.Stretch(book, budget); err != nil {
			b.Fatal(err)
		}
		done += budget
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}
