package sched_test

import (
	"testing"

	"meetpoly/internal/graph"
	"meetpoly/internal/sched"
	"meetpoly/internal/schedbench"
	"meetpoly/internal/trajectory"
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

// portZero is an endless port-0 walk: on a ring, agents walking it from
// opposite nodes co-rotate and never meet.
type portZero struct{}

func (portZero) Next(deg, entry int) (int, bool) { return 0, true }

// BenchmarkRunnerStretch measures ns per half-step on the contact-free
// stretch path: BenchmarkRunnerHalfSteps's workload (two co-rotating
// agents on the 6-ring under round-robin), but with both agents
// replaying routes from a warm route book, so every half-step runs in
// Runner.lockstep. The b.N events are split into runs of at most
// stretchRun events, which bounds the routes the book holds; the
// runner set-up that split adds is part of the measurement.
func BenchmarkRunnerStretch(b *testing.B) {
	const stretchRun = 1 << 16
	g := graph.Ring(6)
	book := trajectory.NewRouteBook(g)
	gen := func() trajectory.Stepper { return portZero{} }
	run := func(budget int) sched.Summary {
		r, err := sched.NewRunner(sched.Config{
			Graph:  g,
			Starts: []int{0, 3},
			Agents: []sched.Agent{
				&sched.Walker{Stepper: book.Stepper(trajectory.RouteKey{Start: 0}, gen)},
				&sched.Walker{Stepper: book.Stepper(trajectory.RouteKey{Start: 3}, gen)},
			},
			InitiallyAwake: []int{0, 1},
			MaxSteps:       budget,
		}, &sched.RoundRobin{})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		return r.Run()
	}
	run(stretchRun) // materialize both routes
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		budget := min(stretchRun, b.N-done)
		if sum := run(budget); sum.Steps != budget || sum.FirstMeeting != nil {
			b.Fatalf("executed %d of %d half-steps (met: %v)", sum.Steps, budget, sum.FirstMeeting != nil)
		}
		done += budget
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}
