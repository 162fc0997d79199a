// Package schedbench is the scheduler's microbenchmark harness, shared
// by the test-suite benchmark BenchmarkRunnerHalfSteps and perfbench's
// sched.halfstep_ns so both measure exactly the same workload: two
// co-rotating agents on a 6-ring driven by the round-robin adversary,
// one adversary event (= one half-step) per benchmark iteration. Stretch
// runs that workload on route-book replays, for BenchmarkRunnerStretch
// and the root package's TestPerfGates.
//
// The package lives outside internal/sched because it imports the
// testing package (testing.Benchmark powers Measure, which perfbench
// calls outside go test), which a library package must not pull in.
package schedbench

import (
	"fmt"
	"testing"

	"meetpoly/internal/graph"
	"meetpoly/internal/sched"
	"meetpoly/internal/trajectory"
)

// endless is an infinite port-0 stepper: the agents co-rotate around
// the ring forever, so every benchmark iteration is a pure half-step
// with no meetings after the first contact episode and no halts.
type endless struct{}

func (endless) Next(deg, entry int) (int, bool) { return 0, true }

// HalfSteps returns a benchmark function that executes exactly b.N
// adversary events on one runner, so ns/op is ns per half-step.
func HalfSteps() func(b *testing.B) {
	return func(b *testing.B) {
		g := graph.Ring(6)
		r, err := sched.NewRunner(sched.Config{
			Graph:  g,
			Starts: []int{0, 3},
			Agents: []sched.Agent{
				&sched.Walker{Stepper: endless{}},
				&sched.Walker{Stepper: endless{}},
			},
			InitiallyAwake: []int{0, 1},
			MaxSteps:       b.N,
		}, &sched.RoundRobin{})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		b.ReportAllocs()
		b.ResetTimer()
		sum := r.Run()
		if sum.Steps != b.N {
			b.Fatalf("executed %d of %d half-steps", sum.Steps, b.N)
		}
	}
}

// StretchEvents is the longest Stretch run: runs this long bound the
// routes a stretch book holds.
const StretchEvents = 1 << 16

// NewStretchBook returns an empty route book for Stretch.
func NewStretchBook() *trajectory.RouteBook {
	return trajectory.NewRouteBook(graph.Ring(6))
}

// Stretch executes budget (at most StretchEvents) adversary events of
// the half-step workload on one runner, with both agents replaying
// book's routes: once the routes exist, every half-step runs in a
// contact-free stretch (Runner.lockstep) rather than the per-event
// path. It reports an error unless the run executes its whole budget
// without a meeting.
func Stretch(book *trajectory.RouteBook, budget int) error {
	gen := func() trajectory.Stepper { return endless{} }
	r, err := sched.NewRunner(sched.Config{
		Graph:  book.Graph(),
		Starts: []int{0, 3},
		Agents: []sched.Agent{
			&sched.Walker{Stepper: book.Stepper(trajectory.RouteKey{Start: 0}, gen)},
			&sched.Walker{Stepper: book.Stepper(trajectory.RouteKey{Start: 3}, gen)},
		},
		InitiallyAwake: []int{0, 1},
		MaxSteps:       budget,
	}, &sched.RoundRobin{})
	if err != nil {
		return err
	}
	defer r.Close()
	if sum := r.Run(); sum.Steps != budget || sum.FirstMeeting != nil {
		return fmt.Errorf("schedbench: executed %d of %d half-steps (met: %v)", sum.Steps, budget, sum.FirstMeeting != nil)
	}
	return nil
}

// Measure runs the half-step benchmark standalone (outside go test) and
// returns ns, bytes and allocations per half-step.
//
// Deprecated: the argument is ignored; there is one execution core.
func Measure(bool) (nsPerOp float64, bytesPerOp, allocsPerOp int64) {
	res := testing.Benchmark(HalfSteps())
	return float64(res.T.Nanoseconds()) / float64(res.N), res.AllocedBytesPerOp(), res.AllocsPerOp()
}
