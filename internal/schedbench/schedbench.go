// Package schedbench is the scheduler's microbenchmark harness, shared
// by the test-suite benchmark BenchmarkRunnerHalfSteps and the
// cmd/rvbench CLI so both measure exactly the same workload: two
// co-rotating agents on a 6-ring driven by the round-robin adversary,
// one adversary event (= one half-step) per benchmark iteration.
//
// The package lives outside internal/sched because it imports the
// testing package (testing.Benchmark powers rvbench's standalone
// measurements), which a library package must not pull in.
package schedbench

import (
	"testing"

	"meetpoly/internal/graph"
	"meetpoly/internal/sched"
)

// endless is an infinite port-0 stepper: the agents co-rotate around
// the ring forever, so every benchmark iteration is a pure half-step
// with no meetings after the first contact episode and no halts.
type endless struct{}

func (endless) Next(deg, entry int) (int, bool) { return 0, true }

// HalfSteps returns a benchmark function that executes exactly b.N
// adversary events on one runner. force selects the execution core:
// false = direct-dispatch stepper core, true = goroutine core
// (sched.Config.ForceBlocking). ns/op is therefore ns per half-step.
func HalfSteps(force bool) func(b *testing.B) {
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
			ForceBlocking:  force,
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

// Measure runs the half-step benchmark standalone (outside go test) and
// returns ns, bytes and allocations per half-step.
func Measure(force bool) (nsPerOp float64, bytesPerOp, allocsPerOp int64) {
	res := testing.Benchmark(HalfSteps(force))
	return float64(res.T.Nanoseconds()) / float64(res.N), res.AllocedBytesPerOp(), res.AllocsPerOp()
}
