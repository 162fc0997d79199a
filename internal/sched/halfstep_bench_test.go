package sched_test

import (
	"testing"

	"meetpoly/internal/graph"
	"meetpoly/internal/sched"
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

// forever walks port 0 forever.
type forever struct{}

func (forever) Next(deg, entry int) (int, bool) { return 0, true }

// parked halts at wake and stays meetable, like ESST's token.
type parked struct{}

func (parked) Step(*sched.Proc, sched.Observation) sched.Action { return sched.Action{Halt: true} }
func (parked) Publish() any                                     { return nil }
func (parked) OnMeet(sched.Encounter)                           {}

// BenchmarkRunnerSolo measures ns per half-step on the solo-stretch
// path: BenchmarkRunnerHalfSteps's 6-ring, but agent 1 halts at wake,
// so every event is agent 0's advance and runs in Runner.solo. The
// walker passes the parked agent every 12 half-steps, so a meeting
// fires there, as ESST's explorer meets its token. Under the random
// adversary each event still costs the one draw its forced choice
// takes.
func BenchmarkRunnerSolo(b *testing.B) {
	for _, adv := range []struct {
		name string
		new  func() sched.Adversary
	}{
		{"roundrobin", func() sched.Adversary { return &sched.RoundRobin{} }},
		{"random", func() sched.Adversary { return sched.NewRandom(1) }},
	} {
		b.Run(adv.name, func(b *testing.B) {
			r, err := sched.NewRunner(sched.Config{
				Graph:          graph.Ring(6),
				Starts:         []int{0, 3},
				Agents:         []sched.Agent{&sched.Walker{Stepper: forever{}}, parked{}},
				InitiallyAwake: []int{0, 1},
				MaxSteps:       b.N,
			}, adv.new())
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			b.ReportAllocs()
			b.ResetTimer()
			if sum := r.Run(); sum.Steps != b.N {
				b.Fatalf("executed %d of %d half-steps", sum.Steps, b.N)
			}
		})
	}
}
