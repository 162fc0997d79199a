package meetpoly

// The suite's performance floors, on one small warm campaign.
// TestWarmSweepReports holds its reports: the oracles pass, and
// telemetry leaves the warm report as it is. TestPerfGates holds its
// costs: allocations per event and per cell (and per cell of a second,
// SGL/ESST campaign), and timings, each read as
// the median of several alternating samples and normalized, where a
// gate compares against a recorded figure, by a goroutine hand-off
// round trip timed in the same run. TestPerfGates skips itself under
// -race, so CI runs it as its own step; the figures behind the
// thresholds are in EXPERIMENTS.md §P1.

import (
	"bytes"
	"context"
	"slices"
	"testing"
	"time"

	"meetpoly/internal/graph"
	"meetpoly/internal/sched"
	"meetpoly/internal/schedbench"
	"meetpoly/internal/telemetry"
	"meetpoly/internal/trajectory"
)

// warmSweepSpec is the 18-cell E4-style campaign the floors run on:
// rendezvous across four graph families under the three headline
// adversaries, one start pair and one label pair per graph.
func warmSweepSpec() SweepSpec {
	return SweepSpec{
		Name:  "perf-e4",
		Seed:  "perf-e4-v1",
		Kinds: []string{"rendezvous"},
		Graphs: []SweepGraphAxis{
			{Kind: "path", Sizes: []int{4, 5}},
			{Kind: "ring", Sizes: []int{4, 5}},
			{Kind: "star", Sizes: []int{5}},
			{Kind: "clique", Sizes: []int{4}},
		},
		StartPairs:  1,
		LabelPairs:  1,
		Adversaries: []string{"", "avoider", "random"},
		Budget:      50_000,
	}
}

// teamSweepSpec is a 48-cell warm campaign shaped like perfbench's
// teams-sgl workload: SGL and ESST on path, ring, star and clique 3–5
// under round-robin and random, budget 40,000.
func teamSweepSpec() SweepSpec {
	sizes := []int{3, 4, 5}
	return SweepSpec{
		Name:  "perf-teams",
		Seed:  "perf-teams-v1",
		Kinds: []string{"sgl", "esst"},
		Graphs: []SweepGraphAxis{
			{Kind: "path", Sizes: sizes},
			{Kind: "ring", Sizes: sizes},
			{Kind: "star", Sizes: sizes},
			{Kind: "clique", Sizes: sizes},
		},
		Adversaries: []string{"", "random"},
		Budget:      40_000,
	}
}

// warmEngines returns a plain and a telemetry-enabled engine, each
// warmed by two sweeps of warmSweepSpec (the cold pass that fills the
// caches and a settling pass), with the settled reports.
func warmEngines(t *testing.T) (plain, instr *Engine, plainRep, instrRep *SweepReport) {
	t.Helper()
	plain = NewEngine(WithMaxN(6), WithSeed(1))
	instr = NewEngine(WithMaxN(6), WithSeed(1), WithTelemetry(NewMetrics()))
	for range 2 {
		plainRep, instrRep = warmSweep(t, plain), warmSweep(t, instr)
	}
	return plain, instr, plainRep, instrRep
}

// warmSweep runs warmSweepSpec once and fails the test on an error or
// an oracle failure.
func warmSweep(t *testing.T, eng *Engine) *SweepReport {
	t.Helper()
	return sweepOK(t, eng, warmSweepSpec())
}

// sweepOK runs spec once and fails the test on an error or an oracle
// failure.
func sweepOK(t *testing.T, eng *Engine, spec SweepSpec) *SweepReport {
	t.Helper()
	rep, err := eng.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("oracle failures:\n%s", rep.Table())
	}
	return rep
}

// TestWarmSweepReports: on warm engines the campaign passes its
// oracles, and telemetry leaves the warm report byte-identical.
func TestWarmSweepReports(t *testing.T) {
	_, _, plainRep, instrRep := warmEngines(t)
	if jp, ji := mustJSON(t, plainRep), mustJSON(t, instrRep); !bytes.Equal(jp, ji) {
		t.Errorf("telemetry changed the warm report:\nplain: %s\ninstrumented: %s", jp, ji)
	}
}

// perfSamples is how many alternating samples each timing's median
// takes. One sample per timing read 0.47x-1.46x for the instrumented
// throughput ratio over five runs on one machine.
const perfSamples = 7

// TestPerfGates holds the cost floors of a warm sweep:
//
//   - at most 0.05 allocations per adversary event, which a per-event
//     allocation in the hot loop breaks;
//   - at most 80.8 allocations per cell (twice the 40.4 read in five
//     runs on one machine at GOMAXPROCS 2), which per-cell set-up
//     creeping back breaks (it read 57.6 while the expander and the
//     aggregator still formatted strings for every cell);
//   - at most 186.8 allocations per cell of a warm SGL/ESST campaign
//     (teamSweepSpec; twice the median 93.4 of five runs on one
//     machine), which SGL travellers deriving their trajectory trees
//     instead of replaying their routes break, and so does ESST
//     rendering its probe codes as strings (it read 220.4 while it
//     did);
//   - at most 0.05 allocations per event on each runner path, per-event
//     and stretch, run directly: the engine decides 200,000 of the warm
//     sweep's 200,222 events without simulating them (DESIGN.md §2.2),
//     so the sweep's own per-event figure no longer sees either loop;
//   - a per-event half-step costs at most 0.08561 goroutine hand-off
//     round trips (twice the 30.459 / 711.580 ns recorded);
//   - a stretch half-step costs at most 0.0168 hand-off round trips
//     (twice the median 0.0084 of ten runs on one machine);
//   - warm campaign cells/s times hand-off ns is at least 372,414
//     (half of 1,046.73 cells/s x 711.58 ns recorded);
//   - the telemetry record path (a counter increment and a histogram
//     observation) costs at most 100 ns;
//   - a telemetry-enabled engine sweeps at least half as fast as a
//     plain one.
//
// Hand-off and half-step come from the same run, so a slower machine
// moves both while a runner regression moves their ratio.
func TestPerfGates(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: sync.Pool drops items at random and timings are not representative")
	}
	plain, instr, _, _ := warmEngines(t)

	var rep *SweepReport
	allocs := testing.AllocsPerRun(3, func() { rep = warmSweep(t, plain) })
	perEvent, perCell := allocs/float64(rep.Events), allocs/float64(rep.Cells)
	t.Logf("warm sweep: %.0f allocs over %d cells and %d events: %.4f/event, %.1f/cell",
		allocs, rep.Cells, rep.Events, perEvent, perCell)
	if perEvent > 0.05 {
		t.Errorf("warm sweep allocates %.4f times per adversary event, ceiling 0.05", perEvent)
	}
	if perCell > 80.8 {
		t.Errorf("warm sweep allocates %.1f times per cell, ceiling 80.8", perCell)
	}

	teams := NewEngine(WithMaxN(6), WithSeed(1))
	for range 2 {
		sweepOK(t, teams, teamSweepSpec())
	}
	allocs = testing.AllocsPerRun(3, func() { rep = sweepOK(t, teams, teamSweepSpec()) })
	perTeamCell := allocs / float64(rep.Cells)
	t.Logf("warm team sweep: %.0f allocs over %d cells: %.1f/cell", allocs, rep.Cells, perTeamCell)
	if perTeamCell > 186.8 {
		t.Errorf("warm team sweep allocates %.1f times per cell, ceiling 186.8", perTeamCell)
	}

	book := schedbench.NewStretchBook()
	stretchNs(t, book, 1) // materialize both routes
	for _, p := range []struct {
		path string
		run  func()
	}{
		{"per-event", func() { halfStepNs(t, schedbench.StretchEvents) }},
		{"stretch", func() { stretchNs(t, book, 1) }},
	} {
		a := testing.AllocsPerRun(3, p.run) / schedbench.StretchEvents
		t.Logf("%s runner: %.5f allocs/event", p.path, a)
		if a > 0.05 {
			t.Errorf("%s runner allocates %.5f times per event, ceiling 0.05", p.path, a)
		}
	}

	var half, stretch, handoff, record, plainRate, instrRate []float64
	for range perfSamples {
		half = append(half, halfStepNs(t, 1<<21))
		stretch = append(stretch, stretchNs(t, book, 32))
		handoff = append(handoff, handoffNs(1<<15))
		record = append(record, recordNs(1<<20))
		plainRate = append(plainRate, cellsPerSec(t, plain))
		instrRate = append(instrRate, cellsPerSec(t, instr))
	}
	t.Logf("half-step ns %.1f", half)
	t.Logf("stretch ns   %.2f", stretch)
	t.Logf("hand-off ns  %.1f", handoff)
	t.Logf("record ns    %.1f", record)
	t.Logf("plain cells/s %.0f", plainRate)
	t.Logf("instr cells/s %.0f", instrRate)
	h, st, ho, rec := median(half), median(stretch), median(handoff), median(record)
	pr, ir := median(plainRate), median(instrRate)
	if r := h / ho; r > 0.08561 {
		t.Errorf("half-step costs %.5f hand-offs (%.1f / %.1f ns), ceiling 0.08561", r, h, ho)
	}
	if r := st / ho; r > 0.0168 {
		t.Errorf("stretch half-step costs %.5f hand-offs (%.2f / %.1f ns), ceiling 0.0168", r, st, ho)
	}
	if n := pr * ho; n < 372_414 {
		t.Errorf("warm sweep: %.0f cells/s x %.1f ns hand-off = %.0f, floor 372,414", pr, ho, n)
	}
	if rec > 100 {
		t.Errorf("telemetry record path costs %.1f ns/op, ceiling 100", rec)
	}
	if r := ir / pr; r < 0.5 {
		t.Errorf("telemetry-enabled warm sweep runs at %.2fx the plain throughput (%.0f / %.0f cells/s), floor 0.5", r, ir, pr)
	}
}

func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	return s[len(s)/2]
}

// endless walks port 0 forever: on a ring, agents walking it from
// opposite nodes co-rotate and never meet.
type endless struct{}

func (endless) Next(deg, entry int) (int, bool) { return 0, true }

// halfStepNs times n adversary events of BenchmarkRunnerHalfSteps's
// workload: two co-rotating agents on the 6-ring under round-robin.
// Their steppers are not route-book replays, so every event takes the
// per-event path. It builds the runner itself because running
// schedbench's harness through testing.Benchmark takes a second per
// sample.
func halfStepNs(t *testing.T, n int) float64 {
	t.Helper()
	r, err := sched.NewRunner(sched.Config{
		Graph:          graph.Ring(6),
		Starts:         []int{0, 3},
		Agents:         []sched.Agent{&sched.Walker{Stepper: endless{}}, &sched.Walker{Stepper: endless{}}},
		InitiallyAwake: []int{0, 1},
		MaxSteps:       n,
	}, &sched.RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	start := time.Now()
	if sum := r.Run(); sum.Steps != n {
		t.Fatalf("executed %d of %d half-steps", sum.Steps, n)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// stretchNs times runs runs of schedbench.StretchEvents adversary
// events of BenchmarkRunnerStretch's workload: halfStepNs's, but with
// both agents replaying book's routes, so every event runs in
// Runner.lockstep. The runner set-up each run adds is part of the
// measurement.
func stretchNs(t *testing.T, book *trajectory.RouteBook, runs int) float64 {
	t.Helper()
	start := time.Now()
	for range runs {
		if err := schedbench.Stretch(book, schedbench.StretchEvents); err != nil {
			t.Fatal(err)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(runs*schedbench.StretchEvents)
}

// handoffNs times n round trips over unbuffered channels between two
// goroutines.
func handoffNs(n int) float64 {
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
	}()
	defer close(ping)
	start := time.Now()
	for range n {
		ping <- struct{}{}
		<-pong
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// recordNs times n passes of the telemetry record path: one counter
// increment and one histogram observation.
func recordNs(n int) float64 {
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("perf_record_total", "record-path timing counter")
	hist := reg.Histogram("perf_record_ns", "record-path timing histogram")
	start := time.Now()
	for i := range n {
		ctr.Inc()
		hist.Observe(uint64(i))
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// cellsPerSec times one warm sweep of warmSweepSpec.
func cellsPerSec(t *testing.T, eng *Engine) float64 {
	t.Helper()
	start := time.Now()
	rep := warmSweep(t, eng)
	return float64(rep.Cells) / time.Since(start).Seconds()
}
