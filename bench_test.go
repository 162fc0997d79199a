package meetpoly

// The benchmark harness: the cost-model tables E1-E3 and E7, the
// certifier behind E6, the UXS-source ablation of DESIGN.md §8, the
// engine and the runner layers. The measured tables E4, E5 and E8, the
// figures and the adversary ablation run through the engine in
// tables_bench_test.go. Run with:
//
//	go test -bench=. -benchmem
//
// Measured quantities are reported via b.ReportMetric so the bench output
// doubles as a results table.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"meetpoly/internal/core"
	"meetpoly/internal/costmodel"
	"meetpoly/internal/graph"
	"meetpoly/internal/sched"
	"meetpoly/internal/trajectory"
	"meetpoly/internal/uxs"
)

func benchEnv(b *testing.B) *trajectory.Env {
	b.Helper()
	return trajectory.NewEnv(uxs.NewVerified(uxs.DefaultFamily(6), 1))
}

// BenchmarkE1CostPiVsN regenerates table E1: Pi(n, 1) across n.
func BenchmarkE1CostPiVsN(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := costmodel.New(costmodel.PLinear(1))
			var bits int
			for i := 0; i < b.N; i++ {
				bits = m.Pi(n, 1).BitLen()
			}
			b.ReportMetric(float64(bits), "log2Pi")
		})
	}
}

// BenchmarkE2CostPiVsLabel regenerates table E2: Pi(4, m) across m.
func BenchmarkE2CostPiVsLabel(b *testing.B) {
	for _, m := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			model := costmodel.New(costmodel.PLinear(1))
			var bits int
			for i := 0; i < b.N; i++ {
				bits = model.Pi(4, m).BitLen()
			}
			b.ReportMetric(float64(bits), "log2Pi")
		})
	}
}

// BenchmarkE3BaselineCost regenerates table E3's baseline side: the
// exponential blow-up with label length.
func BenchmarkE3BaselineCost(b *testing.B) {
	model := costmodel.New(costmodel.PLinear(1))
	for _, l := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("len=%d", l), func(b *testing.B) {
			value := uint64(1)<<uint(l) - 1
			var bits int
			for i := 0; i < b.N; i++ {
				bits = model.BaselineCost(4, value).BitLen()
			}
			b.ReportMetric(float64(bits), "log2Cost")
		})
	}
}

// BenchmarkE6Certifier measures the exhaustive lattice adversary itself:
// ns/op is one certification of two route prefixes, reported with the
// lattice's cell count and whether the meeting is forced. Prefix 60 is
// the wide campaigns' Moves.
func BenchmarkE6Certifier(b *testing.B) {
	env := benchEnv(b)
	g := graph.Path(3)
	for _, prefix := range []int{60, 500, 2000, 8000, 32000} {
		b.Run(fmt.Sprintf("prefix=%d", prefix), func(b *testing.B) {
			ra := core.Route(g, 0, 1, env, prefix)
			rb := core.Route(g, 2, 2, env, prefix)
			b.ResetTimer()
			forced := false
			for i := 0; i < b.N; i++ {
				res, err := sched.Certify(ra, rb)
				if err != nil {
					b.Fatal(err)
				}
				forced = res.Forced
			}
			b.ReportMetric(b2f(forced), "forced")
			b.ReportMetric(float64(4*prefix*prefix), "cells")
		})
	}
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// BenchmarkE7Lemmas measures the inequality sweep of table E7.
func BenchmarkE7Lemmas(b *testing.B) {
	m := costmodel.New(costmodel.PLinear(2))
	for i := 0; i < b.N; i++ {
		if !costmodel.AllHold(m.CheckLemmas(5, 8)) {
			b.Fatal("lemma inequality failed")
		}
	}
}

// BenchmarkAblationUXSSource compares trajectory-prefix generation under
// the verified compact catalog versus the cubic pseudorandom one
// (DESIGN.md §8: UXS source ablation).
func BenchmarkAblationUXSSource(b *testing.B) {
	g := graph.Ring(5)
	for name, cat := range map[string]uxs.Catalog{
		"verified-random": uxs.NewVerified(uxs.DefaultFamily(5), 1),
		"verified-greedy": uxs.NewVerifiedGreedy(uxs.DefaultFamily(5), 1),
		"pseudorandom-k3": uxs.NewFormula(1, 1),
	} {
		env := trajectory.NewEnv(cat)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr, _ := trajectory.Run(g, 0, env.Y(2), 50_000)
				_ = tr
			}
			b.ReportMetric(float64(env.Catalog().P(5)), "P(5)")
		})
	}
}

// BenchmarkEngineRunPrepared measures one engine-run of a rendezvous
// scenario on the warm prepared-scenario cache (graph, coverage and
// routes amortized — the sweep steady state) against the same scenario
// with its graph passed as a GraphInstance, which bypasses the cache:
// every run re-covers the graph and re-derives its trajectories.
func BenchmarkEngineRunPrepared(b *testing.B) {
	ctx := context.Background()
	sc := Scenario{
		Kind:      ScenarioRendezvous,
		Graph:     GraphSpec{Kind: "ring", N: 5},
		Starts:    []int{0, 2},
		Labels:    []Label{2, 5},
		Adversary: "avoider",
		Budget:    10_000,
	}
	run := func(b *testing.B, sc Scenario) {
		eng := NewEngine()
		if _, err := eng.Run(ctx, sc); err != nil && !errors.Is(err, ErrBudgetExhausted) {
			// warm-up; exhaustion is the expected outcome under the avoider
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(ctx, sc); err != nil && !errors.Is(err, ErrBudgetExhausted) {
				b.Fatal(err)
			}
		}
	}
	b.Run("warm-cache", func(b *testing.B) { run(b, sc) })
	b.Run("cold-cache", func(b *testing.B) {
		g, err := sc.Graph.Build()
		if err != nil {
			b.Fatal(err)
		}
		inst := sc
		inst.GraphInstance = g
		run(b, inst)
	})
}

// BenchmarkSweepThroughput measures end-to-end campaign throughput in
// cells/sec on a warm engine — the quantity TestPerfGates holds above a
// floor, and perfbench's cells_per_s measures end to end.
func BenchmarkSweepThroughput(b *testing.B) {
	ctx := context.Background()
	spec := SweepSpec{
		Name:  "bench-sweep",
		Seed:  "bench-sweep-v1",
		Kinds: []string{"rendezvous"},
		Graphs: []SweepGraphAxis{
			{Kind: "path", Sizes: []int{4, 5}},
			{Kind: "ring", Sizes: []int{4, 5}},
		},
		Adversaries: []string{"", "avoider", "random"},
		Budget:      20_000,
	}
	cells, err := CountSweep(spec)
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine()
	if _, err := eng.Sweep(ctx, spec); err != nil {
		b.Fatal(err) // fill the prepared-scenario cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eng.Sweep(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK() {
			b.Fatalf("oracle failures:\n%s", rep.Table())
		}
	}
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/sec")
}

// BenchmarkRunnerThroughput measures raw scheduler half-steps per second
// (the simulator substrate's capacity).
func BenchmarkRunnerThroughput(b *testing.B) {
	g := graph.Ring(6)
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Rendezvous(sched.RunOpts{}, g, 0, 3, 1, 3,
			core.NewStepper(1, env), core.NewStepper(3, env), nil, &sched.RoundRobin{}, 100_000)
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkStepperThroughput measures pure trajectory generation speed
// without the scheduler.
func BenchmarkStepperThroughput(b *testing.B) {
	env := benchEnv(b)
	g := graph.Ring(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, _ := trajectory.Run(g, 0, core.NewStepper(5, env), 100_000)
		if tr.Moves() != 100_000 {
			b.Fatal("short run")
		}
	}
}
