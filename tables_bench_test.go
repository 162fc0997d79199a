package meetpoly_test

// The benchmarks of the measured tables E4, E5 and E8, the figures and
// the adversary ablation (EXPERIMENTS.md, DESIGN.md §8). Each drives
// Engine.Run over the instance suites of internal/experiments, the path
// the tables and sweeps run. They sit in an external test package
// because internal/experiments imports meetpoly. Run with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"testing"

	"meetpoly"
	"meetpoly/internal/experiments"
)

// runEach runs sc b.N times on eng and returns the last result. A run
// that misses its goal still returns a result; only a run that returns
// none fails the benchmark.
func runEach(b *testing.B, eng *meetpoly.Engine, sc meetpoly.Scenario) *meetpoly.Result {
	b.Helper()
	var res *meetpoly.Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = eng.Run(context.Background(), sc); res == nil {
			b.Fatal(err)
		}
	}
	return res
}

// meetCost reports a walker-pair run's meeting cost, or 0 when the pair
// did not meet.
func meetCost(r *meetpoly.RendezvousResult) float64 {
	if !r.Met {
		return 0
	}
	return float64(r.Meeting.Cost)
}

// BenchmarkE4Rendezvous regenerates table E4: measured meeting cost per
// instance and adversary strategy.
func BenchmarkE4Rendezvous(b *testing.B) {
	eng := meetpoly.NewEngine()
	for _, in := range experiments.DefaultRVInstances()[:6] {
		for _, adv := range []string{"round-robin", "avoider", "random"} {
			b.Run(in.Name+"/"+adv, func(b *testing.B) {
				res := runEach(b, eng, in.Scenario(meetpoly.ScenarioRendezvous, adv, 500_000))
				b.ReportMetric(meetCost(res.Rendezvous), "meet-cost")
			})
		}
	}
}

// BenchmarkE4Baseline measures the exponential baseline on the same
// instances for the head-to-head of table E3/E4.
func BenchmarkE4Baseline(b *testing.B) {
	eng := meetpoly.NewEngine()
	for _, in := range experiments.DefaultRVInstances()[:3] {
		b.Run(in.Name, func(b *testing.B) {
			res := runEach(b, eng, in.Scenario(meetpoly.ScenarioBaseline, "", 500_000))
			b.ReportMetric(meetCost(res.Baseline), "meet-cost")
		})
	}
}

// BenchmarkE5ESST regenerates table E5: exploration cost across graphs.
func BenchmarkE5ESST(b *testing.B) {
	eng := meetpoly.NewEngine(meetpoly.WithMaxN(8))
	for _, in := range experiments.DefaultESSTInstances() {
		b.Run(in.Name, func(b *testing.B) {
			res := runEach(b, eng, in.Scenario(50_000_000))
			if !res.ESST.Done {
				b.Fatal("ESST did not terminate")
			}
			b.ReportMetric(float64(res.ESST.Cost), "cost")
			b.ReportMetric(float64(res.ESST.Phase), "phase")
		})
	}
}

// BenchmarkE8SGL regenerates table E8: full Strong Global Learning runs.
func BenchmarkE8SGL(b *testing.B) {
	eng := meetpoly.NewEngine()
	for _, in := range experiments.DefaultSGLInstances()[:3] {
		b.Run(in.Name, func(b *testing.B) {
			res := runEach(b, eng, in.Scenario(40_000_000))
			if !res.SGL.AllOutput {
				b.Fatal("SGL incomplete")
			}
			b.ReportMetric(float64(res.SGL.TotalCost), "total-cost")
		})
	}
}

// BenchmarkF1to4Figures regenerates the structural figures.
func BenchmarkF1to4Figures(b *testing.B) {
	env := meetpoly.NewEnv(6, 1)
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.F1to4(env, 3)
	}
	b.ReportMetric(float64(len(out)), "bytes")
}

// BenchmarkAblationAdversary compares measured meeting cost across
// adversary strengths on one instance (DESIGN.md §8).
func BenchmarkAblationAdversary(b *testing.B) {
	eng := meetpoly.NewEngine()
	in := experiments.DefaultRVInstances()[1] // path4
	for _, adv := range []string{"round-robin", "biased", "late-wake", "random", "avoider"} {
		b.Run(adv, func(b *testing.B) {
			res := runEach(b, eng, in.Scenario(meetpoly.ScenarioRendezvous, adv, 500_000))
			b.ReportMetric(meetCost(res.Rendezvous), "meet-cost")
		})
	}
}
