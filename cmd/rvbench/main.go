// Command rvbench records the repo's performance trajectory: it runs
// the scheduler's half-step microbenchmark (internal/schedbench, the
// same harness BenchmarkRunnerHalfSteps uses), a goroutine hand-off
// round trip as the hardware calibration unit, and an E4-style measured
// rendezvous campaign, and writes the results as BENCH_sched.json
// (schema documented in EXPERIMENTS.md §P1).
//
// The campaign is measured twice, as the preparation/run split of the
// v2 schema: the first pass (prep) starts from an empty engine and pays
// every cache fill — graph builds, catalog verification and coverage,
// route materialization — while the second pass (run) re-executes the
// identical campaign against the warm prepared-scenario cache, which is
// the steady state a long-lived engine serves. The two passes must
// produce identical reports (rvbench fails otherwise): the cache is an
// amortization, never a shortcut.
//
// Since schema v4 the file records the telemetry section: the cost of
// the metric record path (counter increment + histogram observation,
// which must stay allocation-free) and the warm campaign re-measured
// with a metrics registry attached. The instrumented report must be
// byte-identical to the plain one, and the throughput ratio is gated
// at 0.5x.
//
// Modes:
//
//	rvbench                    # measure and write BENCH_sched.json
//	rvbench -quick             # smaller campaign (CI-sized)
//	rvbench -quick -check BENCH_sched.json
//	                           # measure, compare against the committed
//	                           # baseline, write nothing; exit 1 on a
//	                           # half-step regression, a normalized
//	                           # warm-throughput regression, or an
//	                           # allocation-ceiling breach
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"meetpoly"
	"meetpoly/internal/buildinfo"
	"meetpoly/internal/schedbench"
	"meetpoly/internal/telemetry"
)

// Schema is the BENCH_sched.json format identifier. v2 split the
// campaign measurement into prep (cold cache) and run (warm steady
// state) passes and added allocation accounting; v3 added a
// batch_dispatch section for the batched lockstep tier; v4 added the
// telemetry section: the metric record path's cost (which must stay
// allocation-free — hot loops call it), and the warm campaign re-run
// with a registry attached, whose report must be byte-identical to the
// plain run's and whose throughput must stay within the ratio floor;
// v5 removed batch_dispatch with the tier it measured; v6 replaced the
// goroutine core's half-step (and the speedup over it) with handoff_ns,
// an unbuffered-channel round trip between two goroutines, as the
// calibration unit of the normalized gates — the goroutine core is gone.
const Schema = "meetpoly/bench_sched/v6"

// CoreBench is the half-step microbenchmark result.
type CoreBench struct {
	NsPerHalfStep     float64 `json:"ns_per_halfstep"`
	BytesPerHalfStep  int64   `json:"bytes_per_halfstep"`
	AllocsPerHalfStep int64   `json:"allocs_per_halfstep"`
}

// CampaignPass is one timed execution of the benchmark campaign.
type CampaignPass struct {
	WallMS      float64 `json:"wall_ms"`
	CellsPerSec float64 `json:"cells_per_sec"`
}

// BenchFile is the BENCH_sched.json document.
type BenchFile struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`

	HalfStep struct {
		Stepper CoreBench `json:"stepper"`
		// HandoffNs is one unbuffered-channel round trip between two
		// goroutines, measured in the same run: the calibration unit
		// that normalizes the gates for hardware.
		HandoffNs float64 `json:"handoff_ns"`
	} `json:"half_step"`

	Campaign struct {
		Spec      string `json:"spec"`
		Cells     int    `json:"cells"`
		Met       int    `json:"met"`
		TotalCost int64  `json:"total_cost"`
		// Events is the number of adversary events the campaign executes
		// (identical across passes): the denominator of the steady-state
		// allocation accounting.
		Events int64 `json:"events"`

		// Prep is the cold pass: empty engine, every cache filled on the
		// way (graph builds, catalog verification, coverage checks,
		// route materialization).
		Prep CampaignPass `json:"prep"`
		// Run is the warm pass over the same engine: the steady-state
		// throughput a long-lived engine serves, and the headline
		// cells/sec number.
		Run struct {
			CampaignPass
			AllocsPerCell  float64 `json:"allocs_per_cell"`
			AllocsPerEvent float64 `json:"allocs_per_event"`
		} `json:"run"`

		CacheHits   int64 `json:"cache_hits"`
		CacheMisses int64 `json:"cache_misses"`
	} `json:"campaign"`

	// Telemetry is the observability-cost section: the price of the
	// metric record path (one counter increment plus one histogram
	// observation, the unit instrumented hot paths pay), and the warm
	// campaign measured again with a metrics registry attached. The
	// instrumented pass must reproduce the plain pass's report byte for
	// byte — telemetry observes results, never shapes them.
	Telemetry struct {
		RecordNsPerOp     float64 `json:"record_ns_per_op"`
		RecordAllocsPerOp int64   `json:"record_allocs_per_op"`
		// Run is the warm pass over a telemetry-enabled engine.
		Run CampaignPass `json:"run"`
		// RunRatio is instrumented warm cells/sec over plain warm
		// cells/sec, measured in the same run (so hardware cancels).
		// The acceptance floor is 0.5; recorded runs sit near 1.
		RunRatio float64 `json:"run_ratio"`
	} `json:"telemetry"`
}

// benchSpec is the E4-style measured campaign: rendezvous instances
// across four graph families under the three headline adversaries.
func benchSpec(quick bool) meetpoly.SweepSpec {
	sp := meetpoly.SweepSpec{
		Name:  "rvbench-e4",
		Seed:  "rvbench-v1",
		Kinds: []string{"rendezvous"},
		Graphs: []meetpoly.SweepGraphAxis{
			{Kind: "path", Sizes: []int{4, 5}},
			{Kind: "ring", Sizes: []int{4, 5}},
			{Kind: "star", Sizes: []int{5}},
			{Kind: "clique", Sizes: []int{4}},
		},
		StartPairs:  2,
		LabelPairs:  2,
		Adversaries: []string{"", "avoider", "random"},
		Budget:      200_000,
	}
	if quick {
		sp.StartPairs, sp.LabelPairs = 1, 1
		sp.Budget = 50_000
	}
	return sp
}

// runCampaign executes the spec once and returns the report with wall
// time and the allocation delta of the pass.
func runCampaign(eng *meetpoly.Engine, spec meetpoly.SweepSpec) (*meetpoly.SweepReport, time.Duration, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	rep, err := eng.Sweep(context.Background(), spec)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, 0, 0, err
	}
	if !rep.OK() {
		return nil, 0, 0, fmt.Errorf("campaign oracle failures:\n%s", rep.Table())
	}
	return rep, wall, m1.Mallocs - m0.Mallocs, nil
}

func measure(quick bool) (*BenchFile, error) {
	bf := &BenchFile{Schema: Schema, GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}

	fmt.Fprintln(os.Stderr, "rvbench: measuring half-steps...")
	res := testing.Benchmark(schedbench.HalfSteps())
	bf.HalfStep.Stepper = CoreBench{NsPerHalfStep: float64(res.T.Nanoseconds()) / float64(res.N),
		BytesPerHalfStep: res.AllocedBytesPerOp(), AllocsPerHalfStep: res.AllocsPerOp()}
	fmt.Fprintln(os.Stderr, "rvbench: measuring the goroutine hand-off round trip...")
	bf.HalfStep.HandoffNs = measureHandoff()

	spec := benchSpec(quick)
	cellCount, err := meetpoly.CountSweep(spec)
	if err != nil {
		return nil, err
	}
	eng := meetpoly.NewEngine(WithDefaults()...)

	fmt.Fprintf(os.Stderr, "rvbench: prep pass over the %d-cell %s campaign (cold caches)...\n", cellCount, spec.Name)
	cold, coldWall, _, err := runCampaign(eng, spec)
	if err != nil {
		return nil, err
	}
	// Settle before the steady-state measurement: collect the prep
	// pass's generation garbage and let one unmeasured pass touch every
	// cache, so the run pass measures the long-lived engine's steady
	// state rather than the first post-fill sweep paying the fill's GC
	// debt.
	runtime.GC()
	settle, _, _, err := runCampaign(eng, spec)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	fmt.Fprintf(os.Stderr, "rvbench: run pass (warm prepared-scenario cache)...\n")
	warm, warmWall, warmAllocs, err := runCampaign(eng, spec)
	if err != nil {
		return nil, err
	}
	for _, rep := range []*meetpoly.SweepReport{settle, warm} {
		if err := sameReport(cold, rep); err != nil {
			return nil, fmt.Errorf("cold and warm campaign reports diverge (the cache changed results): %v", err)
		}
	}

	c := &bf.Campaign
	c.Spec = spec.Name
	c.Cells = warm.Cells
	c.Met = warm.Met
	c.Events = warm.Events
	for _, g := range warm.Group {
		c.TotalCost += g.CostSum
	}
	c.Prep = pass(cold.Cells, coldWall)
	c.Run.CampaignPass = pass(warm.Cells, warmWall)
	if warm.Cells > 0 {
		c.Run.AllocsPerCell = float64(warmAllocs) / float64(warm.Cells)
	}
	if warm.Events > 0 {
		c.Run.AllocsPerEvent = float64(warmAllocs) / float64(warm.Events)
	}
	st := eng.CacheStats()
	c.CacheHits, c.CacheMisses = st.Hits, st.Misses

	fmt.Fprintln(os.Stderr, "rvbench: measuring the telemetry record path...")
	bf.Telemetry.RecordNsPerOp, bf.Telemetry.RecordAllocsPerOp = measureRecord()

	// The instrumented leg: same campaign, fresh engine with a metrics
	// registry attached, same cold-settle-warm discipline so the warm
	// pass compares like for like with the plain warm pass above.
	fmt.Fprintln(os.Stderr, "rvbench: warm pass with telemetry enabled...")
	reg := meetpoly.NewMetrics()
	tEng := meetpoly.NewEngine(append(WithDefaults(), meetpoly.WithTelemetry(reg))...)
	if _, _, _, err := runCampaign(tEng, spec); err != nil {
		return nil, err
	}
	runtime.GC()
	tWarm, tWall, _, err := runCampaign(tEng, spec)
	if err != nil {
		return nil, err
	}
	if err := sameReport(warm, tWarm); err != nil {
		return nil, fmt.Errorf("telemetry changed the campaign report (must be invisible to results): %v", err)
	}
	bf.Telemetry.Run = pass(tWarm.Cells, tWall)
	if plain := c.Run.CellsPerSec; plain > 0 {
		bf.Telemetry.RunRatio = bf.Telemetry.Run.CellsPerSec / plain
	}
	return bf, nil
}

// measureHandoff benchmarks one round trip over unbuffered channels
// between two goroutines: the calibration unit of the normalized gates.
// Both terms of a normalized gate come from the same run, so a slower
// machine shifts them together while a scheduler or event-loop
// regression moves their ratio.
func measureHandoff() float64 {
	res := testing.Benchmark(func(b *testing.B) {
		ping, pong := make(chan struct{}), make(chan struct{})
		go func() {
			for range ping {
				pong <- struct{}{}
			}
		}()
		defer close(ping)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ping <- struct{}{}
			<-pong
		}
	})
	return float64(res.T.Nanoseconds()) / float64(res.N)
}

// measureRecord benchmarks the telemetry record path: one counter
// increment plus one histogram observation per op — the unit every
// instrumented hot path pays. It must be allocation-free (checked as a
// hard gate): //rvlint:hotpath functions call it.
func measureRecord() (nsPerOp float64, allocsPerOp int64) {
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("rvbench_record_total", "record-path benchmark counter")
	hist := reg.Histogram("rvbench_record_ns", "record-path benchmark histogram")
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctr.Inc()
			hist.Observe(uint64(i))
		}
	})
	return float64(res.T.Nanoseconds()) / float64(res.N), res.AllocsPerOp()
}

func pass(cells int, wall time.Duration) CampaignPass {
	p := CampaignPass{WallMS: float64(wall.Microseconds()) / 1000}
	if s := wall.Seconds(); s > 0 {
		p.CellsPerSec = float64(cells) / s
	}
	return p
}

// sameReport asserts two campaign reports are byte-identical as JSON.
func sameReport(a, b *meetpoly.SweepReport) error {
	ja, err := json.Marshal(a)
	if err != nil {
		return err
	}
	jb, err := json.Marshal(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(ja, jb) {
		return fmt.Errorf("reports differ:\n%s\nvs\n%s", ja, jb)
	}
	return nil
}

// WithDefaults returns the engine options rvbench runs with.
func WithDefaults() []meetpoly.Option {
	return []meetpoly.Option{meetpoly.WithMaxN(6), meetpoly.WithSeed(1)}
}

// checkRegression compares a fresh measurement against the committed
// baseline. The gates are hardware-independent where possible:
//
//   - the half-step cost, normalized by the goroutine hand-off round
//     trip measured in the same run (the calibration unit), must not
//     exceed 2x the baseline's normalized cost;
//   - warm campaign throughput, normalized the same way (cells/sec ×
//     hand-off ns — "cells per hand-off-equivalent"), must not fall
//     below half the baseline's;
//   - the warm pass must stay under an absolute allocation ceiling:
//     at most 0.05 allocations per adversary event (tightened from
//     v2's 1 — warm sweeps measure ~0.002 full-size and ~0.012 under
//     -quick's smaller event budgets, so 0.05 holds for both spec
//     sizes with real headroom while still catching any per-event
//     allocation creeping into the hot loop), and at most 4x the
//     baseline's allocations per cell;
//   - the telemetry record path must allocate exactly zero times per
//     op (hot loops call it) and stay under 100 ns/op — an absolute
//     ceiling, but a generous one: atomic counter + histogram record
//     measures single-digit ns, so only a lock or allocation sneaking
//     into the path trips it — and the instrumented warm campaign
//     must hold at least half the plain warm throughput (same-run
//     ratio, so hardware cancels).
//
// Absolute ns and cells/sec drifts are reported as warnings only, since
// the baseline may have been recorded on different hardware.
func checkRegression(cur, base *BenchFile) error {
	curH, baseH := cur.HalfStep.HandoffNs, base.HalfStep.HandoffNs
	curS, baseS := cur.HalfStep.Stepper.NsPerHalfStep, base.HalfStep.Stepper.NsPerHalfStep
	if baseS > 0 && curS > 2*baseS {
		fmt.Fprintf(os.Stderr,
			"rvbench: warning: half-step measures %.1f ns vs baseline %.1f (different hardware?)\n",
			curS, baseS)
	}
	if curH > 0 && baseH > 0 && baseS > 0 {
		curNorm, baseNorm := curS/curH, baseS/baseH
		if curNorm > 2*baseNorm {
			return fmt.Errorf(
				"half-step regressed: %.3f hand-offs vs baseline %.3f (>2x)",
				curNorm, baseNorm)
		}
	}

	// Warm-throughput gate, hardware-normalized by the same run's
	// hand-off round trip.
	curT, baseT := cur.Campaign.Run.CellsPerSec, base.Campaign.Run.CellsPerSec
	if curT > 0 && baseT > 0 && curT < baseT/2 {
		fmt.Fprintf(os.Stderr,
			"rvbench: warning: warm campaign at %.0f cells/sec vs baseline %.0f (different hardware?)\n",
			curT, baseT)
	}
	if curH > 0 && baseH > 0 && curT > 0 && baseT > 0 {
		curNorm, baseNorm := curT*curH, baseT*baseH
		if curNorm < baseNorm/2 {
			return fmt.Errorf(
				"warm campaign throughput regressed: %.0f normalized cells/sec vs baseline %.0f (<0.5x)",
				curNorm, baseNorm)
		}
	}

	// Allocation ceilings (hardware-independent). The per-event ceiling
	// is absolute rather than baseline-relative because -quick runs a
	// smaller event budget per cell than the committed full-size
	// baseline, which shifts allocs/event without any code change.
	if a := cur.Campaign.Run.AllocsPerEvent; a > 0.05 {
		return fmt.Errorf("warm campaign allocates %.4f times per adversary event (ceiling 0.05)", a)
	}
	if basePC := base.Campaign.Run.AllocsPerCell; basePC > 0 {
		if a := cur.Campaign.Run.AllocsPerCell; a > 4*basePC {
			return fmt.Errorf("warm campaign allocates %.0f/cell vs baseline %.0f (>4x ceiling)",
				cur.Campaign.Run.AllocsPerCell, basePC)
		}
	}

	// Telemetry gates: the record path is called from hot loops, so it
	// must be allocation-free and cheap in absolute terms, and turning
	// metrics on must not halve campaign throughput.
	tel := &cur.Telemetry
	if tel.RecordAllocsPerOp != 0 {
		return fmt.Errorf("telemetry record path allocates %d/op (must be 0: hot loops call it)",
			tel.RecordAllocsPerOp)
	}
	if tel.RecordNsPerOp > 100 {
		return fmt.Errorf("telemetry record path costs %.1f ns/op (ceiling 100)", tel.RecordNsPerOp)
	}
	if tel.RunRatio > 0 && tel.RunRatio < 0.5 {
		return fmt.Errorf("telemetry-enabled warm campaign at %.2fx the plain throughput (floor 0.5x)",
			tel.RunRatio)
	}
	return nil
}

func main() {
	var (
		out     = flag.String("out", "BENCH_sched.json", "file to write the measurements to")
		quick   = flag.Bool("quick", false, "CI-sized campaign (smaller cross product, smaller budget)")
		check   = flag.String("check", "", "compare against this baseline file instead of writing; exit 1 on regression")
		version = flag.Bool("version", false, "print version information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("rvbench"))
		return
	}

	bf, err := measure(*quick)
	if err != nil {
		fatal(err)
	}
	doc, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		fatal(err)
	}

	if *check != "" {
		raw, err := os.ReadFile(*check)
		if err != nil {
			fatal(err)
		}
		var base BenchFile
		if err := json.Unmarshal(raw, &base); err != nil {
			fatal(fmt.Errorf("%s: %v", *check, err))
		}
		if base.Schema != Schema {
			fatal(fmt.Errorf("%s: schema %q, want %q", *check, base.Schema, Schema))
		}
		fmt.Println(string(doc))
		if err := checkRegression(bf, &base); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr,
			"rvbench: no regression (half-step %.1f ns, hand-off %.1f ns; campaign prep %.0f run %.0f cells/sec, %.0f allocs/cell; record %.1f ns, telemetry %.2fx)\n",
			bf.HalfStep.Stepper.NsPerHalfStep, bf.HalfStep.HandoffNs,
			bf.Campaign.Prep.CellsPerSec, bf.Campaign.Run.CellsPerSec, bf.Campaign.Run.AllocsPerCell,
			bf.Telemetry.RecordNsPerOp, bf.Telemetry.RunRatio)
		return
	}

	if err := os.WriteFile(*out, append(doc, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr,
		"rvbench: wrote %s (half-step %.1f ns, hand-off %.1f ns; campaign prep %.0f run %.0f cells/sec, %.0f allocs/cell; record %.1f ns, telemetry %.2fx)\n",
		*out, bf.HalfStep.Stepper.NsPerHalfStep, bf.HalfStep.HandoffNs,
		bf.Campaign.Prep.CellsPerSec, bf.Campaign.Run.CellsPerSec, bf.Campaign.Run.AllocsPerCell,
		bf.Telemetry.RecordNsPerOp, bf.Telemetry.RunRatio)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rvbench:", err)
	os.Exit(1)
}
