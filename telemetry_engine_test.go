package meetpoly

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"meetpoly/internal/campaign"
	"meetpoly/internal/telemetry"
)

// telemetryTestSpec is cacheTestSpec widened to every builtin kind.
func telemetryTestSpec() SweepSpec {
	spec := cacheTestSpec()
	spec.Kinds = []string{"rendezvous", "baseline", "esst", "sgl", "certify"}
	spec.Budget = 40_000
	return spec
}

// TestSweepTelemetryInvisibleToResults is the sweep's execution
// differential over every builtin kind: the same campaign swept on a
// plain engine, with telemetry on, with a cell tracer attached, with
// one worker, and with an observer attached must produce byte-identical
// reports — recording is observation, never participation, and the
// worker count only reorders completions.
func TestSweepTelemetryInvisibleToResults(t *testing.T) {
	spec := telemetryTestSpec()
	ctx := context.Background()

	plain, err := NewEngine().Sweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.OK() {
		t.Fatalf("sweep failed oracles:\n%s", plain.Table())
	}
	jp := mustJSON(t, plain)
	reg := NewMetrics()
	var spans int
	for _, v := range []struct {
		name string
		eng  *Engine
	}{
		{"telemetry", NewEngine(WithTelemetry(reg))},
		{"cell trace", NewEngine(WithCellTrace(func(CellTraceEvent) { spans++ }))},
		{"parallelism 1", NewEngine(WithParallelism(1))},
		{"observer", NewEngine(WithObserver(&FuncObserver{}))},
	} {
		rep, err := v.eng.Sweep(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if jv := mustJSON(t, rep); !bytes.Equal(jp, jv) {
			t.Errorf("%s changed the sweep report:\nplain: %s\n%s: %s", v.name, jp, v.name, jv)
		}
	}

	// And the instrumentation actually observed the sweep.
	total, err := CountSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if spans != 2*total {
		t.Errorf("tracer saw %d spans, want %d (begin+end per cell)", spans, 2*total)
	}
	snap := make(map[string]float64)
	var judged float64
	var walled uint64
	for _, p := range reg.Snapshot() {
		snap[p.Name]++
		switch p.Name {
		case "meetpoly_engine_cells_total":
			judged += p.Value
		case "meetpoly_engine_cell_wall_ns":
			walled += p.Count
		}
	}
	if judged != float64(total) {
		t.Errorf("meetpoly_engine_cells_total sums to %v, want %d", judged, total)
	}
	// Every cell, whatever its kind, runs the one per-cell path that
	// observes the wall-time histogram.
	if walled != uint64(total) {
		t.Errorf("meetpoly_engine_cell_wall_ns counted %d cells, want %d", walled, total)
	}
	for _, name := range []string{
		"meetpoly_engine_cache_hits_total",
		"meetpoly_engine_cache_misses_total",
		"meetpoly_engine_cell_verdicts_total",
		"meetpoly_engine_route_replays_total",
		"meetpoly_engine_pi_slack_millibits",
	} {
		if snap[name] == 0 {
			t.Errorf("series %s missing from the instrumented sweep's snapshot", name)
		}
	}
}

// TestSweepBatchedMatchesSequential checks the sweep pipeline against
// plain sequential execution over every builtin kind: the cells a
// four-worker SweepStream batches through its bounded work queue, put
// back in index order, must be byte-identical to running each expanded
// cell one after another through runCell on a fresh engine, and the
// sequential results must fold into a report that passes its oracles.
func TestSweepBatchedMatchesSequential(t *testing.T) {
	spec := telemetryTestSpec()
	ctx := context.Background()
	cells, _, err := ExpandSweep(spec)
	if err != nil {
		t.Fatal(err)
	}

	batched := make([]SweepCellResult, len(cells))
	seen := 0
	for cr, err := range NewEngine(WithParallelism(4)).SweepStream(ctx, spec) {
		if err != nil {
			t.Fatal(err)
		}
		batched[cr.Cell.Index] = cr
		seen++
	}
	if seen != len(cells) {
		t.Fatalf("stream yielded %d cells, expansion has %d", seen, len(cells))
	}

	ref := NewEngine()
	ref.sweepPrepass(spec)
	oracles := ref.defaultOracles()
	agg := campaign.NewAggregator(spec, nil)
	for i, cell := range cells {
		want := ref.runCell(ctx, cell, oracles)
		agg.Add(want)
		jb, js := mustJSON(t, batched[i]), mustJSON(t, want)
		if !bytes.Equal(jb, js) {
			t.Errorf("cell %d (%s): sweep diverges from sequential runCell:\nsweep:      %s\nsequential: %s",
				i, cell.ID, jb, js)
		}
	}
	if rep := agg.Report(); !rep.OK() {
		t.Fatalf("sequential sweep failed oracles:\n%s", rep.Table())
	}
}

// TestCellTraceSpans pins the tracer contract: one begin and one end
// per cell, ends carry the wall time and verdict, and spans arrive
// serialized (the callback mutates shared state without locking).
func TestCellTraceSpans(t *testing.T) {
	spec := cacheTestSpec()
	open := make(map[int]bool)
	var ends int
	eng := NewEngine(WithCellTrace(func(ev CellTraceEvent) {
		switch ev.Phase {
		case "begin":
			if open[ev.Index] {
				t.Errorf("cell %d: second begin before end", ev.Index)
			}
			open[ev.Index] = true
			if ev.WallNs != 0 {
				t.Errorf("cell %d: begin event carries a wall time", ev.Index)
			}
		case "end":
			if !open[ev.Index] {
				t.Errorf("cell %d: end without begin", ev.Index)
			}
			delete(open, ev.Index)
			ends++
			if ev.WallNs < 0 {
				t.Errorf("cell %d: negative wall time %d", ev.Index, ev.WallNs)
			}
			if ev.ID == "" || ev.Seed == "" || ev.Kind == "" || ev.Graph == "" {
				t.Errorf("cell %d: end event missing identity: %+v", ev.Index, ev)
			}
		default:
			t.Errorf("unknown trace phase %q", ev.Phase)
		}
	}))
	rep, err := eng.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(open) != 0 {
		t.Errorf("%d cells ended the sweep with open spans", len(open))
	}
	if ends != rep.Cells {
		t.Errorf("saw %d end spans, want %d", ends, rep.Cells)
	}
}

// TestEngineMetricsCacheConsistency pins the no-drift contract shared
// with /v1/stats: the cache series on /metrics decode the same packed
// word CacheStats reads.
func TestEngineMetricsCacheConsistency(t *testing.T) {
	reg := NewMetrics()
	eng := NewEngine(WithTelemetry(reg))
	if _, err := eng.Sweep(context.Background(), cacheTestSpec()); err != nil {
		t.Fatal(err)
	}
	stats := eng.CacheStats()
	var hits, misses float64
	for _, p := range reg.Snapshot() {
		switch p.Name {
		case "meetpoly_engine_cache_hits_total":
			hits = p.Value
		case "meetpoly_engine_cache_misses_total":
			misses = p.Value
		}
	}
	if hits != float64(stats.Hits) || misses != float64(stats.Misses) {
		t.Errorf("metrics (hits=%v misses=%v) drifted from CacheStats (%+v)", hits, misses, stats)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# TYPE meetpoly_engine_cache_hits_total counter") {
		t.Errorf("exposition missing the cache series:\n%s", b.String())
	}
}

// TestTelemetryNowMonotonic pins the clock the engine timings ride on.
func TestTelemetryNowMonotonic(t *testing.T) {
	a := telemetry.Now()
	b := telemetry.Now()
	if b < a {
		t.Errorf("telemetry clock went backwards: %d then %d", a, b)
	}
}
