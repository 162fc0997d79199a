package meetpoly

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"meetpoly/internal/campaign"
	"meetpoly/internal/graph"
)

// cacheTestSpec is a small all-kinds campaign: every scenario kind,
// two graph families, all three headline adversaries.
func cacheTestSpec() SweepSpec {
	return SweepSpec{
		Name: "cache-test",
		Seed: "cache-v1",
		Graphs: []SweepGraphAxis{
			{Kind: "path", Sizes: []int{4}},
			{Kind: "ring", Sizes: []int{4, 5}},
		},
		StartPairs:  2,
		Adversaries: []string{"", "avoider", "random"},
		Budget:      30_000,
		Moves:       60,
	}
}

// TestPreparedCacheHitRatio asserts the content-addressed cache's core
// economy: a sweep misses once per unique GraphSpec and hits everywhere
// else, and a repeated sweep adds no new misses. The cache amortizes,
// never shortcuts: the second and third sweeps on the warm engine
// reproduce the first sweep's report byte for byte.
func TestPreparedCacheHitRatio(t *testing.T) {
	eng := NewEngine()
	spec := cacheTestSpec()
	cells, err := CountSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("oracle failures:\n%s", rep.Table())
	}
	st := eng.CacheStats()
	const uniqueGraphs = 3 // path-4, ring-4, ring-5
	if st.Misses != uniqueGraphs {
		t.Errorf("first sweep: %d cache misses, want %d (one per unique graph)", st.Misses, uniqueGraphs)
	}
	// Every cell preparation beyond the graph pre-pass is a hit.
	if st.Hits < int64(cells)-uniqueGraphs {
		t.Errorf("first sweep: %d cache hits for %d cells, want >= %d", st.Hits, cells, cells-uniqueGraphs)
	}
	cold := mustJSON(t, rep)
	for _, pass := range []string{"second", "third"} {
		rep, err := eng.Sweep(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if warm := mustJSON(t, rep); !bytes.Equal(cold, warm) {
			t.Errorf("%s sweep's report differs from the first:\nfirst: %s\n%s: %s", pass, cold, pass, warm)
		}
	}
	st2 := eng.CacheStats()
	if st2.Misses != st.Misses {
		t.Errorf("repeated sweeps added misses: %d -> %d (cache not content-addressed?)", st.Misses, st2.Misses)
	}
	if st2.Hits <= st.Hits {
		t.Errorf("repeated sweeps added no hits: %d -> %d", st.Hits, st2.Hits)
	}
}

// TestPreparedCacheConcurrent hammers one engine from concurrent
// RunBatch and Sweep calls whose scenarios share GraphSpecs, under
// -race: the cache must serve one immutable graph per fingerprint with
// no torn builds, and all runs must agree with a reference execution.
func TestPreparedCacheConcurrent(t *testing.T) {
	eng := NewEngine()
	sc := Scenario{
		Kind:      ScenarioRendezvous,
		Graph:     GraphSpec{Kind: "ring", N: 5},
		Starts:    []int{0, 2},
		Labels:    []Label{2, 5},
		Adversary: "avoider",
		Budget:    5_000,
	}
	ref, refErr := eng.Run(context.Background(), sc)
	spec := cacheTestSpec()
	refRep, err := eng.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			brs := eng.RunBatch(context.Background(), []Scenario{sc, sc, sc})
			for _, br := range brs {
				if (br.Err == nil) != (refErr == nil) {
					errs <- br.Err
					continue
				}
				if br.Result != nil && ref != nil &&
					br.Result.Rendezvous.Summary.TotalCost != ref.Rendezvous.Summary.TotalCost {
					t.Errorf("concurrent run diverged: cost %d vs %d",
						br.Result.Rendezvous.Summary.TotalCost, ref.Rendezvous.Summary.TotalCost)
				}
			}
		}()
		go func() {
			defer wg.Done()
			rep, err := eng.Sweep(context.Background(), spec)
			if err != nil {
				errs <- err
				return
			}
			if got, want := mustJSON(t, rep), mustJSON(t, refRep); !bytes.Equal(got, want) {
				t.Errorf("concurrent sweep report diverged from reference")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("concurrent cache user failed: %v", err)
		}
	}
}

// TestShuffleSeedsNeverAlias is the cache mutation test: ShufflePorts
// specs differing only in seed are distinct fingerprints and must yield
// distinct port-numbered graphs — a cached shuffled graph may never be
// served for a different shuffle seed — while the same seed must keep
// serving the one immutable instance.
func TestShuffleSeedsNeverAlias(t *testing.T) {
	eng := NewEngine()
	build := func(seed int64) *Graph {
		sc := Scenario{
			Kind:   ScenarioESST,
			Graph:  GraphSpec{Kind: "clique", N: 5, Shuffle: true, Seed: seed},
			Starts: []int{0, 3},
			Budget: 200_000,
		}
		brs := eng.RunBatch(context.Background(), []Scenario{sc})
		if brs[0].Err != nil {
			t.Fatalf("seed %d: %v", seed, brs[0].Err)
		}
		return brs[0].Graph
	}
	g1, g2, g3 := build(1), build(2), build(1)
	if g1 != g3 {
		t.Error("same spec twice returned distinct graph instances (cache not shared)")
	}
	if g1 == g2 {
		t.Error("different shuffle seeds returned the same cached instance")
	}
	if graph.Equal(g1, g2) {
		t.Error("different shuffle seeds produced structurally identical graphs (aliased cache entry?)")
	}
	// The cached instance must be exactly what a fresh build produces.
	fresh, err := (GraphSpec{Kind: "clique", N: 5, Shuffle: true, Seed: 1}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(g1, fresh) {
		t.Error("cached graph diverges from a fresh deterministic build")
	}
}

// TestCachedUncachedSweepsIdentical is the differential acceptance
// test: a cached Sweep must produce the byte-identical report of the
// same campaign run without the cache. The uncached side builds each
// cell's graph itself and runs the cell as a GraphInstance scenario —
// the path custom graphs take, which bypasses the prepared-scenario
// cache and replays no route book — then judges the cells with the
// default oracles and folds them through the campaign aggregator. The
// cache (graphs, coverage verdicts, route replays) is an amortization
// of preparation cost, not an approximation of execution.
func TestCachedUncachedSweepsIdentical(t *testing.T) {
	spec := cacheTestSpec()
	spec.Kinds = []string{"rendezvous", "baseline", "esst", "sgl", "certify"}
	spec.StartPairs = 1
	// A modest budget keeps the -race run fast; cells that exhaust it
	// (baseline's exponential walks under the avoider) are still valid
	// differential material — both paths must exhaust identically.
	spec.Budget = 40_000

	ctx := context.Background()
	cached, err := NewEngine().Sweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	cells, scs, err := ExpandSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	brs := make([]BatchResult, len(cells))
	for i, sc := range scs {
		g, err := sc.Graph.Build()
		if err != nil {
			t.Fatal(err)
		}
		sc.GraphInstance = g
		res, err := eng.Run(ctx, sc)
		brs[i] = BatchResult{Index: cells[i].Index, Scenario: sc, Graph: g, Result: res, Err: err}
	}
	if st := eng.CacheStats(); st.Hits+st.Misses != 0 {
		t.Fatalf("GraphInstance runs went through the prepared-scenario cache: %+v", st)
	}
	oracles := campaign.DefaultOracles(eng.BoundModel())
	agg := campaign.NewAggregator(spec, nil)
	for i, cell := range cells {
		agg.Add(eng.judge(cell, brs[i], oracles))
	}
	uncached := agg.Report()
	jc, ju := mustJSON(t, cached), mustJSON(t, uncached)
	if !bytes.Equal(jc, ju) {
		t.Fatalf("cached and uncached sweep reports differ:\ncached:   %s\nuncached: %s", jc, ju)
	}
	if !cached.OK() {
		t.Fatalf("sweep failed oracles:\n%s", cached.Table())
	}
}

// TestReplayMatchesSweptCell replays a cell against the warm cache and
// checks the outcome byte-matches the cell as the streaming sweep ran
// it — the reproduction loop must not depend on cache temperature.
func TestReplayMatchesSweptCell(t *testing.T) {
	eng := NewEngine()
	spec := cacheTestSpec()
	cells, _, err := ExpandSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	brs := eng.RunBatch(context.Background(), sweepScenarios(cells))
	// Pick an avoider cell (budget-exhausted: the long adversarial path).
	for _, br := range brs {
		cell := cells[br.Index]
		if cell.Kind != "rendezvous" || cell.Adversary != "avoider" {
			continue
		}
		cr, err := eng.ReplayCell(context.Background(), spec, cell.Seed)
		if err != nil {
			t.Fatal(err)
		}
		want := sweepOutcome(cell, br)
		if got := cr.Outcome; got != want {
			t.Fatalf("replayed outcome %+v != swept outcome %+v", got, want)
		}
		return
	}
	t.Fatal("no avoider cell found in spec")
}

// TestFreshEngineReplayMatchesSweep replays every cell of a campaign
// whose clique-8 axis lies outside the default catalog family, each on
// a fresh engine built like the sweeping one. The sweep's whole-spec
// pre-pass extends the catalog before any cell runs, so a replay must
// run and judge its cell under that same extended catalog: outcome and
// verdicts must equal the swept ones. TestReplayMatchesSweptCell cannot
// see this, because it replays on the engine the sweep already
// extended; at the default family an ESST cell on ring 4 explores under
// other sequence lengths than the sweep's.
func TestFreshEngineReplayMatchesSweep(t *testing.T) {
	spec, err := LoadSweepSpecFile("testdata/replay-extend.json")
	if err != nil {
		t.Fatal(err)
	}
	spec.Kinds = nil // every built-in kind, ESST included
	spec.Adversaries = []string{"", "avoider"}
	spec.Moves = 100
	newEngine := func() *Engine { return NewEngine(WithMaxN(6), WithSeed(1)) }
	ctx := context.Background()
	n, err := CountSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	swept := make([]SweepCellResult, n)
	for cr, err := range newEngine().SweepStream(ctx, spec) {
		if err != nil {
			t.Fatal(err)
		}
		swept[cr.Cell.Index] = cr
	}
	esst := 0
	for _, want := range swept {
		if want.Cell.Kind == string(ScenarioESST) {
			esst++
		}
		got, err := newEngine().ReplayCell(ctx, spec, want.Cell.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Cell, want.Cell) || got.Outcome != want.Outcome ||
			!reflect.DeepEqual(got.Failures, want.Failures) {
			t.Errorf("%s (%s) replays on a fresh engine as\n  %+v %v\nbut swept as\n  %+v %v",
				want.Cell.Seed, want.Cell.ID, got.Outcome, got.Failures, want.Outcome, want.Failures)
		}
	}
	if esst == 0 {
		t.Fatal("the spec has no ESST cell")
	}
}

func sweepScenarios(cells []SweepCell) []Scenario {
	scs := make([]Scenario, len(cells))
	for i, c := range cells {
		scs[i] = CellScenario(c)
	}
	return scs
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCacheStatsConsistentSnapshot: CacheStats must return a (Hits,
// Misses) pair that held at a single instant. Workers alternate one guaranteed hit with one guaranteed
// miss, so at any instant the two counters differ by at most the
// worker count (plus the one warming miss); a snapshot torn across two
// independent loads — the old implementation — lets an arbitrary
// number of operations land between reading Hits and reading Misses
// and shows up here as a wider gap. Run under -race this also proves
// the counter path is data-race free.
func TestCacheStatsConsistentSnapshot(t *testing.T) {
	eng := NewEngine()
	warm := GraphSpec{Kind: "ring", N: 5}
	eng.preparedFor(warm) // miss #0: every later lookup of warm is a hit
	const workers = 8
	const iters = 200

	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan string, 1)
	for r := 0; r < 2; r++ {
		go func() {
			for {
				select {
				case <-done:
					return
				default:
				}
				st := eng.CacheStats()
				// Hits lag Misses by the warming miss; beyond that the
				// alternation bounds the gap by the worker count.
				if d := st.Misses - 1 - st.Hits; d < -workers || d > workers {
					select {
					case errs <- fmt.Sprintf("Hits=%d Misses=%d", st.Hits, st.Misses):
					default:
					}
					return
				}
			}
		}()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				eng.preparedFor(warm) // hit
				// A unique spec per (worker, iteration): a guaranteed miss.
				eng.preparedFor(GraphSpec{Kind: "ring", N: 100 + w*iters + i})
			}
		}(w)
	}
	wg.Wait()
	close(done)
	select {
	case msg := <-errs:
		t.Fatalf("torn cache-stats snapshot observed: %s", msg)
	default:
	}
	st := eng.CacheStats()
	if st.Hits != workers*iters || st.Misses != workers*iters+1 {
		t.Fatalf("final stats %+v, want Hits=%d Misses=%d", st, workers*iters, workers*iters+1)
	}
}
