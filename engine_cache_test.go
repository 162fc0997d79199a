package meetpoly

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

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
// else, and a repeated sweep adds no new misses.
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
	if _, err := eng.Sweep(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	st2 := eng.CacheStats()
	if st2.Misses != st.Misses {
		t.Errorf("second sweep added misses: %d -> %d (cache not content-addressed?)", st.Misses, st2.Misses)
	}
	if st2.Hits <= st.Hits {
		t.Errorf("second sweep added no hits: %d -> %d", st.Hits, st2.Hits)
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
// test: the same campaign on a cache-on and a cache-off engine must
// produce byte-identical reports. The cache (graphs, coverage
// verdicts, route replays) is an amortization of preparation cost, not
// an approximation of execution.
func TestCachedUncachedSweepsIdentical(t *testing.T) {
	spec := cacheTestSpec()
	spec.Kinds = []string{"rendezvous", "baseline", "esst", "sgl", "certify"}
	spec.StartPairs = 1
	// A modest budget keeps the -race run fast; cells that exhaust it
	// (baseline's exponential walks under the avoider) are still valid
	// differential material — both engines must exhaust identically.
	spec.Budget = 40_000

	cached, err := NewEngine().Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := NewEngine(WithPreparedCache(false)).Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
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
