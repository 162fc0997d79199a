package campaign

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"meetpoly/internal/costmodel"
	"meetpoly/internal/lazyrand"
	"meetpoly/internal/registry"
)

func testSpec() Spec {
	return Spec{
		Name: "unit",
		Seed: "unit-seed",
		Graphs: []GraphAxis{
			{Kind: "path", Sizes: []int{3, 4}},
			{Kind: "ring", Sizes: []int{4}},
			{Kind: "grid", Rows: 2, Cols: 3},
		},
		StartPairs:  2,
		LabelPairs:  2,
		Adversaries: []string{"", "avoider", "random"},
		Budget:      1000,
		Moves:       100,
	}
}

func TestExpandDeterministic(t *testing.T) {
	a, err := Expand(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Expand(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("expansion is not deterministic")
	}
}

func TestExpandCrossProduct(t *testing.T) {
	cells, err := Expand(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	// 4 graph cells; per graph cell: rendezvous/baseline/sgl are
	// 2 starts x 2 labels x 3 adversaries = 12, esst is 2 x 3 = 6,
	// certify is 2 x 2 x 1 = 4.
	want := 4 * (3*12 + 6 + 4)
	if len(cells) != want {
		t.Fatalf("expanded %d cells, want %d", len(cells), want)
	}
	counts := make(map[string]int)
	for i, c := range cells {
		counts[c.Kind]++
		if c.Index != i {
			t.Fatalf("cell %d carries index %d", i, c.Index)
		}
		if c.Seed != CellSeed("unit-seed", i) {
			t.Fatalf("cell %d seed %q", i, c.Seed)
		}
		if len(c.Starts) != 2 || c.Starts[0] == c.Starts[1] {
			t.Fatalf("cell %d starts %v", i, c.Starts)
		}
		g, err := c.Graph.Build()
		if err != nil {
			t.Fatal(err)
		}
		if c.Starts[0] >= g.N() || c.Starts[1] >= g.N() {
			t.Fatalf("cell %d starts %v out of range for %d nodes", i, c.Starts, g.N())
		}
		switch c.Kind {
		case KindESST:
			if c.Labels != nil {
				t.Fatalf("esst cell %d has labels %v", i, c.Labels)
			}
		case KindCertify:
			if c.Adversary != "" {
				t.Fatalf("certify cell %d has adversary %q", i, c.Adversary)
			}
			if c.Moves != 100 || c.Budget != 0 {
				t.Fatalf("certify cell %d moves=%d budget=%d", i, c.Moves, c.Budget)
			}
		default:
			if len(c.Labels) != 2 || c.Labels[0] == c.Labels[1] || c.Labels[0] == 0 || c.Labels[1] == 0 {
				t.Fatalf("cell %d labels %v", i, c.Labels)
			}
			if c.Budget != 1000 {
				t.Fatalf("cell %d budget %d", i, c.Budget)
			}
		}
		if strings.HasPrefix(c.Adversary, "random") && !strings.Contains(c.Adversary, ":") {
			t.Fatalf("bare random adversary was not specialized: %q", c.Adversary)
		}
	}
	for _, k := range AllKinds() {
		if counts[k] == 0 {
			t.Fatalf("kind %s missing from expansion: %v", k, counts)
		}
	}
}

// TestInstanceSharingAcrossAxes: cells that differ only in kind, label
// pair or adversary must run the same start placement (and, per
// placement, the same labels), so grouped comparisons compare like
// against like.
func TestInstanceSharingAcrossAxes(t *testing.T) {
	cells, err := Expand(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	type instKey struct{ graph, sp string }
	starts := make(map[instKey][]int)
	type labelKey struct{ graph, sp, lp string }
	labels := make(map[labelKey][]uint64)
	for _, c := range cells {
		parts := strings.Split(c.ID, "/") // kind/graph/s<sp>/l<lp>/adv
		ik := instKey{parts[1], parts[2]}
		if prev, ok := starts[ik]; ok {
			if prev[0] != c.Starts[0] || prev[1] != c.Starts[1] {
				t.Fatalf("placement %v differs across axes: %v vs %v (cell %s)", ik, prev, c.Starts, c.ID)
			}
		} else {
			starts[ik] = c.Starts
		}
		if len(c.Labels) > 0 {
			lk := labelKey{parts[1], parts[2], parts[3]}
			if prev, ok := labels[lk]; ok {
				if prev[0] != c.Labels[0] || prev[1] != c.Labels[1] {
					t.Fatalf("labels %v differ across axes: %v vs %v (cell %s)", lk, prev, c.Labels, c.ID)
				}
			} else {
				labels[lk] = c.Labels
			}
		}
	}
	// The sp axis must still produce more than one placement overall
	// (independent draws, so not guaranteed per graph — but across 4
	// graph cells a total collision would mean derivation is broken).
	distinct := make(map[string]bool)
	for ik, s := range starts {
		distinct[fmt.Sprintf("%s:%v", ik.graph, s)] = true
	}
	if len(distinct) <= len(starts)/2 {
		t.Fatalf("start derivation suspiciously uniform: %v", starts)
	}
}

// TestExpanderReseedMatchesFreshSource pins the expander's one shared
// random source, a lazyrand.Source, to the per-key fresh math/rand
// sources it replaces: re-seeding, even a partly consumed stream, draws
// exactly what rand.NewSource draws, so start and label derivations are
// unchanged.
func TestExpanderReseedMatchesFreshSource(t *testing.T) {
	rng := rand.New(lazyrand.New(7))
	for i, seed := range []int64{0, 1, 42, hash64("unit-seed/path4/start0"), 1<<63 - 1} {
		for j := 0; j < 3*i; j++ {
			rng.Int63() // leave the stream partly consumed
		}
		rng.Seed(seed)
		fresh := rand.New(rand.NewSource(seed))
		for k := 0; k < 200; k++ {
			if a, b := rng.Intn(64), fresh.Intn(64); a != b {
				t.Fatalf("seed %d: draw %d after re-seeding = %d, fresh source draws %d", seed, k, a, b)
			}
		}
	}

	x := newExpander(testSpec())
	for _, gp := range []graphCell{
		{spec: registry.GraphSpec{Kind: "path", N: 4}, nodes: 4, label: "path-4"},
		{spec: registry.GraphSpec{Kind: "ring", N: 9}, nodes: 9, label: "ring-9"},
	} {
		label := axisLabel(gp.spec)
		for sp := 0; sp < 3; sp++ {
			fresh := rand.New(rand.NewSource(hash64(fmt.Sprintf("unit-seed/%s/start%d", label, sp))))
			s1, s2 := fresh.Intn(gp.nodes), fresh.Intn(gp.nodes-1)
			if s2 >= s1 {
				s2++
			}
			if got := x.starts(gp, sp); got != [2]int{s1, s2} {
				t.Errorf("%s sp=%d: starts %v, fresh source draws %v", label, sp, got, [2]int{s1, s2})
			}
			for lp := 0; lp < 3; lp++ {
				fresh := rand.New(rand.NewSource(hash64(fmt.Sprintf("unit-seed/%s/start%d/label%d", label, sp, lp))))
				l1, l2 := uint64(1+fresh.Intn(64)), uint64(1+fresh.Intn(63))
				if l2 >= l1 {
					l2++
				}
				if got := x.labels(gp, sp, lp); got != [2]uint64{l1, l2} {
					t.Errorf("%s sp=%d lp=%d: labels %v, fresh source draws %v", label, sp, lp, got, [2]uint64{l1, l2})
				}
			}
		}
	}
}

func TestReplayMatchesExpand(t *testing.T) {
	spec := testSpec()
	cells, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, len(cells) / 2, len(cells) - 1} {
		got, err := Replay(spec, cells[i].Seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, cells[i]) {
			t.Fatalf("replay of %q diverged:\n got %+v\nwant %+v", cells[i].Seed, got, cells[i])
		}
	}
	if _, err := Replay(spec, "other-campaign#3"); err == nil {
		t.Fatal("replay accepted a foreign master seed")
	}
	if _, err := Replay(spec, CellSeed(spec.Seed, len(cells))); err == nil {
		t.Fatal("replay accepted an out-of-range index")
	}
	if _, err := Replay(spec, "no-index"); err == nil {
		t.Fatal("replay accepted a seed without #index")
	}
}

func TestSpecValidate(t *testing.T) {
	for name, mut := range map[string]func(*Spec){
		"no seed":      func(s *Spec) { s.Seed = "" },
		"no graphs":    func(s *Spec) { s.Graphs = nil },
		"unknown kind": func(s *Spec) { s.Kinds = []string{"teleport"} },
		"no budget":    func(s *Spec) { s.Budget = 0 },
		"bad size":     func(s *Spec) { s.Graphs = []GraphAxis{{Kind: "ring", Sizes: []int{2}}} },
		"no sizes":     func(s *Spec) { s.Graphs = []GraphAxis{{Kind: "path"}} },
		"bad grid":     func(s *Spec) { s.Graphs = []GraphAxis{{Kind: "grid", Rows: 1}} },
		"over cap":     func(s *Spec) { s.Graphs = []GraphAxis{{Kind: "clique", Sizes: []int{registry.MaxSpecNodes + 1}}} },
		"cube cap":     func(s *Spec) { s.Graphs = []GraphAxis{{Kind: "hypercube", Sizes: []int{12}}} },
		"grid cap":     func(s *Spec) { s.Graphs = []GraphAxis{{Kind: "grid", Rows: 64, Cols: 64}} },
		"lolli cap":    func(s *Spec) { s.Graphs = []GraphAxis{{Kind: "lollipop", Rows: 2000, Cols: 2000}} },
		"cell bomb":    func(s *Spec) { s.StartPairs = 1 << 30 },
		"cell bomb 2":  func(s *Spec) { s.StartPairs = 1 << 40; s.LabelPairs = 1 << 40 },
		"lolli overflow": func(s *Spec) {
			s.Graphs = []GraphAxis{{Kind: "lollipop", Rows: 1 << 62, Cols: 1 << 62}}
		},
	} {
		s := testSpec()
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the spec", name)
		}
	}
	certOnly := testSpec()
	certOnly.Kinds = []string{KindCertify}
	certOnly.Budget = 0
	if err := certOnly.Validate(); err != nil {
		t.Errorf("certify-only spec should not need a budget: %v", err)
	}
}

func TestFamilyDefaultSeeds(t *testing.T) {
	spec := Spec{
		Seed:   "s",
		Kinds:  []string{KindRendezvous},
		Graphs: []GraphAxis{{Kind: "tree", Sizes: []int{5}}, {Kind: "random", Sizes: []int{4}}},
		Budget: 10,
	}
	cells, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Graph.Seed != 5 {
		t.Errorf("tree-5 default seed = %d, want the family seed 5", cells[0].Graph.Seed)
	}
	if cells[1].Graph.Seed != 4*7+1 {
		t.Errorf("random-4 default seed = %d, want the family seed 29", cells[1].Graph.Seed)
	}
	if cells[1].Graph.P != 0.3 {
		t.Errorf("random default p = %v", cells[1].Graph.P)
	}

	// Zero-seed shuffled axes must default to the family shuffle seed
	// (the node count) on BOTH the sized and the fixed expansion paths,
	// or a default verified catalog would not recognize the graphs.
	shuf := Spec{
		Seed:  "s",
		Kinds: []string{KindRendezvous},
		Graphs: []GraphAxis{
			{Kind: "path", Sizes: []int{4}, Shuffle: true},
			{Kind: "grid", Rows: 2, Cols: 3, Shuffle: true},
		},
		Budget: 10,
	}
	sc, err := Expand(shuf)
	if err != nil {
		t.Fatal(err)
	}
	if sc[0].Graph.Seed != 4 {
		t.Errorf("shuffled path-4 default seed = %d, want 4", sc[0].Graph.Seed)
	}
	if sc[1].Graph.Seed != 6 {
		t.Errorf("shuffled grid-2x3 default seed = %d, want 6 (the node count)", sc[1].Graph.Seed)
	}
}

func metOutcome(n, m, cost, maxPer int) Outcome {
	return Outcome{N: n, M: m, Met: true, Consistent: true, Cost: cost, MaxPerAgent: maxPer}
}

func TestOracles(t *testing.T) {
	model := costmodel.New(costmodel.PLinear(1))
	cellRV := Cell{Kind: KindRendezvous, Labels: []uint64{2, 5}}
	cellESST := Cell{Kind: KindESST}

	term := Termination()
	if err := term.Check(cellRV, metOutcome(4, 3, 10, 5)); err != nil {
		t.Errorf("termination failed a met run: %v", err)
	}
	if err := term.Check(cellRV, Outcome{Exhausted: true}); err != nil {
		t.Errorf("termination failed an exhausted run: %v", err)
	}
	if err := term.Check(cellRV, Outcome{EndedEarly: true}); err == nil {
		t.Error("termination accepted a run that ended without goal or sentinel")
	}
	if err := term.Check(cellRV, Outcome{Invalid: true}); err == nil {
		t.Error("termination accepted an invalid expanded cell")
	}

	bound := Bound(model)
	if err := bound.Check(cellRV, metOutcome(4, 3, 40, 25)); err != nil {
		t.Errorf("bound failed a tiny-cost run: %v", err)
	}
	// Pi exceeds 2^63 even at n=2, so no honest int64 cost can breach
	// it; corrupted (negative) accounting must still be rejected.
	corrupt := metOutcome(4, 3, 40, 25)
	corrupt.MaxPerAgent = -1
	if err := bound.Check(cellRV, corrupt); err == nil {
		t.Error("bound accepted corrupted negative per-agent accounting")
	}
	if err := bound.Check(cellESST, metOutcome(4, 3, 2, 2)); err == nil {
		t.Error("bound accepted an ESST run with fewer traversals than edges")
	}
	if err := bound.Check(cellESST, metOutcome(4, 3, 12, 12)); err != nil {
		t.Errorf("bound failed a covering ESST run: %v", err)
	}

	cons := Consistency()
	bad := metOutcome(4, 3, 10, 5)
	bad.Consistent = false
	bad.Detail = "disagreement"
	if err := cons.Check(cellRV, bad); err == nil {
		t.Error("consistency accepted an inconsistent met run")
	}

	lem := Lemmas(model)
	if err := lem.Check(cellRV, metOutcome(4, 3, 10, 5)); err != nil {
		t.Errorf("lemmas failed on a holding combination: %v", err)
	}
}

// TestLemmasVerdictsSharedAcrossSuites: the lemma verdicts live on the
// cost model, so every suite DefaultOracles builds over one model (a
// fleet worker builds one per lease) judges alike, and a fresh suite over
// a warm model computes nothing: its check allocates no more than
// building the oracle does.
func TestLemmasVerdictsSharedAcrossSuites(t *testing.T) {
	model := costmodel.New(costmodel.PLinear(1))
	lemmas := func(suite []Oracle) Oracle {
		for _, o := range suite {
			if o.Name() == "lemmas" {
				return o
			}
		}
		t.Fatal("the default suite has no lemmas oracle")
		return nil
	}
	first, second := lemmas(DefaultOracles(model)), lemmas(DefaultOracles(model))
	for _, n := range []int{2, 4, 7} {
		for _, labels := range [][]uint64{{1, 2}, {2, 5}, {9, 1000}} {
			c := Cell{Kind: KindRendezvous, Labels: labels}
			o := metOutcome(n, n, 10, 5)
			a, b := first.Check(c, o), second.Check(c, o)
			if a != nil || b != nil {
				t.Errorf("n=%d labels %v: lemmas failed: %v / %v", n, labels, a, b)
			}
			build := testing.AllocsPerRun(20, func() { _ = lemmas(DefaultOracles(model)) })
			check := testing.AllocsPerRun(20, func() { _ = lemmas(DefaultOracles(model)).Check(c, o) })
			if check != build {
				t.Errorf("n=%d labels %v: a fresh suite's lemma check allocates %.0f times, building it %.0f",
					n, labels, check, build)
			}
		}
	}
}

func TestReportAggregationAndTable(t *testing.T) {
	spec := Spec{Name: "agg", Seed: "agg-seed"}
	// Distinct cells need distinct indices: the aggregator dedupes
	// repeated feeds of the same cell by index/seed identity.
	nextIdx := 0
	mk := func(kind, graphKind string, o Outcome, fail bool) CellResult {
		idx := nextIdx
		nextIdx++
		cr := CellResult{
			Cell: Cell{Index: idx, Kind: kind, Graph: registry.GraphSpec{Kind: graphKind, N: 4},
				ID: kind + "/x", Seed: CellSeed("agg-seed", idx)},
			Outcome: o,
		}
		if fail {
			cr.Failures = []OracleFailure{{Oracle: "test", Err: "boom"}}
		}
		return cr
	}
	results := []CellResult{
		mk(KindRendezvous, "path", metOutcome(4, 3, 10, 6), false),
		mk(KindRendezvous, "path", metOutcome(4, 3, 30, 20), false),
		mk(KindRendezvous, "path", Outcome{Exhausted: true}, false),
		mk(KindESST, "ring", Outcome{Canceled: true}, true),
		mk(KindESST, "ring", Outcome{EndedEarly: true}, true),
	}
	r := BuildReport(spec, results, nil)
	if r.Cells != 5 || r.Met != 2 || r.Ex != 1 || r.Canc != 1 || r.Other != 1 || r.Fail != 2 {
		t.Fatalf("totals: %+v", r)
	}
	if r.Met+r.Ex+r.Canc+r.Other != r.Cells {
		t.Fatalf("outcome buckets do not sum to cells: %+v", r)
	}
	if r.OK() {
		t.Fatal("report with failures claims OK")
	}
	// Canceled cells alone must also spoil OK: they verified nothing.
	interrupted := BuildReport(spec, []CellResult{
		mk(KindRendezvous, "path", metOutcome(4, 3, 10, 6), false),
		mk(KindRendezvous, "path", Outcome{Canceled: true}, false),
	}, nil)
	if interrupted.OK() {
		t.Fatal("interrupted sweep (canceled cells, no oracle failures) claims OK")
	}
	var rv *GroupStats
	for i := range r.Group {
		if strings.HasPrefix(r.Group[i].Group, "rendezvous/") {
			rv = &r.Group[i]
		}
	}
	if rv == nil || rv.Runs != 3 || rv.Met != 2 || rv.MinCost != 10 || rv.MaxCost != 30 || rv.MeanCost() != 20 {
		t.Fatalf("rendezvous group stats: %+v", rv)
	}
	tbl := r.Table()
	for _, want := range []string{"agg", "TOTAL", "rendezvous/path-4", "FAIL", "agg-seed#3"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

// referenceMatrix holds the specs whose expansion must match the
// reference expander's (expand_ref_test.go) cell for cell: every
// built-in graph kind, shuffled axes, axes that share an axis label,
// bare and parameterized adversaries, all five kinds (certify cells
// skip the adversary axis, ESST cells the label axis) and start and
// label pairs above 1.
func referenceMatrix() map[string]Spec {
	advs := []string{"", "avoider", "random", "random:7", "latewake:50", "biased:3,1"}
	return map[string]Spec{
		"every-graph-kind": {
			Name: "every-graph-kind", Seed: "ref/every-kind",
			Graphs: []GraphAxis{
				{Kind: "path", Sizes: []int{3, 5}},
				{Kind: "ring", Sizes: []int{4}, Shuffle: true},
				{Kind: "star", Sizes: []int{5}},
				{Kind: "clique", Sizes: []int{4}},
				{Kind: "complete", Sizes: []int{5}},
				{Kind: "bintree", Sizes: []int{6}},
				{Kind: "tree", Sizes: []int{6}, Seed: 3},
				{Kind: "random", Sizes: []int{7}, P: 0.4},
				{Kind: "random", Sizes: []int{8}, P: 0.6, Shuffle: true},
				{Kind: "grid", Rows: 2, Cols: 3},
				{Kind: "torus", Rows: 3, Cols: 3, Shuffle: true},
				{Kind: "hypercube", Sizes: []int{3}},
				{Kind: "lollipop", Rows: 3, Cols: 2},
				{Kind: "petersen"},
				{Kind: "petersen", Shuffle: true},
			},
			StartPairs: 2, LabelPairs: 3, Adversaries: advs, Budget: 500, Moves: 40,
		},
		"shared-axis-labels": {
			Seed: "ref/shared",
			Graphs: []GraphAxis{
				{Kind: "random", Sizes: []int{6}, P: 0.3},
				{Kind: "random", Sizes: []int{6}, P: 0.5, Seed: 11},
				{Kind: "ring", Sizes: []int{5}},
				{Kind: "ring", Sizes: []int{5}, Seed: 2},
				{Kind: "ring", Sizes: []int{5}, Shuffle: true},
			},
			StartPairs: 3, LabelPairs: 2, Adversaries: advs, Budget: 100,
		},
		"bare-random-only": {
			Seed:        "ref/random",
			Kinds:       []string{KindRendezvous, KindESST},
			Graphs:      []GraphAxis{{Kind: "star", Sizes: []int{4, 6}}},
			StartPairs:  4,
			LabelPairs:  4,
			Adversaries: []string{"random"},
			Budget:      100,
		},
		"certify-only": {
			Seed:       "ref/certify",
			Kinds:      []string{KindCertify},
			Graphs:     []GraphAxis{{Kind: "path", Sizes: []int{4, 6}}, {Kind: "grid", Rows: 2, Cols: 2}},
			StartPairs: 3, LabelPairs: 2,
		},
		"rendezvous-long": rendezvousLongShaped(),
	}
}

// rendezvousLongShaped is one campaign of perfbench's rendezvous-long
// workload: 80 cells on eight graphs, one start and label pair each.
func rendezvousLongShaped() Spec {
	return Spec{
		Name:  "rendezvous-long",
		Seed:  "rendezvous-long/3",
		Kinds: []string{KindRendezvous, KindBaseline},
		Graphs: []GraphAxis{
			{Kind: "path", Sizes: []int{5}},
			{Kind: "ring", Sizes: []int{6}},
			{Kind: "star", Sizes: []int{5}},
			{Kind: "clique", Sizes: []int{6}},
			{Kind: "tree", Sizes: []int{5}},
			{Kind: "grid", Rows: 2, Cols: 4},
			{Kind: "hypercube", Sizes: []int{3}},
			{Kind: "petersen"},
		},
		Adversaries: []string{"", "avoider", "random:1234567", "latewake:50", "biased:3,1"},
		Budget:      200000,
	}
}

// requireWalkMatchesReference walks [lo, hi) with both expanders and
// requires the same cells, or the same error.
func requireWalkMatchesReference(t *testing.T, name string, spec Spec, lo, hi int) {
	t.Helper()
	var got, want []Cell
	gerr := WalkRange(spec, lo, hi, func(c Cell) bool { got = append(got, c); return true })
	werr := referenceWalkRange(spec, lo, hi, func(c Cell) bool { want = append(want, c); return true })
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%s [%d, %d): error %v, reference %v", name, lo, hi, gerr, werr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s [%d, %d): %d cells, reference %d", name, lo, hi, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s [%d, %d): cell %d differs:\n got %+v\nwant %+v", name, lo, hi, want[i].Index, got[i], want[i])
		}
	}
}

// TestWalkMatchesReference pins the expander to the fmt-based reference
// over the matrix, on whole walks and on ranges that start mid-campaign
// (whose memos start empty at the range's first cell).
func TestWalkMatchesReference(t *testing.T) {
	for name, spec := range referenceMatrix() {
		n, err := Count(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range [][2]int{{0, n}, {1, n}, {n / 3, 2 * n / 3}, {n/2 + 1, n}, {n - 1, n}} {
			requireWalkMatchesReference(t, name, spec, r[0], r[1])
		}
	}
	for _, gp := range []registry.GraphSpec{
		{Kind: "grid", Rows: -2, Cols: 3}, {Kind: "ring", N: -4, Shuffle: true}, {Kind: "petersen"}, {},
	} {
		if got, want := axisLabel(gp), referenceAxisLabel(gp); got != want {
			t.Errorf("axisLabel(%+v) = %q, reference %q", gp, got, want)
		}
	}
	for _, idx := range []int{0, 9, 10, 99, 100, MaxCells, -1} {
		if got, want := CellSeed("ü#%/", idx), referenceCellSeed("ü#%/", idx); got != want {
			t.Errorf("CellSeed(%d) = %q, reference %q", idx, got, want)
		}
	}
}

// FuzzWalkMatchesReference fuzzes the seed string, which every cell
// seed, draw key and per-cell adversary seed embeds, the axis sizes and
// the first cell of the range.
func FuzzWalkMatchesReference(f *testing.F) {
	f.Add("nightly", 5, 2, 2, 0)
	f.Add("a#b%c/d", 4, 1, 3, 7)
	f.Add("ünïcødé/#%d", 7, 3, 1, 40)
	f.Add("\xff\x00/start1/label2", 3, 4, 4, 200)
	f.Fuzz(func(t *testing.T, seed string, n, starts, labels, lo int) {
		clamp := func(v, min, max int) int {
			if v < 0 {
				v = -v
			}
			return min + v%(max-min+1)
		}
		n, starts, labels = clamp(n, 3, 9), clamp(starts, 1, 4), clamp(labels, 1, 4)
		spec := Spec{
			Seed: seed,
			Graphs: []GraphAxis{
				{Kind: "path", Sizes: []int{n}},
				{Kind: "ring", Sizes: []int{n}, Shuffle: true},
				{Kind: "random", Sizes: []int{n}, P: 0.5},
				{Kind: "random", Sizes: []int{n}, P: 0.7, Seed: int64(n)},
				{Kind: "grid", Rows: 2, Cols: n / 2},
				{Kind: "petersen"},
			},
			StartPairs:  starts,
			LabelPairs:  labels,
			Adversaries: []string{"", "random", "avoider", "random:9"},
			Budget:      100,
		}
		total, err := Count(spec)
		if err != nil {
			requireWalkMatchesReference(t, "fuzz", spec, 0, MaxCells)
			return
		}
		requireWalkMatchesReference(t, "fuzz", spec, clamp(lo, 0, total), total)
		if got, want := hash64(seed), referenceHash64(seed); got != want {
			t.Fatalf("hash64(%q) = %d, reference %d", seed, got, want)
		}
	})
}

// TestWalkAllocsPerCell holds the expander's allocations per cell on a
// rendezvous-long-shaped campaign: a cell allocates its seed, ID,
// starts and labels, and nothing is formatted on a memo hit. The
// ceiling is twice the median of five runs on one machine (the
// fmt-based expander read 20.7).
func TestWalkAllocsPerCell(t *testing.T) {
	spec := rendezvousLongShaped()
	n, err := Count(spec)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := Walk(spec, func(Cell) bool { return true }); err != nil {
			t.Fatal(err)
		}
	})
	perCell := allocs / float64(n)
	t.Logf("Walk: %.0f allocations over %d cells: %.2f per cell", allocs, n, perCell)
	if perCell > 10 {
		t.Errorf("Walk allocates %.2f times per cell, ceiling 10", perCell)
	}
}
