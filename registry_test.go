package meetpoly

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"meetpoly/internal/graph"
	"meetpoly/internal/sched"
)

// The test extension suite: a custom graph kind, two custom adversary
// families (one composing a built-in strategy, one implementing the
// Adversary interface from scratch through the exported View), and a
// custom scenario kind. They register at test-binary init through the
// exact public path a third party would use, and the fuzz targets pick
// them up from the same registration.

// testWheel is the custom graph kind: a hub (node 0) joined to an
// outer cycle 1..n-1.
func buildTestWheel(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
	}
	for i := 1; i < n; i++ {
		j := i + 1
		if j == n {
			j = 1
		}
		b.AddEdge(i, j)
	}
	return b.Graph(fmt.Sprintf("testwheel-%d", n))
}

// probeResult is the custom kind's result payload, carried in
// Result.Custom.
type probeResult struct {
	Distance int
}

// favorAdversary prefers one agent whenever it can act — a from-scratch
// Adversary implementation over the exported View, proving a third
// party outside this module could write one.
type favorAdversary struct {
	fav int
	rr  sched.RoundRobin
}

func (f *favorAdversary) Next(v *View) (Event, bool) {
	if v.AnyDormant() {
		for i, n := 0, v.K(); i < n; i++ {
			if v.CanWake(i) {
				return Event{Kind: sched.EventWake, Agent: i}, true
			}
		}
	}
	if v.CanAdvance(f.fav) {
		return Event{Kind: sched.EventAdvance, Agent: f.fav}, true
	}
	return f.rr.Next(v)
}

func init() {
	if err := RegisterGraphKind(GraphKindDef{
		Kind:  "testwheel",
		Sized: true,
		CheckAxis: func(n, _, _ int) error {
			if n < 4 {
				return fmt.Errorf("testwheel needs size >= 4, got %d", n)
			}
			return nil
		},
		Build: func(spec GraphSpec) (*Graph, error) {
			if spec.N < 4 {
				return nil, fmt.Errorf("testwheel needs size >= 4, got %d", spec.N)
			}
			return buildTestWheel(spec.N), nil
		},
		Fingerprint: "testwheel/v1",
	}); err != nil {
		panic(err)
	}
	if err := RegisterGraphKind(GraphKindDef{
		Kind:         "testdefaults",
		Sized:        true,
		AxisDefaults: testDefaultsAxis,
		Build: func(spec GraphSpec) (*Graph, error) {
			testDefaultsBuilt.Store(spec, true)
			return graph.Ring(spec.N), nil
		},
	}); err != nil {
		panic(err)
	}
	if err := RegisterAdversary(AdversaryDef{
		Name:        "testflake",
		PerCellSeed: true,
		Parse: func(args AdversaryArgs) (Adversary, error) {
			seed := int64(7)
			if s := args.Rest(); s != "" {
				v, err := strconv.ParseInt(s, 10, 64)
				if err != nil {
					return nil, args.Errf("bad seed")
				}
				seed = v
			}
			return RandomAdversary(seed), nil
		},
	}); err != nil {
		panic(err)
	}
	if err := RegisterAdversary(AdversaryDef{
		Name: "testfavor",
		Parse: func(args AdversaryArgs) (Adversary, error) {
			fav := 0
			if s := args.Param(0); s != "" {
				v, err := strconv.Atoi(s)
				if err != nil || v < 0 {
					return nil, args.Errf("bad agent %q", s)
				}
				fav = v
			}
			if args.Agents > 0 && fav >= args.Agents {
				return nil, args.Errf("agent %d out of range for %d agents", fav, args.Agents)
			}
			return &favorAdversary{fav: fav}, nil
		},
	}); err != nil {
		panic(err)
	}
	if err := RegisterScenarioKind(ScenarioKindDef{
		Kind: "testprobe", Labeled: true, UsesAdversary: true, UsesBudget: true,
		Run: func(rc *ScenarioRunContext) (*Result, error) {
			// A deterministic "probe": the BFS distance between the two
			// starts, standing in for any custom algorithm. It resolves
			// its adversary and labels like a real kind would, but needs
			// no scheduler.
			sc := rc.Scenario
			d := rc.Graph.BFSDistances(sc.Starts[0])[sc.Starts[1]]
			return &Result{Scenario: sc, Custom: probeResult{Distance: d}}, nil
		},
		Outcome: func(res *Result, runErr error, o *SweepOutcome) {
			if pr, ok := res.Custom.(probeResult); ok && runErr == nil {
				o.Met = true
				o.Cost = pr.Distance
			}
		},
	}); err != nil {
		panic(err)
	}
}

// testDefaultsAxis is the "testdefaults" kind's AxisDefaults: it sets
// all three of P, Seed and Shuffle, with a seed no family default
// produces.
func testDefaultsAxis(spec *GraphSpec) {
	spec.P = 0.5
	spec.Seed = int64(100 + spec.N)
	spec.Shuffle = true
}

// testDefaultsBuilt records every spec the "testdefaults" kind's Build
// received.
var testDefaultsBuilt sync.Map // GraphSpec -> true

// TestCustomAxisDefaultsReachCells: every field a custom kind's
// AxisDefaults sets, Shuffle included, lands on each expanded cell's
// graph and reaches the kind's Build, and the cells are shuffled under
// that kind-chosen seed rather than the family shuffle seed.
func TestCustomAxisDefaultsReachCells(t *testing.T) {
	spec := SweepSpec{
		Seed:   "axis-defaults-v1",
		Kinds:  []string{"rendezvous", "esst"},
		Graphs: []SweepGraphAxis{{Kind: "testdefaults", Sizes: []int{4, 5}}},
		Budget: 2000,
	}
	cells, scs, err := ExpandSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		want := GraphSpec{Kind: "testdefaults", N: c.Graph.N}
		testDefaultsAxis(&want)
		if g := c.Graph; g.P != want.P || g.Seed != want.Seed || !g.Shuffle {
			t.Errorf("cell %s graph %+v lacks the axis defaults %+v", c.ID, g, want)
		}
	}
	rep, err := NewEngine(WithMaxN(4), WithSeed(1)).Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("sweep failed oracles:\n%s", rep.Table())
	}
	for i, sc := range scs {
		if _, ok := testDefaultsBuilt.Load(sc.Graph); !ok {
			t.Errorf("cell %s: Build never received its graph %+v", cells[i].ID, sc.Graph)
		}
	}
}

// customSweepSpec is the end-to-end campaign: the custom kind and a
// built-in side by side, on custom and built-in graphs, under custom
// and built-in adversaries.
func customSweepSpec() SweepSpec {
	return SweepSpec{
		Name:  "custom-e2e",
		Seed:  "custom-e2e-v1",
		Kinds: []string{"testprobe", "rendezvous"},
		Graphs: []SweepGraphAxis{
			{Kind: "testwheel", Sizes: []int{5, 6}},
			{Kind: "ring", Sizes: []int{5}},
		},
		StartPairs:  2,
		LabelPairs:  2,
		Adversaries: []string{"", "testflake", "testfavor:1"},
		Budget:      5000,
	}
}

// TestRegisteredCustomKindEndToEnd drives a custom graph kind, custom
// adversaries and a custom scenario kind through every execution
// surface: Run, RunBatch, Sweep, SweepStream, ReplayCell, and the
// prepared-scenario cache (hit ratio preserved — one build per unique
// graph, everything else cache hits).
func TestRegisteredCustomKindEndToEnd(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine(WithMaxN(4), WithSeed(1))

	sc := Scenario{
		Name:   "probe-one",
		Kind:   "testprobe",
		Graph:  GraphSpec{Kind: "testwheel", N: 6},
		Starts: []int{1, 3},
		Labels: []Label{2, 5},
		Budget: 100,
	}
	res, err := eng.Run(ctx, sc)
	if err != nil {
		t.Fatalf("Run of custom kind: %v", err)
	}
	pr, ok := res.Custom.(probeResult)
	if !ok {
		t.Fatalf("Result.Custom = %T, want probeResult", res.Custom)
	}
	// Hub-and-cycle: 1 and 3 are two apart on the outer cycle, and two
	// via the hub.
	if pr.Distance != 2 {
		t.Fatalf("probe distance = %d, want 2", pr.Distance)
	}

	// A custom adversary drives a BUILT-IN kind end to end.
	rv := Scenario{
		Name:      "rv-under-custom-adversary",
		Kind:      ScenarioRendezvous,
		Graph:     GraphSpec{Kind: "testwheel", N: 6},
		Starts:    []int{1, 4},
		Labels:    []Label{2, 5},
		Adversary: "testfavor:1",
		Budget:    500_000,
	}
	if _, err := eng.Run(ctx, rv); err != nil {
		t.Fatalf("rendezvous under custom adversary: %v", err)
	}

	// RunBatch mixes custom and built-in kinds.
	batch := eng.RunBatch(ctx, []Scenario{sc, rv, {
		Name:   "probe-invalid",
		Kind:   "testprobe",
		Graph:  GraphSpec{Kind: "testwheel", N: 3}, // under the kind's floor
		Starts: []int{0, 1},
		Labels: []Label{1, 2},
		Budget: 10,
	}})
	if batch[0].Err != nil || batch[1].Err != nil {
		t.Fatalf("batch errors: %v / %v", batch[0].Err, batch[1].Err)
	}
	if !errors.Is(batch[2].Err, ErrInvalidScenario) {
		t.Fatalf("undersized custom graph: want ErrInvalidScenario, got %v", batch[2].Err)
	}

	// Sweep: a fresh engine so cache accounting is exact.
	sweepEng := NewEngine(WithMaxN(4), WithSeed(1))
	spec := customSweepSpec()
	total, err := CountSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sweepEng.Sweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells != total {
		t.Fatalf("sweep ran %d cells, expansion projects %d", rep.Cells, total)
	}
	if !rep.OK() {
		t.Fatalf("custom sweep failed oracles:\n%s", rep.Table())
	}
	// 3 unique graphs -> 3 cache misses (the pre-pass builds); every
	// per-cell preparation after that must hit.
	stats := sweepEng.CacheStats()
	if stats.Misses != 3 {
		t.Errorf("cache misses = %d, want 3 (one per unique graph)", stats.Misses)
	}
	if stats.Hits != int64(total) {
		t.Errorf("cache hits = %d, want %d (one per cell)", stats.Hits, total)
	}

	// The custom kind's cells carried labels, budget, and specialized
	// per-cell testflake seeds, exactly like a built-in's.
	var probeCell SweepCell
	found := false
	if err := WalkSweep(spec, func(c SweepCell) bool {
		if c.Kind == "testprobe" && strings.HasPrefix(c.Adversary, "testflake") {
			probeCell, found = c, true
			return false
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("no testprobe/testflake cell expanded")
	}
	if !strings.Contains(probeCell.Adversary, ":") {
		t.Errorf("bare custom PerCellSeed adversary was not specialized: %q", probeCell.Adversary)
	}
	if len(probeCell.Labels) != 2 || probeCell.Budget != 5000 {
		t.Errorf("custom cell missing label/budget axes: %+v", probeCell)
	}

	// ReplayCell reproduces a swept custom cell from its seed string
	// with the same outcome the stream reported.
	streamed := make(map[int]SweepCellResult, total)
	for cr, err := range sweepEng.SweepStream(ctx, spec) {
		if err != nil {
			t.Fatal(err)
		}
		streamed[cr.Cell.Index] = cr
	}
	if len(streamed) != total {
		t.Fatalf("stream yielded %d cells, want %d", len(streamed), total)
	}
	replayed, err := sweepEng.ReplayCell(ctx, spec, probeCell.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if got := streamed[probeCell.Index]; !reflect.DeepEqual(replayed.Outcome, got.Outcome) {
		t.Errorf("replayed outcome diverges from swept:\nreplay %+v\nsweep  %+v", replayed.Outcome, got.Outcome)
	}
}

// TestRegistryRejectsConflicts pins the registration contract:
// duplicate names fail, nil essentials fail, and the error is a plain
// error (no panics) so extensions can probe availability.
func TestRegistryRejectsConflicts(t *testing.T) {
	if err := RegisterGraphKind(GraphKindDef{Kind: "ring", Build: func(GraphSpec) (*Graph, error) { return nil, nil }}); err == nil {
		t.Error("re-registering built-in graph kind ring succeeded")
	}
	if err := RegisterGraphKind(GraphKindDef{Kind: "nobuild"}); err == nil {
		t.Error("graph kind without Build succeeded")
	}
	if err := RegisterAdversary(AdversaryDef{Name: "random", Parse: func(AdversaryArgs) (Adversary, error) { return nil, nil }}); err == nil {
		t.Error("re-registering built-in adversary random succeeded")
	}
	if err := RegisterAdversary(AdversaryDef{Name: "noparse"}); err == nil {
		t.Error("adversary without Parse succeeded")
	}
	// Rejection is all-or-nothing: a duplicate ALIAS must not leave the
	// fresh primary name registered.
	if err := RegisterAdversary(AdversaryDef{
		Name: "fresh-primary", Aliases: []string{"avoider"},
		Parse: func(AdversaryArgs) (Adversary, error) { return RoundRobin(), nil },
	}); err == nil {
		t.Error("adversary with duplicate alias succeeded")
	}
	if _, err := ParseAdversary("fresh-primary"); !errors.Is(err, ErrInvalidScenario) {
		t.Errorf("rejected registration left 'fresh-primary' parseable (err=%v)", err)
	}
	if err := RegisterScenarioKind(ScenarioKindDef{Kind: ScenarioRendezvous, Run: func(*ScenarioRunContext) (*Result, error) { return nil, nil }}); err == nil {
		t.Error("re-registering built-in scenario kind rendezvous succeeded")
	}
	if err := RegisterScenarioKind(ScenarioKindDef{Kind: "norun"}); err == nil {
		t.Error("scenario kind without Run succeeded")
	}
	// Conflicting campaign metadata under an existing kind name must be
	// rejected even though the runner slot is free.
	if err := RegisterScenarioKind(ScenarioKindDef{
		Kind: "testprobe", Labeled: false,
		Run: func(*ScenarioRunContext) (*Result, error) { return nil, nil },
	}); err == nil {
		t.Error("conflicting re-registration of testprobe succeeded")
	}
}

// TestGraphSpecString pins the compact spec rendering used in error
// messages.
func TestGraphSpecString(t *testing.T) {
	for _, tc := range []struct {
		spec GraphSpec
		want string
	}{
		{GraphSpec{Kind: "ring", N: 64}, "ring/64"},
		{GraphSpec{Kind: "ring", N: 64, Shuffle: true, Seed: 7}, "ring/64?shuffle=7"},
		{GraphSpec{Kind: "grid", Rows: 3, Cols: 4}, "grid/3x4"},
		{GraphSpec{Kind: "petersen"}, "petersen"},
		{GraphSpec{Kind: "random", N: 12, P: 0.4, Seed: 3}, "random/12?p=0.4&seed=3"},
		{GraphSpec{Kind: "tree", N: 5, Seed: 9}, "tree/5?seed=9"},
		{GraphSpec{Kind: "path", N: 4, Shuffle: true}, "path/4?shuffle=0"},
	} {
		if got := tc.spec.String(); got != tc.want {
			t.Errorf("GraphSpec%+v.String() = %q, want %q", tc.spec, got, tc.want)
		}
	}
	// Build errors carry the compact form, not a %+v field dump.
	_, err := GraphSpec{Kind: "ring", N: MaxSpecNodes + 1}.Build()
	if err == nil || !strings.Contains(err.Error(), "ring/2049") {
		t.Errorf("build error does not use the compact spec string: %v", err)
	}
	if err != nil && strings.Contains(err.Error(), "Shuffle:false") {
		t.Errorf("build error still dumps zero-valued fields: %v", err)
	}
}

// TestLateWakeAgentParameter pins the latewake:<hold>:<agent> syntax:
// any agent can be starved, the starved index is validated against the
// scenario, and the default (agent 0) is unchanged.
func TestLateWakeAgentParameter(t *testing.T) {
	adv, err := ParseAdversary("latewake:75:1")
	if err != nil {
		t.Fatal(err)
	}
	lw, ok := adv.(*sched.LateWake)
	if !ok || lw.Hold != 75 || lw.Primary != 1 {
		t.Fatalf("latewake:75:1 parsed to %#v", adv)
	}
	adv, err = ParseAdversary("late-wake:10")
	if err != nil {
		t.Fatal(err)
	}
	if lw := adv.(*sched.LateWake); lw.Hold != 10 || lw.Primary != 0 {
		t.Fatalf("late-wake:10 parsed to %#v", lw)
	}
	for _, bad := range []string{"latewake:x", "latewake:-1", "latewake:5:x", "latewake:5:-2", "latewake:1:2:3"} {
		if _, err := ParseAdversary(bad); !errors.Is(err, ErrInvalidScenario) {
			t.Errorf("%q: want ErrInvalidScenario, got %v", bad, err)
		}
	}

	// The starved agent must exist in the scenario.
	eng := NewEngine(WithMaxN(4), WithSeed(1))
	base := Scenario{
		Kind:   ScenarioRendezvous,
		Graph:  GraphSpec{Kind: "path", N: 4},
		Starts: []int{0, 3}, Labels: []Label{2, 5},
		Budget: 1_000_000,
	}
	out := base
	out.Adversary = "latewake:10:2"
	if _, err := eng.Run(context.Background(), out); !errors.Is(err, ErrInvalidScenario) {
		t.Errorf("latewake agent 2 of 2: want ErrInvalidScenario, got %v", err)
	}
	// Starving agent 1 (previously impossible: Primary was pinned to 0)
	// must still rendezvous — the woken agent's trajectory suffices.
	run := base
	run.Adversary = "latewake:50:1"
	res, err := eng.Run(context.Background(), run)
	if err != nil {
		t.Fatalf("latewake:50:1 run: %v", err)
	}
	if !res.Rendezvous.Met {
		t.Error("latewake:50:1 run did not meet")
	}
}
