package meetpoly

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"meetpoly/internal/campaign"
	"meetpoly/internal/uxs"
)

// acceptanceSpec is the full-coverage campaign: all five scenario kinds,
// eight graph builders, every adversary spec family, two start pairs and
// two label pairs per cell — >= 1000 generated scenarios.
func acceptanceSpec() SweepSpec {
	return SweepSpec{
		Name: "acceptance",
		Seed: "acceptance-v1",
		Graphs: []SweepGraphAxis{
			{Kind: "path", Sizes: []int{3, 4, 5}},
			{Kind: "ring", Sizes: []int{3, 4, 5}},
			{Kind: "star", Sizes: []int{4, 5}},
			{Kind: "clique", Sizes: []int{4, 5}},
			{Kind: "bintree", Sizes: []int{4, 5}},
			{Kind: "tree", Sizes: []int{4, 5}},
			{Kind: "random", Sizes: []int{4, 5}},
			{Kind: "grid", Rows: 2, Cols: 3},
		},
		StartPairs:  2,
		LabelPairs:  2,
		Adversaries: []string{"", "avoider", "random", "biased", "latewake:50"},
		Budget:      4000,
		Moves:       120,
	}
}

// smokeSpec loads the tiny sweep CI runs with oracles on — the same
// file the campaign-smoke job feeds rvsweep, so the test and the CI job
// cannot drift apart.
func smokeSpec(t *testing.T) SweepSpec {
	t.Helper()
	spec, err := LoadSweepSpecFile("testdata/campaign-smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSweepSmoke(t *testing.T) {
	eng := NewEngine(WithMaxN(5), WithSeed(1))
	rep, err := eng.Sweep(context.Background(), smokeSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("smoke sweep has oracle failures:\n%s", rep.Table())
	}
	if rep.Met == 0 {
		t.Fatal("smoke sweep met nothing")
	}
	if rep.Cells != rep.Met+rep.Ex+rep.Canc+rep.Other {
		t.Fatalf("cells unaccounted for: %+v", rep)
	}
	if rep.Other != 0 {
		t.Fatalf("smoke sweep produced unclassified outcomes: %+v", rep)
	}
}

// TestSweepAcceptance is the acceptance criterion for the campaign
// subsystem: >= 1000 generated scenarios across all five kinds, >= 6
// graph builders and every adversary spec, with every run checked
// against the paper-bound oracle suite.
func TestSweepAcceptance(t *testing.T) {
	spec := acceptanceSpec()
	cells, scs, err := ExpandSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) < 1000 {
		t.Fatalf("campaign generated %d scenarios, want >= 1000", len(cells))
	}
	kinds, builders, advs := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for i, c := range cells {
		kinds[c.Kind] = true
		builders[c.Graph.Kind] = true
		adv := c.Adversary
		if j := strings.IndexByte(adv, ':'); j >= 0 {
			adv = adv[:j]
		}
		advs[adv] = true
		// Every expanded cell must be a valid scenario.
		if err := scs[i].Validate(); err != nil {
			t.Fatalf("cell %s expands to an invalid scenario: %v", c.Seed, err)
		}
	}
	if len(kinds) != 5 {
		t.Fatalf("campaign covers kinds %v, want all five", kinds)
	}
	if len(builders) < 6 {
		t.Fatalf("campaign covers %d graph builders, want >= 6", len(builders))
	}
	for _, want := range []string{"", "avoider", "random", "biased", "latewake"} {
		if !advs[want] {
			t.Fatalf("campaign misses adversary family %q (has %v)", want, advs)
		}
	}

	if testing.Short() {
		t.Skip("short mode: expansion validated, skipping the full execution")
	}
	eng := NewEngine(WithCatalog(uxs.NewVerified(uxs.DefaultFamily(6), 1)))
	rep, err := eng.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("acceptance sweep has oracle failures:\n%s", rep.Table())
	}
	if rep.Cells != len(cells) {
		t.Fatalf("report covers %d of %d cells", rep.Cells, len(cells))
	}
	if rep.Met == 0 || rep.Met+rep.Ex+rep.Canc+rep.Other != rep.Cells || rep.Other != 0 {
		t.Fatalf("unexpected outcome totals: %+v", rep)
	}
	t.Logf("acceptance sweep: %d cells, %d met, %d exhausted", rep.Cells, rep.Met, rep.Ex)
}

// failEvens is an injected oracle that rejects every even-indexed met
// run — a deliberate bug generator for the replay loop.
var failEvens = campaign.OracleFunc{ID: "inject-even", F: func(c campaign.Cell, o campaign.Outcome) error {
	if o.Met && c.Index%2 == 0 {
		return fmt.Errorf("injected failure at index %d", c.Index)
	}
	return nil
}}

// TestSweepInjectedOracleReplays: a failing oracle's report must carry
// seed strings from which ReplayCell reproduces the exact failure.
func TestSweepInjectedOracleReplays(t *testing.T) {
	eng := NewEngine(WithMaxN(5), WithSeed(1))
	spec := smokeSpec(t)
	rep, err := eng.SweepWithOracles(context.Background(), spec, failEvens)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Failures) == 0 {
		t.Fatal("injected oracle produced no failures")
	}
	fail := rep.Failures[0]
	if fail.Failures[0].Oracle != "inject-even" {
		t.Fatalf("unexpected failing oracle: %+v", fail.Failures)
	}
	// Reproduce from nothing but the spec and the reported seed string.
	replayed, err := eng.ReplayCellWithOracles(context.Background(), spec, fail.Cell.Seed, failEvens)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Cell.ID != fail.Cell.ID || replayed.Cell.Index != fail.Cell.Index {
		t.Fatalf("replay resolved a different cell: %+v vs %+v", replayed.Cell, fail.Cell)
	}
	if !replayed.Failed() || replayed.Failures[0].Oracle != "inject-even" {
		t.Fatalf("replay did not reproduce the failure: %+v", replayed)
	}
	if replayed.Outcome.Met != fail.Outcome.Met || replayed.Outcome.Cost != fail.Outcome.Cost {
		t.Fatalf("replayed outcome diverged: %+v vs %+v", replayed.Outcome, fail.Outcome)
	}
	// A foreign seed string must be rejected, not misresolved.
	if _, err := eng.ReplayCell(context.Background(), spec, "other#0"); err == nil {
		t.Fatal("replay accepted a seed from another campaign")
	}
}

func TestSweepSpecJSONRoundTrip(t *testing.T) {
	spec := acceptanceSpec()
	data, err := SweepSpecJSON(spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := SweepSpecFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := ExpandSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ExpandSweep(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("round-tripped spec expands to %d cells, original %d", len(b), len(a))
	}
	for i := range a {
		if a[i].Seed != b[i].Seed || a[i].ID != b[i].ID {
			t.Fatalf("cell %d diverged after round trip", i)
		}
	}
	if _, err := SweepSpecFromJSON([]byte(`{"seed":""}`)); err == nil {
		t.Fatal("accepted a spec without seed/graphs")
	}
	if _, err := SweepSpecFromJSON([]byte(`{broken`)); err == nil {
		t.Fatal("accepted malformed JSON")
	}
}
