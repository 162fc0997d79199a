package meetpoly

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenSweepSpec is the registry-differential campaign: every built-in
// scenario kind, graph cells from every axis shape (sized, fixed,
// seeded families, shuffled ports) and every built-in adversary family,
// so the whole dispatch surface — graph builders, adversary parsers,
// kind runners, outcome classification and oracle judging — lands in
// one deterministic report.
func goldenSweepSpec() SweepSpec {
	return SweepSpec{
		Name: "registry-golden",
		Seed: "registry-golden-v1",
		Graphs: []SweepGraphAxis{
			{Kind: "path", Sizes: []int{3, 4}},
			{Kind: "ring", Sizes: []int{5}},
			{Kind: "grid", Rows: 2, Cols: 3},
			{Kind: "tree", Sizes: []int{5}},
			{Kind: "random", Sizes: []int{4}},
			{Kind: "star", Sizes: []int{4}, Shuffle: true},
		},
		StartPairs:  2,
		LabelPairs:  2,
		Adversaries: []string{"", "avoider", "random", "latewake:50", "biased:3,1"},
		Budget:      3000,
		Moves:       60,
	}
}

// TestSweepGoldenRegistryDifferential pins registry-dispatched built-ins
// byte-identical to the pre-refactor sweep engine: the committed golden
// report in testdata/sweep-golden.json was generated by the switch-based
// dispatch this repository used before kinds, graphs and adversaries
// moved onto registries, and every later change must reproduce it
// exactly — outcome classification, oracle verdicts, grouped cost
// statistics and the total event count included. Regenerate (only for
// an intentional, explained behaviour change) with:
//
//	go test -run TestSweepGoldenRegistryDifferential -update-golden .
func TestSweepGoldenRegistryDifferential(t *testing.T) {
	eng := NewEngine(WithMaxN(6), WithSeed(1))
	rep, err := eng.Sweep(context.Background(), goldenSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "sweep-golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cells)", path, rep.Cells)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-golden): %v", err)
	}
	if msg := firstDiff(got, want); msg != "" {
		t.Fatalf("sweep report diverges from the pre-refactor golden %s", msg)
	}
}

// TestSweepStreamGolden pins the NDJSON cell encoding: the line bytes
// `rvsweep -stream` prints, checkpoints store in results.ndjson, fleet
// workers upload and /v1/sweep streams. One worker makes completion
// order the expansion order. The golden is the output of
//
//	go run ./cmd/rvsweep -spec testdata/campaign-smoke.json -stream -parallelism 1
//
// and CI's campaign-smoke job diffs that command against it too.
func TestSweepStreamGolden(t *testing.T) {
	spec, err := LoadSweepSpecFile(filepath.Join("testdata", "campaign-smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(WithMaxN(6), WithSeed(1), WithParallelism(1))
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	for cr, err := range eng.SweepStream(context.Background(), spec) {
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(cr); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "campaign-smoke.stream.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if msg := firstDiff(got.Bytes(), want); msg != "" {
		t.Fatalf("NDJSON stream diverges from the golden %s", msg)
	}
}

// firstDiff locates the first line where got and want differ and shows
// it in context; it returns "" when they are equal.
func firstDiff(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	line := 0
	for line < len(gl) && line < len(wl) && bytes.Equal(gl[line], wl[line]) {
		line++
	}
	ctx := func(ls [][]byte) string {
		lo, hi := max(line-2, 0), min(line+3, len(ls))
		return string(bytes.Join(ls[lo:hi], []byte("\n")))
	}
	return fmt.Sprintf("at line %d:\n--- got ---\n%s\n--- want ---\n%s", line+1, ctx(gl), ctx(wl))
}
