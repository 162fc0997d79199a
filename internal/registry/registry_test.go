package registry

import (
	"strings"
	"testing"

	"meetpoly/internal/graph"
)

func TestBuiltinGraphKindsRegistered(t *testing.T) {
	for _, name := range []string{"path", "ring", "star", "clique", "complete",
		"bintree", "tree", "random", "grid", "torus", "hypercube", "lollipop", "petersen"} {
		if _, ok := LookupGraph(name); !ok {
			t.Errorf("built-in graph kind %q not registered", name)
		}
	}
	// Aliases resolve to the same entry.
	a, _ := LookupGraph("clique")
	b, _ := LookupGraph("complete")
	if a != b {
		t.Error("clique and complete resolve to different entries")
	}
	names := GraphNames()
	if len(names) < 13 {
		t.Errorf("GraphNames lists %d kinds, want >= 13", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("GraphNames not sorted: %v", names)
		}
	}
}

func TestRegisterGraphRejects(t *testing.T) {
	build := func(p GraphSpec) (*graph.Graph, error) { return graph.Ring(3), nil }
	if err := RegisterGraph(GraphKind{Name: "", Build: build}); err == nil {
		t.Error("nameless kind accepted")
	}
	if err := RegisterGraph(GraphKind{Name: "buildless"}); err == nil {
		t.Error("kind without Build accepted")
	}
	if err := RegisterGraph(GraphKind{Name: "ring", Build: build}); err == nil {
		t.Error("duplicate primary name accepted")
	}
	if err := RegisterGraph(GraphKind{Name: "fresh-but-alias-dup", Aliases: []string{"complete"}, Build: build}); err == nil {
		t.Error("duplicate alias accepted")
	}
	if _, ok := LookupGraph("fresh-but-alias-dup"); ok {
		t.Error("rejected registration left a partial entry behind")
	}
}

func TestGraphNodeCount(t *testing.T) {
	for _, tc := range []struct {
		kind            string
		n, rows, cols   int
		want            int
		wantErrContains string
	}{
		{kind: "ring", n: 64, want: 64},
		{kind: "ring", n: MaxSpecNodes + 1, wantErrContains: "spec cap"},
		{kind: "grid", rows: 3, cols: 4, want: 12},
		{kind: "grid", rows: 64, cols: 64, wantErrContains: "spec cap"},
		{kind: "lollipop", rows: 5, cols: 3, want: 8},
		{kind: "lollipop", rows: 1 << 62, cols: 1 << 62, wantErrContains: "spec cap"},
		{kind: "hypercube", n: 4, want: 16},
		{kind: "hypercube", n: 12, wantErrContains: "cap"},
		{kind: "hypercube", n: 0, want: 0},
		{kind: "petersen", want: 10},
	} {
		k, ok := LookupGraph(tc.kind)
		if !ok {
			t.Fatalf("%s is not registered", tc.kind)
		}
		got, err := k.NodeCount(tc.n, tc.rows, tc.cols)
		if tc.wantErrContains != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErrContains) {
				t.Errorf("NodeCount(%s, %d, %d, %d): err = %v, want containing %q",
					tc.kind, tc.n, tc.rows, tc.cols, err, tc.wantErrContains)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("NodeCount(%s, %d, %d, %d) = %d, %v; want %d",
				tc.kind, tc.n, tc.rows, tc.cols, got, err, tc.want)
		}
	}
}

func TestKindMetaIdempotentRegistration(t *testing.T) {
	m, ok := LookupKindMeta("certify")
	if !ok {
		t.Fatal("certify metadata missing")
	}
	if m.UsesAdversary || m.UsesBudget || !m.UsesMoves || !m.Labeled {
		t.Fatalf("certify metadata wrong: %+v", m)
	}
	// Identical re-registration (the root package attaching runners
	// through the public path) is a no-op...
	if err := RegisterKindMeta(m); err != nil {
		t.Errorf("identical re-registration rejected: %v", err)
	}
	// ...but conflicting metadata is an error.
	m.Labeled = false
	if err := RegisterKindMeta(m); err == nil {
		t.Error("conflicting re-registration accepted")
	}
	if got, _ := LookupKindMeta("certify"); !got.Labeled {
		t.Error("conflicting registration mutated the stored metadata")
	}

	order := BuiltinKinds()
	want := []string{"rendezvous", "baseline", "esst", "sgl", "certify"}
	if len(order) != len(want) {
		t.Fatalf("BuiltinKinds = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("BuiltinKinds order = %v, want %v", order, want)
		}
	}
}

func TestAdversaryMetaIdempotentRegistration(t *testing.T) {
	m, ok := LookupAdversaryMeta("random")
	if !ok || !m.PerCellSeed {
		t.Fatalf("random metadata wrong: %+v, ok=%v", m, ok)
	}
	if err := RegisterAdversaryMeta(m); err != nil {
		t.Errorf("identical re-registration rejected: %v", err)
	}
	m.PerCellSeed = false
	if err := RegisterAdversaryMeta(m); err == nil {
		t.Error("conflicting re-registration accepted")
	}
	if _, ok := LookupAdversaryMeta("latewake"); !ok {
		t.Error("latewake metadata missing")
	}
	if _, ok := LookupAdversaryMeta(""); ok {
		t.Error("empty adversary name has metadata; it should be parser-only")
	}
}
