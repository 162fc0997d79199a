package esst

import (
	"testing"

	"meetpoly/internal/graph"
	"meetpoly/internal/sched"
	"meetpoly/internal/uxs"
)

func testCat(t testing.TB, maxN int) uxs.Catalog {
	t.Helper()
	return uxs.NewVerified(uxs.DefaultFamily(maxN), 1)
}

// TestESSTTheorem21 is the main reproduction of Theorem 2.1: the
// procedure terminates, all edges are traversed, the terminating phase is
// at most 9n+3, and the cost respects the polynomial bound.
func TestESSTTheorem21(t *testing.T) {
	cat := testCat(t, 8)
	cases := []*graph.Graph{
		graph.Path(2),
		graph.Path(5),
		graph.Ring(4),
		graph.Ring(7),
		graph.Star(6),
		graph.Complete(5),
		graph.BinaryTree(7),
		graph.RandomTree(8, 3),
		graph.RandomConnected(8, 0.3, 57),
	}
	for _, g := range cases {
		if g.N() > 8 {
			t.Fatalf("%s exceeds catalog family", g)
		}
		ext := cat.(*uxs.Verified)
		if !ext.Covers(g) {
			ext.Extend(g)
		}
		for _, startTok := range []int{0, g.N() - 1} {
			startEx := (startTok + 1) % g.N()
			res, err := Explore(sched.RunOpts{}, g, startEx, startTok, cat, &sched.RoundRobin{}, 50_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Done {
				t.Errorf("%s (token at %d): ESST did not terminate", g, startTok)
				continue
			}
			if !res.Covered {
				t.Errorf("%s: terminated in phase %d without covering all edges", g, res.Phase)
			}
			if res.Phase > 9*g.N()+3 {
				t.Errorf("%s: phase %d exceeds 9n+3 = %d", g, res.Phase, 9*g.N()+3)
			}
			if res.EUpper < g.N()-1 {
				t.Errorf("%s: E(n) = %d is not an upper bound proxy for n = %d", g, res.EUpper, g.N())
			}
			if bound := CostBound(cat, res.Phase); res.Cost > bound {
				t.Errorf("%s: cost %d exceeds bound %d for phase %d", g, res.Cost, bound, res.Phase)
			}
		}
	}
}

// TestESSTDeterministic: same configuration, same cost and phase.
func TestESSTDeterministic(t *testing.T) {
	cat := testCat(t, 5)
	run := func() *Result {
		res, err := Explore(sched.RunOpts{}, graph.Ring(5), 1, 3, cat, &sched.RoundRobin{}, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cost != b.Cost || a.Phase != b.Phase {
		t.Errorf("nondeterministic ESST: (%d,%d) vs (%d,%d)", a.Cost, a.Phase, b.Cost, b.Phase)
	}
}

// TestESSTAdversaryIndependent: the token never moves, so the schedule
// cannot change the explorer's walk — only its interleaving. Cost and
// phase must be identical under every adversary.
func TestESSTAdversaryIndependent(t *testing.T) {
	cat := testCat(t, 5)
	g := graph.Star(5)
	var ref *Result
	for name, mk := range map[string]func() sched.Adversary{
		"round-robin": func() sched.Adversary { return &sched.RoundRobin{} },
		"random":      func() sched.Adversary { return sched.NewRandom(11) },
		"avoider":     func() sched.Adversary { return &sched.Avoider{} },
	} {
		res, err := Explore(sched.RunOpts{}, g, 1, 0, cat, mk(), 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Done {
			t.Fatalf("%s: did not terminate", name)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Cost != ref.Cost || res.Phase != ref.Phase {
			t.Errorf("%s: cost/phase (%d,%d) differ from reference (%d,%d)",
				name, res.Cost, res.Phase, ref.Cost, ref.Phase)
		}
	}
}

// TestESSTPhaseGrowsWithDegree: cleanliness requires i-1 >= max degree,
// so high-degree graphs cannot terminate in very early phases.
func TestESSTPhaseGrowsWithDegree(t *testing.T) {
	cat := testCat(t, 8)
	ext := cat.(*uxs.Verified)
	g := graph.Star(8) // centre degree 7: phases 3 and 6 are never clean
	if !ext.Covers(g) {
		ext.Extend(g)
	}
	res, err := Explore(sched.RunOpts{}, g, 1, 0, cat, &sched.RoundRobin{}, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("did not terminate")
	}
	if res.Phase < 9 {
		t.Errorf("star-8 terminated in phase %d despite max degree 7", res.Phase)
	}
}

// TestExplorerPhaseCapAborts: on a star whose centre degree exceeds the
// phase cap, no phase is ever clean, so a capped explorer gives up
// without claiming success.
func TestExplorerPhaseCapAborts(t *testing.T) {
	cat := testCat(t, 6)
	ex := &Explorer{Cat: cat, MaxPhase: 3} // phase 3 needs max degree <= 2
	tok := &Token{}
	r, err := sched.NewRunner(sched.Config{
		Graph:          graph.Star(6), // centre degree 5: never clean at phase 3
		Starts:         []int{1, 2},
		Agents:         []sched.Agent{ex, tok},
		InitiallyAwake: []int{0, 1},
		MaxSteps:       1_000_000,
	}, &sched.RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Run()
	if ex.Done {
		t.Error("explorer claimed success despite unclean phases")
	}
	if ex.Cost == 0 {
		t.Error("explorer never walked")
	}
}

// TestCoversAllEdgesHelper sanity-checks the replay helper.
func TestCoversAllEdgesHelper(t *testing.T) {
	g := graph.Path(3)
	if CoversAllEdges(g, 0, []int{0}) {
		t.Error("single edge cannot cover a 2-edge path")
	}
	// 0 -> 1 -> 2 covers both edges.
	if !CoversAllEdges(g, 0, []int{0, 1}) {
		t.Error("full sweep not recognized")
	}
}

// TestTokenIsInert verifies the token halts immediately and counts
// meetings.
func TestTokenIsInert(t *testing.T) {
	g := graph.Path(3)
	tok := &Token{Payload: "tok"}
	w := &sched.Walker{Stepper: portScript(0, 1), StopAtMeeting: true}
	r, err := sched.NewRunner(sched.Config{
		Graph:          g,
		Starts:         []int{0, 2},
		Agents:         []sched.Agent{w, tok},
		InitiallyAwake: []int{0, 1},
		MaxSteps:       1000,
	}, &sched.RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sum := r.Run()
	if sum.FirstMeeting == nil {
		t.Fatal("walker never reached the token")
	}
	if tok.MeetCount() != 1 {
		t.Errorf("token met %d times, want 1", tok.MeetCount())
	}
	if sum.Traversals[1] != 0 {
		t.Error("token moved")
	}
}

// script is a minimal fixed-port stepper for tests.
type script []int

func (s *script) Next(deg, entry int) (int, bool) {
	if len(*s) == 0 {
		return 0, false
	}
	p := (*s)[0]
	*s = (*s)[1:]
	return p % deg, true
}

func portScript(ports ...int) *script {
	s := script(ports)
	return &s
}
