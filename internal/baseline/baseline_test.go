package baseline

import (
	"math/big"
	"testing"

	"meetpoly/internal/core"
	"meetpoly/internal/graph"
	"meetpoly/internal/labels"
	"meetpoly/internal/sched"
	"meetpoly/internal/trajectory"
	"meetpoly/internal/uxs"
)

func testEnv(t testing.TB) *trajectory.Env {
	t.Helper()
	return trajectory.NewEnv(uxs.NewVerified(uxs.DefaultFamily(5), 1))
}

func TestRepetitionsAndCost(t *testing.T) {
	env := testEnv(t)
	n := 3
	p := int64(env.Catalog().P(n))
	r1 := Repetitions(env, n, 1)
	if want := 2*p + 1; r1.Int64() != want {
		t.Errorf("Repetitions(L=1) = %v, want %d", r1, want)
	}
	r2 := Repetitions(env, n, 2)
	if want := (2*p + 1) * (2*p + 1); r2.Int64() != want {
		t.Errorf("Repetitions(L=2) = %v, want %d", r2, want)
	}
	c1 := CostBound(env, n, 1)
	if want := (2*p + 1) * 2 * p; c1.Int64() != want {
		t.Errorf("CostBound(L=1) = %v, want %d", c1, want)
	}
}

func TestGuaranteeHolds(t *testing.T) {
	env := testEnv(t)
	for _, tc := range []struct {
		l1, l2 labels.Label
	}{{1, 2}, {2, 3}, {1, 5}, {3, 4}} {
		if !GuaranteeHolds(env, 4, tc.l1, tc.l2) {
			t.Errorf("guarantee fails for labels (%d,%d)", tc.l1, tc.l2)
		}
	}
}

func TestBaselineRendezvousMeets(t *testing.T) {
	env := testEnv(t)
	cases := []struct {
		g      *graph.Graph
		s1, s2 int
		l1, l2 labels.Label
	}{
		{graph.Path(2), 0, 1, 1, 2},
		{graph.Path(4), 0, 3, 1, 2},
		{graph.Star(4), 1, 3, 2, 1},
		{graph.ShufflePorts(graph.Ring(4), 4), 0, 2, 1, 2},
	}
	for _, tc := range cases {
		for name, mk := range map[string]func() sched.Adversary{
			"round-robin": func() sched.Adversary { return &sched.RoundRobin{} },
			"late-wake":   func() sched.Adversary { return &sched.LateWake{Primary: 0, Hold: 100} },
		} {
			n := tc.g.N()
			bound := new(big.Int).Add(CostBound(env, n, tc.l1), CostBound(env, n, tc.l2))
			res, err := core.Rendezvous(sched.RunOpts{}, tc.g, tc.s1, tc.s2, tc.l1, tc.l2,
				NewStepper(env, n, tc.l1), NewStepper(env, n, tc.l2), bound, mk(), 2_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Met {
				t.Errorf("%s/%s: baseline did not meet", tc.g, name)
				continue
			}
			if big.NewInt(int64(res.Meeting.Cost)).Cmp(res.Bound) > 0 {
				t.Errorf("%s/%s: cost %d exceeds bound %v", tc.g, name, res.Meeting.Cost, res.Bound)
			}
		}
	}
}

// TestBaselineStopsUnlikeCore: the baseline agent has a finite route: it
// halts after its repetitions. Verify the smaller agent halts when left
// alone, which is exactly why the larger must out-repeat its total cost.
func TestBaselineHaltsAfterBudget(t *testing.T) {
	env := testEnv(t)
	g := graph.Path(2)
	n := g.N()
	reps := Repetitions(env, n, 1)
	lenX := env.LenX(n)
	want := new(big.Int).Mul(reps, lenX)
	if !want.IsInt64() || want.Int64() > 500_000 {
		t.Skip("baseline route too long under this catalog")
	}
	tr, done := trajectory.Run(g, 0, NewStepper(env, n, 1), int(want.Int64())+10)
	if !done {
		t.Fatal("baseline stepper did not halt")
	}
	if int64(tr.Moves()) != want.Int64() {
		t.Errorf("baseline route %d moves, want %v", tr.Moves(), want)
	}
}

// TestCertifiedBaselineMeeting: on the 2-path the baseline's meeting is
// forced under every schedule; certify it exactly.
func TestCertifiedBaselineMeeting(t *testing.T) {
	env := testEnv(t)
	g := graph.Path(2)
	n := g.N()
	costSmall := CostBound(env, n, 1)
	if !costSmall.IsInt64() || costSmall.Int64() > 30_000 {
		t.Skip("route too long for certification under this catalog")
	}
	prefix := int(costSmall.Int64()) + 10
	mk := func(l labels.Label, start int) []int {
		tr, _ := trajectory.Run(g, start, NewStepper(env, n, l), prefix)
		return append([]int{start}, tr.Nodes...)
	}
	res, err := sched.Certify(mk(1, 0), mk(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Forced {
		t.Fatalf("baseline meeting not forced on 2-path: %v", res)
	}
}

func TestBaselineRejectsEqualLabels(t *testing.T) {
	env := testEnv(t)
	if _, err := core.Rendezvous(sched.RunOpts{}, graph.Path(2), 0, 1, 3, 3,
		NewStepper(env, 2, 3), NewStepper(env, 2, 3), nil, &sched.RoundRobin{}, 10); err == nil {
		t.Error("equal labels accepted")
	}
}

// TestExponentialGrowthMeasured pins the headline E3 shape on real
// executions: the baseline's route length grows by a factor 2P(n)+1 per
// unit of label VALUE.
func TestExponentialGrowthMeasured(t *testing.T) {
	env := testEnv(t)
	n := 2
	c1 := CostBound(env, n, 1)
	c2 := CostBound(env, n, 2)
	c3 := CostBound(env, n, 3)
	factor := int64(2*env.Catalog().P(n) + 1)
	r12 := new(big.Int).Div(c2, c1)
	r23 := new(big.Int).Div(c3, c2)
	if r12.Int64() != factor || r23.Int64() != factor {
		t.Errorf("growth factors %v,%v, want %d", r12, r23, factor)
	}
}

// TestStepperIsPeriodic pins the baseline's period, on which the
// engine's periodic decision rests: an agent's exit ports repeat with
// period |X(n)|, and it stands at its start after every multiple of it,
// until CostBound, where its route ends. Labels 1, 2, 3, 12, 44, 63 and
// 64 run on ring, path, star, clique and tree with 3–8 nodes, the 2×4
// grid, hypercube 3 and petersen, over min(CostBound, 60,000) moves.
// |X(n)| follows the catalog's generation, so the checks run on the
// family-6 catalog fresh and again after it is extended with the grid,
// the hypercube and petersen.
func TestStepperIsPeriodic(t *testing.T) {
	const walk = 60_000
	cat := uxs.NewVerified(uxs.DefaultFamily(6), 1)
	env := trajectory.NewEnv(cat)
	gs := []*graph.Graph{graph.Grid(4, 2), graph.Hypercube(3), graph.Petersen()}
	for n := 3; n <= 8; n++ {
		gs = append(gs, graph.Ring(n), graph.Path(n), graph.Star(n), graph.Complete(n),
			graph.RandomTree(n, uxs.DefaultTreeSeed(n)))
	}
	ports := make([]int, walk)
	ended := 0
	for gen := 0; gen < 2; gen++ {
		if gen == 1 {
			cat.Extend(gs[:3]...)
		}
		for _, g := range gs {
			n, start := g.N(), g.N()-1
			period := env.LenX(n)
			if want := 2 * int64(cat.P(n)); period.Int64() != want {
				t.Fatalf("generation %d, n %d: |X(n)| = %v, want 2P(n) = %d", cat.Generation(), n, period, want)
			}
			l := int(period.Int64())
			for _, lab := range []labels.Label{1, 2, 3, 12, 44, 63, 64} {
				cb := CostBound(env, n, lab)
				moves := walk
				if cb.IsInt64() && cb.Int64() < walk {
					moves = int(cb.Int64())
				}
				s, cur, entry := NewStepper(env, n, lab), start, 0
				for i := range ports[:moves] {
					var ok bool
					if ports[i], ok = s.Next(g.Degree(cur), entry); !ok {
						t.Fatalf("generation %d, %s, label %v: route ends after %d moves, CostBound %v",
							cat.Generation(), g, lab, i, cb)
					}
					cur, entry = g.Succ(cur, ports[i])
					if i >= l && ports[i] != ports[i-l] {
						t.Fatalf("generation %d, %s, label %v: port %d is %d, port %d is %d",
							cat.Generation(), g, lab, i, ports[i], i-l, ports[i-l])
					}
					if (i+1)%l == 0 && cur != start {
						t.Fatalf("generation %d, %s, label %v: after %d moves at node %d, not at start %d",
							cat.Generation(), g, lab, i+1, cur, start)
					}
				}
				if moves < walk {
					if _, ok := s.Next(g.Degree(cur), entry); ok {
						t.Errorf("generation %d, %s, label %v: route goes on past CostBound %v", cat.Generation(), g, lab, cb)
					}
					ended++
				}
			}
		}
	}
	if ended == 0 {
		t.Error("no route ended within the walk: the matrix misses CostBound")
	}
	t.Logf("%d routes walked to their end", ended)
}
