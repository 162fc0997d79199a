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
