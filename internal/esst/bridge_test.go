package esst

import (
	"math/big"
	"testing"

	"meetpoly/internal/costmodel"
	"meetpoly/internal/graph"
	"meetpoly/internal/sched"
	"meetpoly/internal/uxs"
)

func ringOrStar(n int) *graph.Graph {
	if n%2 == 0 {
		return graph.Ring(n)
	}
	return graph.Star(n)
}

func nil2() sched.Adversary { return &sched.RoundRobin{} }

// TestCostBoundMatchesCostModel: the executable bound in this package
// and the symbolic one in costmodel implement the same formula; they
// must agree exactly when fed the same P.
func TestCostBoundMatchesCostModel(t *testing.T) {
	cat := testCat(t, 6)
	model := costmodel.New(func(k int) *big.Int {
		return big.NewInt(int64(cat.P(k)))
	})
	for _, phase := range []int{3, 6, 9, 15, 24, 33} {
		got := int64(CostBound(cat, phase))
		want := model.ESSTCostBound(phase)
		if !want.IsInt64() || want.Int64() != got {
			t.Errorf("phase %d: esst.CostBound=%d, costmodel=%v", phase, got, want)
		}
	}
}

// TestTESSTDominatesMeasured: the worst-case T(ESST(n)) from the cost
// model dominates every measured ESST cost from table E5's instances.
func TestTESSTDominatesMeasured(t *testing.T) {
	cat := uxs.NewVerified(uxs.DefaultFamily(8), 1)
	model := costmodel.New(func(k int) *big.Int {
		return big.NewInt(int64(cat.P(k)))
	})
	for _, tc := range []struct {
		n        int
		explorer int
		token    int
	}{{4, 1, 3}, {6, 1, 0}} {
		g := ringOrStar(tc.n)
		if !cat.Covers(g) {
			cat.Extend(g)
		}
		res, err := Explore(sched.RunOpts{}, g, tc.explorer, tc.token, cat, nil2(), 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Done {
			t.Fatal("ESST did not terminate")
		}
		bound := model.TESST(g.N())
		if big.NewInt(int64(res.Cost)).Cmp(bound) > 0 {
			t.Errorf("n=%d: measured %d exceeds T(ESST)=%v", g.N(), res.Cost, bound)
		}
	}
}
