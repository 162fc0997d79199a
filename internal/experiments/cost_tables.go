package experiments

import (
	"fmt"
	"math/big"

	"meetpoly/internal/costmodel"
)

// E1PiVsN evaluates Π(n, m) over growing graph sizes with the label
// length fixed: the paper's headline "polynomial in the size of the
// graph". The log2 increment per doubling of n estimates the effective
// polynomial degree.
func E1PiVsN(m *costmodel.Model, ns []int, labelLen int) *Table {
	t := &Table{
		ID:      "E1",
		Title:   fmt.Sprintf("Pi(n, m=%d) vs graph size n (%v)", labelLen, m),
		Columns: []string{"n", "log2(Pi)", "delta-per-doubling"},
	}
	var prevLog float64
	var prevN int
	for _, n := range ns {
		pi := m.Pi(n, labelLen)
		lg := costmodel.ApproxLog2(pi)
		slope := "-"
		if prevN > 0 && n == 2*prevN {
			slope = fmt.Sprintf("%.2f", lg-prevLog)
		}
		t.AddRow(n, lg, slope)
		prevLog, prevN = lg, n
	}
	t.Notes = append(t.Notes,
		"bounded delta-per-doubling = polynomial growth; exponential growth would make deltas themselves grow linearly in n")
	return t
}

// E2PiVsLabelLen evaluates Π(n, m) over growing label lengths with n
// fixed: "polynomial in the length of the smaller label".
func E2PiVsLabelLen(m *costmodel.Model, n int, lens []int) *Table {
	t := &Table{
		ID:      "E2",
		Title:   fmt.Sprintf("Pi(n=%d, m) vs shorter-label length m", n),
		Columns: []string{"label-len m", "log2(Pi)", "delta-per-doubling"},
	}
	var prevLog float64
	var prevLen int
	for _, l := range lens {
		pi := m.Pi(n, l)
		lg := costmodel.ApproxLog2(pi)
		slope := "-"
		if prevLen > 0 && l == 2*prevLen {
			slope = fmt.Sprintf("%.2f", lg-prevLog)
		}
		t.AddRow(l, lg, slope)
		prevLog, prevLen = lg, l
	}
	return t
}

// E3BaselineVsPi compares the exponential baseline's cost against Π for
// labels of growing length: who wins, by what factor, and where the gap
// explodes. Label values are the all-ones value of each length (the
// worst case for the baseline at that length).
func E3BaselineVsPi(m *costmodel.Model, n int, lens []int) *Table {
	t := &Table{
		ID:    "E3",
		Title: fmt.Sprintf("baseline (exponential, known n=%d) vs RV-asynch-poly bound", n),
		Columns: []string{
			"label-len", "label-value", "log2(baseline)", "log2(Pi)", "log2(gap)", "winner",
		},
	}
	for _, l := range lens {
		value := uint64(1)<<uint(l) - 1
		lb := m.BaselineLog2(n, value)
		lp := costmodel.ApproxLog2(m.Pi(n, l))
		winner := "RV-asynch-poly"
		if lb < lp {
			winner = "baseline"
		}
		t.AddRow(l, value, lb, lp, lb-lp, winner)
	}
	t.Notes = append(t.Notes,
		"baseline log2 cost doubles with each extra label bit (doubly exponential in length); Pi grows polynomially",
		"the baseline is given the graph size n for free, making the comparison conservative (DESIGN.md §2.4)")
	return t
}

// E3Crossover locates the label length at which the polynomial bound
// overtakes the exponential baseline for each n: small labels briefly
// favour the baseline because Pi's polynomial has enormous constants.
func E3Crossover(m *costmodel.Model, ns []int, maxLen int) *Table {
	t := &Table{
		ID:      "E3x",
		Title:   "crossover: smallest label length where RV-asynch-poly's bound beats the baseline",
		Columns: []string{"n", "crossover label-len", "log2(gap) at crossover+4"},
	}
	for _, n := range ns {
		cross := -1
		for l := 1; l <= maxLen; l++ {
			value := uint64(1)<<uint(l) - 1
			if costmodel.ApproxLog2(m.Pi(n, l)) < m.BaselineLog2(n, value) {
				cross = l
				break
			}
		}
		gap := "-"
		if cross > 0 && cross+4 <= maxLen {
			l := cross + 4
			value := uint64(1)<<uint(l) - 1
			gap = fmt.Sprintf("%.1f", m.BaselineLog2(n, value)-
				costmodel.ApproxLog2(m.Pi(n, l)))
		}
		crossStr := "none <= maxLen"
		if cross > 0 {
			crossStr = fmt.Sprint(cross)
		}
		t.AddRow(n, crossStr, gap)
	}
	return t
}

// E7Lemmas tabulates the synchronization lemmas' counting inequalities
// over a parameter sweep; every row must hold for the proofs of Lemmas
// 3.2-3.6 and Theorem 3.1 to apply.
func E7Lemmas(m *costmodel.Model, pairs [][2]int) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "counting inequalities behind Lemmas 3.2-3.6 / Theorem 3.1",
		Columns: []string{"inequality", "n", "l", "log2(LHS)", "log2(RHS)", "holds"},
	}
	for _, p := range pairs {
		for _, iq := range m.CheckLemmas(p[0], p[1]) {
			t.AddRow(iq.Name, iq.N, iq.L,
				costmodel.ApproxLog2(iq.LHS), costmodel.ApproxLog2(iq.RHS), iq.Holds)
		}
	}
	return t
}

// E9SGLBound tabulates the Theorem 4.1 per-agent and team cost bounds
// (proof of Claim 1): Pi(n,m) + 2 T(ESST(n)) + 1 + Pi(E(n),m) + 2P(E(n)).
// The Pi(E(n), ·) term dominates: SGL pays rendezvous-at-size-E(n),
// where E(n) is itself polynomial in n.
func E9SGLBound(m *costmodel.Model, ns []int, mLen, k int) *Table {
	t := &Table{
		ID:      "E9",
		Title:   fmt.Sprintf("Theorem 4.1 cost bounds (m=%d, k=%d agents)", mLen, k),
		Columns: []string{"n", "log2(T_ESST)", "log2(E(n))", "log2(per-agent)", "log2(team)"},
	}
	for _, n := range ns {
		t.AddRow(n,
			costmodel.ApproxLog2(m.TESST(n)),
			costmodel.ApproxLog2(m.EUpper(n)),
			costmodel.ApproxLog2(m.SGLAgentCostBound(n, mLen)),
			costmodel.ApproxLog2(m.SGLTotalCostBound(n, mLen, k)))
	}
	t.Notes = append(t.Notes,
		"polynomial throughout, but Pi evaluated at E(n) = poly(n) raises the effective degree well above plain rendezvous")
	return t
}

// PModels returns the cost-model ablation of DESIGN.md §8: the same
// tables under different exploration-length polynomials.
func PModels() map[string]*costmodel.Model {
	return map[string]*costmodel.Model{
		"P=k (verified compact)": costmodel.New(costmodel.PLinear(1)),
		"P=4k":                   costmodel.New(costmodel.PLinear(4)),
		"P=k^2":                  costmodel.New(costmodel.PPoly(1, 2)),
		"P=k^3 (Reingold-like)":  costmodel.New(costmodel.PPoly(1, 3)),
	}
}

// PiExact returns Π as a big integer for report footers.
func PiExact(m *costmodel.Model, n, labelLen int) *big.Int { return m.Pi(n, labelLen) }
