package core

import (
	"fmt"
	"math/big"
	"strings"
	"testing"

	"meetpoly/internal/graph"
	"meetpoly/internal/labels"
	"meetpoly/internal/trajectory"
	"meetpoly/internal/uxs"
)

// unitEnv gives P(k) = 1, making every component short enough to verify
// Locate against real executions.
func unitEnv() *trajectory.Env {
	return trajectory.NewEnv(unitCatalog{})
}

type unitCatalog struct{}

func (unitCatalog) Seq(int) uxs.Sequence { return uxs.Sequence{0} }
func (unitCatalog) P(int) int            { return 1 }

func TestLocateFirstMove(t *testing.T) {
	env := unitEnv()
	loc := Locate(labels.Label(1), env, big.NewInt(0))
	// M(1) = 1101: bit 1 is 1, so the schedule opens with atom 1 of
	// B(2) in piece 1.
	if loc.Component.Kind != CompAtomB || loc.Component.K != 1 ||
		loc.Component.I != 1 || loc.AtomIndex != 0 || loc.Offset.Sign() != 0 {
		t.Errorf("Locate(0) = %+v", loc)
	}
	if !strings.Contains(loc.String(), "piece 1") {
		t.Errorf("String() = %q", loc.String())
	}
}

func TestLocateComponentBoundaries(t *testing.T) {
	env := unitEnv()
	l := labels.Label(1)
	// The first atom's length: index LenB(2) must be atom 2's move 0.
	lenB2 := env.LenB(2)
	loc := Locate(l, env, lenB2)
	if loc.Component.Kind != CompAtomB || loc.AtomIndex != 1 || loc.Offset.Sign() != 0 {
		t.Errorf("Locate(|B(2)|) = %+v", loc)
	}
	// After both atoms comes the fence Ω(1) (piece 1 has one segment).
	both := new(big.Int).Lsh(lenB2, 1)
	loc = Locate(l, env, both)
	if loc.Component.Kind != CompOmega || loc.Component.K != 1 {
		t.Errorf("Locate(2|B(2)|) = %+v", loc)
	}
	if !strings.Contains(loc.String(), "fence") {
		t.Errorf("String() = %q", loc.String())
	}
}

func TestLocateMatchesSchedule(t *testing.T) {
	env := unitEnv()
	l := labels.Label(2) // M(2) = 110001
	// Walk the flattened schedule through piece 3 computing prefix sums
	// and verify Locate agrees at each component start.
	prefix := new(big.Int)
	for _, c := range Schedule(l, 3) {
		clen := componentLen(env, c)
		reps := 1
		if c.Kind == CompAtomA || c.Kind == CompAtomB {
			reps = 1 // Schedule already lists atoms individually
		}
		for r := 0; r < reps; r++ {
			loc := Locate(l, env, prefix)
			if loc.Component.Kind != c.Kind || loc.Component.K != c.K ||
				loc.Component.Arg != c.Arg {
				t.Fatalf("prefix %v: Locate = %+v, want %+v", prefix, loc.Component, c)
			}
			if loc.Offset.Sign() != 0 {
				t.Fatalf("prefix %v: offset %v at component start", prefix, loc.Offset)
			}
			prefix.Add(prefix, clen)
		}
	}
}

func TestHorizonLenMatchesExecution(t *testing.T) {
	env := unitEnv()
	l := labels.Label(3)
	want := HorizonLen(l, env, 1)
	if !want.IsInt64() || want.Int64() > 20_000_000 {
		t.Fatalf("horizon %v too large for execution test", want)
	}
	g := testRing(t)
	tr, _ := trajectory.Run(g, 0, NewStepper(l, env), int(want.Int64()))
	if int64(tr.Moves()) != want.Int64() {
		t.Errorf("executed %d moves within horizon, want %v", tr.Moves(), want)
	}
	// The very next move belongs to piece 2's first atom.
	loc := Locate(l, env, want)
	if loc.Component.K != 2 || loc.Component.I != 1 ||
		(loc.Component.Kind != CompAtomB && loc.Component.Kind != CompAtomA) ||
		loc.Offset.Sign() != 0 {
		t.Errorf("post-horizon location = %+v", loc)
	}
}

func TestPieceLenComposition(t *testing.T) {
	env := unitEnv()
	l := labels.Label(5) // M(5) = 11001101? 5=101 -> 11 00 11 01, s=8
	// Piece 2: bits 1,2 = 1,1: two B(4)^2 segments and one border K(2).
	want := new(big.Int).Lsh(env.LenB(4), 2) // 4 atoms of B(4)
	want.Add(want, env.LenK(2))
	if got := PieceLen(l, env, 2); got.Cmp(want) != 0 {
		t.Errorf("PieceLen(piece 2) = %v, want %v", got, want)
	}
}

func TestLocateNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Locate(labels.Label(1), unitEnv(), big.NewInt(-1))
}

func testRing(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.Ring(4)
}

// TestSymmetryHorizonMatchesSchedule pins SymmetryHorizon to the
// flattened schedule: D is the summed length of the components the two
// labels' schedules share before their first difference, that first
// difference is atom 1 of segment S_{i*} in piece i*, and Locate puts
// index D of both trajectories at its first move. D is symmetric in
// the labels. The catalogs are the unit one and the default verified
// one of the examples (family up to 6 nodes, seed 1), where labels 1
// and 3 first differ at bit 3 and D is pinned to its exact value.
func TestSymmetryHorizonMatchesSchedule(t *testing.T) {
	pairs := [][2]labels.Label{{1, 2}, {1, 3}, {2, 5}, {3, 12}, {7, 6}, {4, 5}, {15, 44}, {1, 64}}
	envs := map[string]*trajectory.Env{
		"unit":    unitEnv(),
		"default": trajectory.NewEnv(uxs.NewVerified(uxs.DefaultFamily(6), 1)),
	}
	for name, env := range envs {
		for _, p := range pairs {
			l1, l2 := p[0], p[1]
			d := SymmetryHorizon(l1, l2, env)
			if r := SymmetryHorizon(l2, l1, env); r.Cmp(d) != 0 {
				t.Errorf("%s %v: SymmetryHorizon is %v one way, %v the other", name, p, d, r)
			}
			istar := labels.FirstDiff(l1.Modified(), l2.Modified()) + 1
			s1, s2 := Schedule(l1, istar), Schedule(l2, istar)
			shared := new(big.Int)
			j := 0
			for ; j < len(s1) && j < len(s2) && s1[j] == s2[j]; j++ {
				shared.Add(shared, componentLen(env, s1[j]))
			}
			if shared.Cmp(d) != 0 {
				t.Errorf("%s %v: SymmetryHorizon = %v, shared schedule prefix %v", name, p, d, shared)
			}
			for _, c := range []Component{s1[j], s2[j]} {
				if c.K != istar || c.I != istar || (c.Kind != CompAtomA && c.Kind != CompAtomB) {
					t.Errorf("%s %v: first difference at %+v, want an atom of S_%d in piece %d", name, p, c, istar, istar)
				}
			}
			for _, l := range []labels.Label{l1, l2} {
				loc := Locate(l, env, d)
				if loc.Component.K != istar || loc.Component.I != istar || loc.AtomIndex != 0 || loc.Offset.Sign() != 0 {
					t.Errorf("%s %v: Locate(%v, D) = %v, want the first move of S_%d in piece %d", name, p, l, loc, istar, istar)
				}
			}
		}
	}
	d := SymmetryHorizon(1, 3, envs["default"])
	if want, _ := new(big.Int).SetString("211403783987330144", 10); d.Cmp(want) != 0 {
		t.Errorf("default catalog: SymmetryHorizon(1, 3) = %v, want %v", d, want)
	}
}

// openingGraphs returns the graphs the opening's period is pinned on:
// ring, path, star, clique and tree with 3–8 nodes, the 2×4 grid,
// hypercube 3 and petersen.
func openingGraphs() map[string]*graph.Graph {
	gs := map[string]*graph.Graph{
		"grid2x4":    graph.Grid(4, 2),
		"hypercube3": graph.Hypercube(3),
		"petersen":   graph.Petersen(),
	}
	for n := 3; n <= 8; n++ {
		gs[fmt.Sprintf("ring%d", n)] = graph.Ring(n)
		gs[fmt.Sprintf("path%d", n)] = graph.Path(n)
		gs[fmt.Sprintf("star%d", n)] = graph.Star(n)
		gs[fmt.Sprintf("clique%d", n)] = graph.Complete(n)
		gs[fmt.Sprintf("tree%d", n)] = graph.RandomTree(n, uxs.DefaultTreeSeed(n))
	}
	return gs
}

// TestOpeningIsPeriodic pins Opening to the master trajectory. Every
// label's route opens with exit ports that repeat with period
// L = |Y(2)| over its first 60,000 moves, and the agent stands at its
// start after every multiple of L. Index H − 1 is the last move of atom
// 2 of B(2) in segment S_1 of piece 1, and index H is move 0 of the
// fence Ω(1). Both lengths follow the catalog's generation, so the
// checks run on the family-6 catalog fresh and again after it is
// extended with the graphs larger than its family that rendezvous-long
// campaigns add (the 2×4 grid, hypercube 3 and petersen): H moves from
// 27,526,753,600 to 46,781,048,800.
func TestOpeningIsPeriodic(t *testing.T) {
	const moves = 60_000
	cat := uxs.NewVerified(uxs.DefaultFamily(6), 1)
	env := trajectory.NewEnv(cat)
	gs := openingGraphs()
	for _, want := range []int64{27_526_753_600, 46_781_048_800} {
		if want != 27_526_753_600 {
			cat.Extend(gs["grid2x4"], gs["hypercube3"], gs["petersen"])
		}
		period, length := Opening(env)
		if length.Cmp(big.NewInt(want)) != 0 {
			t.Fatalf("generation %d: H = %v, want %d", cat.Generation(), length, want)
		}
		if p := env.LenY(2); period.Cmp(p) != 0 {
			t.Fatalf("generation %d: L = %v, |Y(2)| = %v", cat.Generation(), period, p)
		}
		if new(big.Int).Rem(length, period).Sign() != 0 {
			t.Errorf("generation %d: H = %v is not a multiple of L = %v", cat.Generation(), length, period)
		}
		l := int(period.Int64())
		ports := make([]int, moves)
		for _, lab := range []labels.Label{1, 2, 3, 12, 44, 63, 64} {
			for name, g := range gs {
				start := g.N() - 1
				s, cur, entry := NewStepper(lab, env), start, 0
				for i := range ports {
					ports[i], _ = s.Next(g.Degree(cur), entry)
					cur, entry = g.Succ(cur, ports[i])
					if i >= l && ports[i] != ports[i-l] {
						t.Fatalf("generation %d, %s, label %v: port %d is %d, port %d is %d",
							cat.Generation(), name, lab, i, ports[i], i-l, ports[i-l])
					}
					if (i+1)%l == 0 && cur != start {
						t.Fatalf("generation %d, %s, label %v: after %d moves at node %d, not at start %d",
							cat.Generation(), name, lab, i+1, cur, start)
					}
				}
			}
			last := Locate(lab, env, new(big.Int).Sub(length, big.NewInt(1)))
			if c := last.Component; c.Kind != CompAtomB || c.K != 1 || c.I != 1 || c.Arg != 2 || last.AtomIndex != 1 ||
				new(big.Int).Add(last.Offset, big.NewInt(1)).Cmp(last.ComponentLen) != 0 {
				t.Errorf("generation %d, label %v: Locate(H−1) = %v, want the last move of atom 2 of B(2) in S_1 of piece 1",
					cat.Generation(), lab, last)
			}
			if fence := Locate(lab, env, length); fence.Component.Kind != CompOmega || fence.Component.K != 1 || fence.Offset.Sign() != 0 {
				t.Errorf("generation %d, label %v: Locate(H) = %v, want move 0 of the fence Ω(1)", cat.Generation(), lab, fence)
			}
		}
	}
}
