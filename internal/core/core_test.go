package core

import (
	"math/big"
	"testing"

	"meetpoly/internal/graph"
	"meetpoly/internal/labels"
	"meetpoly/internal/sched"
	"meetpoly/internal/trajectory"
	"meetpoly/internal/uxs"
)

func testEnv(t testing.TB) *trajectory.Env {
	t.Helper()
	return trajectory.NewEnv(uxs.NewVerified(uxs.DefaultFamily(6), 1))
}

func TestScheduleMatchesPseudocode(t *testing.T) {
	// Label 1: M(1) = 1101, s = 4. Piece k=1 processes only bit 1 (a B
	// segment) and ends with the fence Ω(1); piece k=2 processes bits
	// 1,2 with one border; etc.
	sch := Schedule(1, 3)
	want := []Component{
		{CompAtomB, 1, 1, 2}, {CompAtomB, 1, 1, 2}, {CompOmega, 1, 1, 1},
		{CompAtomB, 2, 1, 4}, {CompAtomB, 2, 1, 4}, {CompK, 2, 1, 2},
		{CompAtomB, 2, 2, 4}, {CompAtomB, 2, 2, 4}, {CompOmega, 2, 2, 2},
		{CompAtomB, 3, 1, 6}, {CompAtomB, 3, 1, 6}, {CompK, 3, 1, 3},
		{CompAtomB, 3, 2, 6}, {CompAtomB, 3, 2, 6}, {CompK, 3, 2, 3},
		{CompAtomA, 3, 3, 12}, {CompAtomA, 3, 3, 12}, {CompOmega, 3, 3, 3},
	}
	if len(sch) != len(want) {
		t.Fatalf("schedule length %d, want %d\n%v", len(sch), len(want), sch)
	}
	for i := range want {
		if sch[i] != want[i] {
			t.Fatalf("component %d = %+v, want %+v", i, sch[i], want[i])
		}
	}
}

func TestScheduleBitDriven(t *testing.T) {
	// M(2) = 110001: bits 1,2 are 1,1; bits 3,4 are 0,0; bit 5 is 0; bit 6 is 1.
	sch := Schedule(2, 6)
	byPiece := make(map[int][]Component)
	for _, c := range sch {
		byPiece[c.K] = append(byPiece[c.K], c)
	}
	// Piece 6 processes all 6 bits: kinds must follow M(2) = 1 1 0 0 0 1.
	wantKinds := []ComponentKind{CompAtomB, CompAtomB, CompAtomA, CompAtomA, CompAtomA, CompAtomB}
	var segKinds []ComponentKind
	for _, c := range byPiece[6] {
		if c.Kind == CompAtomA || c.Kind == CompAtomB {
			if len(segKinds) == 0 || c.I != len(segKinds) {
				segKinds = append(segKinds, c.Kind)
			}
		}
	}
	if len(segKinds) != 6 {
		t.Fatalf("piece 6 has %d segments, want 6", len(segKinds))
	}
	for i, k := range wantKinds {
		if segKinds[i] != k {
			t.Errorf("piece 6 segment %d kind %s, want %s", i+1, segKinds[i], k)
		}
	}
	// Borders: 5 borders and 1 fence in piece 6.
	borders, fences := 0, 0
	for _, c := range byPiece[6] {
		switch c.Kind {
		case CompK:
			borders++
		case CompOmega:
			fences++
		}
	}
	if borders != 5 || fences != 1 {
		t.Errorf("piece 6: %d borders, %d fences; want 5, 1", borders, fences)
	}
}

// TestStepperPrefixMatchesSchedule runs the lazy master stepper and the
// explicit schedule side by side through the first piece.
func TestStepperPrefixMatchesSchedule(t *testing.T) {
	env := testEnv(t)
	g := graph.Ring(4)
	l := labels.Label(3)

	// Explicit: execute the first two components (atoms of piece 1).
	var explicit []int
	for _, c := range Schedule(l, 1)[:2] {
		var s trajectory.Stepper
		switch c.Kind {
		case CompAtomB:
			s = env.B(c.Arg)
		case CompAtomA:
			s = env.A(c.Arg)
		}
		tr, done := trajectory.Run(g, 0, s, 2_000_000)
		if !done {
			t.Skip("atom too long for explicit comparison under this catalog")
		}
		explicit = append(explicit, tr.Nodes...)
	}
	master, _ := trajectory.Run(g, 0, NewStepper(l, env), len(explicit))
	for i := range explicit {
		if master.Nodes[i] != explicit[i] {
			t.Fatalf("master diverges from schedule at move %d", i)
		}
	}
}

func TestRendezvousAcrossGraphsAndAdversaries(t *testing.T) {
	env := testEnv(t)
	// Oriented rings from rotation-equivalent starts are excluded here:
	// the two walks are exact translates until the first differing label
	// bit, which SymmetryHorizon places ≈2×10^17 traversals out on this
	// catalog (see TestOrientedRingSymmetryDodges). Port-shuffled rings
	// break the translation symmetry and meet quickly.
	cases := []struct {
		g      *graph.Graph
		s1, s2 int
		l1, l2 labels.Label
	}{
		{graph.Path(2), 0, 1, 1, 2},
		{graph.Path(4), 0, 3, 2, 5},
		{graph.ShufflePorts(graph.Ring(4), 4), 0, 2, 1, 3},
		{graph.ShufflePorts(graph.Ring(5), 5), 1, 4, 7, 4},
		{graph.Star(4), 1, 3, 2, 3},
		{graph.Complete(4), 0, 3, 9, 6},
		{graph.BinaryTree(5), 0, 4, 1, 6},
	}
	strategies := map[string]func() sched.Adversary{
		"round-robin": func() sched.Adversary { return &sched.RoundRobin{} },
		"biased":      func() sched.Adversary { return &sched.Biased{Weights: []int{1, 7}} },
		"late-wake":   func() sched.Adversary { return &sched.LateWake{Primary: 0, Hold: 300} },
		"random":      func() sched.Adversary { return sched.NewRandom(3) },
	}
	for _, tc := range cases {
		for name, mk := range strategies {
			res, err := Rendezvous(sched.RunOpts{}, tc.g, tc.s1, tc.s2, tc.l1, tc.l2,
				NewStepper(tc.l1, env), NewStepper(tc.l2, env), PiBound(env, tc.g.N(), tc.l1, tc.l2),
				mk(), 3_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Met {
				t.Errorf("%s on %s (labels %d,%d): no meeting within budget",
					name, tc.g, tc.l1, tc.l2)
				continue
			}
			// Measured cost must respect the Theorem 3.1 guarantee.
			cost := big.NewInt(int64(res.Meeting.Cost))
			if cost.Cmp(res.Bound) > 0 {
				t.Errorf("%s on %s: cost %v exceeds bound %v", name, tc.g, cost, res.Bound)
			}
		}
	}
}

func TestRendezvousRejectsEqualLabels(t *testing.T) {
	env := testEnv(t)
	if _, err := Rendezvous(sched.RunOpts{}, graph.Path(2), 0, 1, 5, 5,
		NewStepper(5, env), NewStepper(5, env), nil, &sched.RoundRobin{}, 10); err == nil {
		t.Error("equal labels accepted")
	}
}

// bfsPath returns a shortest node path from u to v.
func bfsPath(g *graph.Graph, u, v int) []int {
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = -1
	}
	parent[u] = u
	queue := []int{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for p := 0; p < g.Degree(x); p++ {
			to, _ := g.Succ(x, p)
			if parent[to] == -1 {
				parent[to] = x
				queue = append(queue, to)
			}
		}
	}
	var rev []int
	for x := v; x != u; x = parent[x] {
		rev = append(rev, x)
	}
	rev = append(rev, u)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// TestLemma31Forced verifies Lemma 3.1 exactly with the cyclic
// certifier: if agent b keeps repeating the closed trajectory X(m, v)
// while agent a — approaching from anywhere — follows one entire copy of
// the same X(m, v), the meeting is forced under EVERY schedule. Both
// agents traverse the same embedded path, so the paper's
// parameter-crossing argument applies; b's endless repetition leaves the
// adversary no route frontier to hide behind.
func TestLemma31Forced(t *testing.T) {
	env := testEnv(t)
	for _, g := range []*graph.Graph{graph.Ring(4), graph.Path(4), graph.Star(4), graph.Complete(4)} {
		m := g.N()
		lenX := int(env.LenX(m).Int64())
		v := g.N() - 1 // b's anchor
		tb, _ := trajectory.Run(g, v, env.X(m), lenX)
		cycleB := append([]int{v}, tb.Nodes...)
		for startA := 0; startA < g.N()-1; startA++ {
			// a walks to the anchor, then follows the same loop once.
			routeA := bfsPath(g, startA, v)
			routeA = append(routeA, tb.Nodes...)
			res, err := sched.CertifyCyclic(routeA, cycleB)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Forced {
				t.Errorf("%s: Lemma 3.1 not forced from start %d (anchor %d, m=%d)",
					g, startA, v, m)
			}
		}
	}
}

// TestLemma31NeedsIntegrality is the contrapositive: with m too small
// for the graph (X(m) not integral), the lemma's conclusion can fail —
// exercised on a ring where a short X cannot span the cycle.
func TestLemma31NeedsIntegrality(t *testing.T) {
	env := testEnv(t)
	g := graph.Ring(6)
	m := 1 // far below n: X(1) is a 2-move bounce
	lenX := int(env.LenX(m).Int64())
	ta, _ := trajectory.Run(g, 0, env.X(m), lenX)
	tb, _ := trajectory.Run(g, 3, env.X(m), lenX)
	routeA := append([]int{0}, ta.Nodes...)
	cycleB := append([]int{3}, tb.Nodes...)
	res, err := sched.CertifyCyclic(routeA, cycleB)
	if err != nil {
		t.Fatal(err)
	}
	if res.Forced {
		t.Error("X(1) on a 6-ring from distance 3 cannot force a meeting")
	}
}

// TestOrientedRingSymmetryDodges documents the measured symmetry
// phenomenon: on an oriented ring with rotation-equivalent starts, both
// agents' schedules share the piece-1 prefix (every modified label starts
// 11), the walks are exact rotations of one another, and no online
// adversary run within a realistic budget produces a meeting. The paper's
// guarantee is untouched — it kicks in at the first differing bit — but
// SymmetryHorizon places that bit 211,403,783,987,330,144 traversals out
// for labels 1 and 3 on testEnv's catalog, whatever the graph.
func TestOrientedRingSymmetryDodges(t *testing.T) {
	env := testEnv(t)
	res, err := Rendezvous(sched.RunOpts{}, graph.Ring(4), 0, 2, 1, 3,
		NewStepper(1, env), NewStepper(3, env), nil, &sched.RoundRobin{}, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatalf("unexpected early meeting at cost %d; symmetry analysis wrong", res.Meeting.Cost)
	}
	// The first atom alone exceeds any feasible budget.
	atom := env.LenB(2)
	if atom.Cmp(big.NewInt(1_000_000)) <= 0 {
		t.Errorf("|B(2)| = %v unexpectedly small; symmetry rationale needs revisiting", atom)
	}
}

// TestCertifiedWorstCase certifies forced meetings on whole-algorithm
// route prefixes (experiment E6) and checks that measured costs under
// online adversaries never exceed the certified worst case.
func TestCertifiedWorstCase(t *testing.T) {
	env := testEnv(t)
	type inst struct {
		g      *graph.Graph
		s1, s2 int
		l1, l2 labels.Label
	}
	instances := []inst{
		{graph.Path(2), 0, 1, 1, 2},
		{graph.Path(3), 0, 2, 1, 2},
		{graph.ShufflePorts(graph.Ring(4), 4), 0, 2, 1, 3},
		{graph.Star(4), 1, 2, 2, 3},
	}
	prefix := 4000
	forced := 0
	for _, in := range instances {
		res, err := sched.Certify(Route(in.g, in.s1, in.l1, env, prefix), Route(in.g, in.s2, in.l2, env, prefix))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Forced {
			t.Logf("%s: escape within %d-move prefixes (worst case lies deeper)", in.g, prefix)
			continue
		}
		forced++
		for name, mk := range map[string]func() sched.Adversary{
			"round-robin": func() sched.Adversary { return &sched.RoundRobin{} },
			"avoider":     func() sched.Adversary { return &sched.Avoider{} },
		} {
			r, err := Rendezvous(sched.RunOpts{}, in.g, in.s1, in.s2, in.l1, in.l2,
				NewStepper(in.l1, env), NewStepper(in.l2, env), nil, mk(), 10*prefix)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Met {
				t.Errorf("%s/%s: certified forced but adversary escaped", in.g, name)
				continue
			}
			if r.Meeting.Cost > res.WorstCompleted {
				t.Errorf("%s/%s: measured cost %d > certified worst %d",
					in.g, name, r.Meeting.Cost, res.WorstCompleted)
			}
		}
	}
	if forced == 0 {
		t.Error("no instance was certified forced; prefix too short for E6")
	}
}

func TestPiBoundUsesShorterLabel(t *testing.T) {
	env := testEnv(t)
	b1 := PiBound(env, 4, 1, 1023)   // min length 1
	b2 := PiBound(env, 4, 1023, 1)   // symmetric
	b3 := PiBound(env, 4, 1023, 513) // min length 10
	if b1.Cmp(b2) != 0 {
		t.Error("PiBound not symmetric in labels")
	}
	if b1.Cmp(b3) >= 0 {
		t.Error("PiBound should grow with the shorter label's length")
	}
}

func TestRouteDeterministic(t *testing.T) {
	env := testEnv(t)
	g := graph.Ring(5)
	a := Route(g, 0, 5, env, 500)
	b := Route(g, 0, 5, env, 500)
	if len(a) != len(b) {
		t.Fatal("route lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("routes diverge")
		}
	}
	if a[0] != 0 || len(a) != 501 {
		t.Errorf("route shape wrong: start %d len %d", a[0], len(a))
	}
}
