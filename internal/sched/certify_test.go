package sched

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"meetpoly/internal/graph"
	"meetpoly/internal/rverr"
	"meetpoly/internal/trajectory"
)

func bigInt(v int64) *big.Int { return big.NewInt(v) }

func TestCertifyForcedOnTwoPath(t *testing.T) {
	// Both agents bounce along the only edge of a 2-path: meeting is
	// forced immediately, whatever the schedule (worked example from the
	// design notes).
	routeA := []int{0, 1, 0, 1}
	routeB := []int{1, 0, 1, 0}
	res, err := Certify(routeA, routeB)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Forced {
		t.Fatalf("expected forced meeting, got %v", res)
	}
	if res.WorstCompleted != 1 {
		t.Errorf("WorstCompleted = %d, want 1", res.WorstCompleted)
	}
	if res.SafestDepth != 1 {
		t.Errorf("SafestDepth = %d, want 1", res.SafestDepth)
	}
}

func TestCertifyEscapeOnRing(t *testing.T) {
	// Two agents rotating the same way around a ring stay apart forever.
	n := 6
	mk := func(start, steps int) []int {
		r := make([]int, steps+1)
		for i := range r {
			r[i] = (start + i) % n
		}
		return r
	}
	res, err := Certify(mk(0, 50), mk(3, 50))
	if err != nil {
		t.Fatal(err)
	}
	if res.Forced {
		t.Fatalf("expected escape, got %v", res)
	}
}

func TestCertifyCounterRotationForced(t *testing.T) {
	// Opposite rotations on a ring must cross somewhere.
	n := 5
	fwd := make([]int, 40)
	bwd := make([]int, 40)
	for i := range fwd {
		fwd[i] = i % n
		bwd[i] = ((2-i)%n + n) % n
	}
	res, err := Certify(fwd, bwd)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Forced {
		t.Fatalf("counter-rotation escaped: %v", res)
	}
}

func TestCertifyErrors(t *testing.T) {
	if _, err := Certify(nil, []int{0}); err == nil {
		t.Error("empty route accepted")
	}
	if _, err := Certify([]int{0}, []int{0}); err == nil {
		t.Error("same start accepted")
	}
}

func TestCertifyTrivialEscape(t *testing.T) {
	res, err := Certify([]int{0}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Forced {
		t.Error("two parked agents at distinct nodes cannot be forced to meet")
	}
}

// refCertify is an independent recursive implementation of the lattice
// game with memoization, used to cross-check the bitset DP.
func refCertify(routeA, routeB []int) bool {
	pb := 2 * (len(routeA) - 1)
	qb := 2 * (len(routeB) - 1)
	blocked := func(p, q int) bool {
		if p%2 == 0 && q%2 == 0 {
			return routeA[p/2] == routeB[q/2]
		}
		if p%2 == 1 && q%2 == 1 {
			i, j := (p-1)/2, (q-1)/2
			return routeA[i] == routeB[j+1] && routeA[i+1] == routeB[j]
		}
		return false
	}
	type cell struct{ p, q int }
	memo := make(map[cell]bool)
	var escape func(p, q int) bool
	escape = func(p, q int) bool {
		if blocked(p, q) {
			return false
		}
		if p == pb || q == qb {
			return true
		}
		c := cell{p, q}
		if v, ok := memo[c]; ok {
			return v
		}
		memo[c] = false // guard
		v := escape(p+1, q) || escape(p, q+1)
		memo[c] = v
		return v
	}
	return !escape(0, 0) // forced iff no escape
}

func TestCertifyAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		g := graph.RandomConnected(2+rng.Intn(5), 0.4, int64(trial))
		// Random walks as routes.
		mkRoute := func(start, steps int) []int {
			r := []int{start}
			cur := start
			for i := 0; i < steps; i++ {
				d := g.Degree(cur)
				to, _ := g.Succ(cur, rng.Intn(d))
				r = append(r, to)
				cur = to
			}
			return r
		}
		sa := rng.Intn(g.N())
		sb := (sa + 1 + rng.Intn(g.N()-1)) % g.N()
		ra := mkRoute(sa, 1+rng.Intn(8))
		rb := mkRoute(sb, 1+rng.Intn(8))
		got, err := Certify(ra, rb)
		if err != nil {
			t.Fatal(err)
		}
		want := refCertify(ra, rb)
		if got.Forced != want {
			t.Fatalf("trial %d: Certify.Forced=%v, reference=%v\nA=%v\nB=%v",
				trial, got.Forced, want, ra, rb)
		}
	}
}

// matchReference asserts that Certify and WorstSchedule agree with the
// cell-by-cell reference on one route pair: every CertResult field, the
// error, and the reconstructed schedule. It reports whether the meeting
// is forced.
func matchReference(t testing.TB, routeA, routeB []int) bool {
	t.Helper()
	got, err := Certify(routeA, routeB)
	want, wantErr := referenceCertifyCtx(context.Background(), routeA, routeB)
	if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("Certify = %+v, %v; reference = %+v, %v\nA=%v\nB=%v",
			got, err, want, wantErr, routeA, routeB)
	}
	schedule, res, err := WorstSchedule(routeA, routeB)
	wantSchedule, wantRes, wantErr := referenceWorstSchedule(routeA, routeB)
	if !slices.Equal(schedule, wantSchedule) || res != wantRes || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("WorstSchedule = %v, %+v, %v; reference = %v, %+v, %v\nA=%v\nB=%v",
			schedule, res, err, wantSchedule, wantRes, wantErr, routeA, routeB)
	}
	return err == nil
}

// TestCertifyMatchesReferenceDP compares the row fill with the
// cell-by-cell reference on random walks over random connected graphs
// with 2-7 nodes, and on rings, where walks that keep one direction let
// the adversary escape. The two routes take their lengths independently
// from a set whose 2*moves+1 cells per row straddle the 64-, 128- and
// 256-bit word boundaries, including routes that never move.
func TestCertifyMatchesReferenceDP(t *testing.T) {
	moves := []int{0, 1, 2, 31, 32, 63, 64, 65, 100, 127, 128, 129, 200}
	rng := rand.New(rand.NewSource(29))
	forced, escaped := 0, 0
	for trial := 0; trial < 600; trial++ {
		var g *graph.Graph
		if trial%3 == 2 {
			g = graph.Ring(3 + rng.Intn(5))
		} else {
			g = graph.RandomConnected(2+rng.Intn(6), rng.Float64(), int64(trial))
		}
		// A walk picks uniform ports, the port after its entry port, or
		// one fixed port; the last two settle into cycles.
		walk := func(start, steps int) []int {
			style, fixed := rng.Intn(3), rng.Intn(8)
			r := []int{start}
			cur, entry := start, -1
			for i := 0; i < steps; i++ {
				d := g.Degree(cur)
				port := rng.Intn(d)
				switch style {
				case 1:
					port = (entry + 1) % d
				case 2:
					port = fixed % d
				}
				cur, entry = g.Succ(cur, port)
				r = append(r, cur)
			}
			return r
		}
		sa := rng.Intn(g.N())
		sb := (sa + 1 + rng.Intn(g.N()-1)) % g.N()
		ra := walk(sa, moves[rng.Intn(len(moves))])
		rb := walk(sb, moves[rng.Intn(len(moves))])
		if matchReference(t, ra, rb) {
			forced++
		} else {
			escaped++
		}
	}
	if forced == 0 || escaped == 0 {
		t.Fatalf("forced %d, escaped %d: widen the generator", forced, escaped)
	}
	// Invalid inputs fail with the reference's errors, and so does a
	// canceled context.
	matchReference(t, nil, []int{0})
	matchReference(t, []int{1, 0}, nil)
	matchReference(t, []int{2, 0, 1}, []int{2, 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CertifyCtx(ctx, []int{0, 1, 0}, []int{2, 1, 2})
	_, wantErr := referenceCertifyCtx(ctx, []int{0, 1, 0}, []int{2, 1, 2})
	if err == nil || err.Error() != wantErr.Error() || !errors.Is(err, rverr.ErrCanceled) {
		t.Errorf("canceled CertifyCtx = %v, reference %v", err, wantErr)
	}
}

// TestCertifyConsistentWithRunner: when the lattice says the meeting is
// forced, every runner adversary must produce a meeting; when it finds an
// escape, the avoider should find it too (the avoider is not guaranteed
// optimal, so only the forced direction is asserted strictly).
func TestCertifyConsistentWithRunner(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	forcedSeen := 0
	for trial := 0; trial < 120; trial++ {
		g := graph.RandomConnected(2+rng.Intn(4), 0.5, int64(1000+trial))
		steps := 2 + rng.Intn(6)
		mkPorts := func() []int {
			ports := make([]int, steps)
			for i := range ports {
				ports[i] = rng.Intn(8)
			}
			return ports
		}
		pa, pb := mkPorts(), mkPorts()
		sa := rng.Intn(g.N())
		sb := (sa + 1 + rng.Intn(g.N()-1)) % g.N()
		ta, _ := trajectory.Run(g, sa, script(pa...), steps+1)
		tb, _ := trajectory.Run(g, sb, script(pb...), steps+1)
		routeA := append([]int{sa}, ta.Nodes...)
		routeB := append([]int{sb}, tb.Nodes...)
		res, err := Certify(routeA, routeB)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Forced {
			continue
		}
		forcedSeen++
		for name, mk := range map[string]func() Adversary{
			"round-robin": func() Adversary { return &RoundRobin{} },
			"biased":      func() Adversary { return &Biased{Weights: []int{1, 5}} },
			"late-wake":   func() Adversary { return &LateWake{Primary: 0, Hold: 200} },
			"random":      func() Adversary { return NewRandom(42) },
			"avoider":     func() Adversary { return &Avoider{} },
		} {
			a := &Walker{Stepper: script(pa...)}
			b := &Walker{Stepper: script(pb...)}
			r := mustRunner(t, Config{
				Graph: g, Starts: []int{sa, sb}, Agents: []Agent{a, b},
				InitiallyAwake: []int{0, 1}, MaxSteps: 10000,
			}, mk())
			sum := r.Run()
			if sum.FirstMeeting == nil {
				t.Fatalf("trial %d: certifier says forced but %s escaped\nA=%v\nB=%v",
					trial, name, routeA, routeB)
			}
			// The first meeting must not exceed the certified worst case.
			if got := sum.FirstMeeting.Cost; got > res.WorstCompleted {
				t.Fatalf("trial %d: %s met at completed cost %d > certified worst %d",
					trial, name, got, res.WorstCompleted)
			}
			if got := sum.FirstMeeting.Committed; got > res.WorstCommitted {
				t.Fatalf("trial %d: %s met at committed cost %d > certified worst %d",
					trial, name, got, res.WorstCommitted)
			}
		}
	}
	if forcedSeen == 0 {
		t.Skip("no forced instances sampled; widen generator")
	}
}
