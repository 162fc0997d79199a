package core

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"meetpoly/internal/graph"
	"meetpoly/internal/labels"
	"meetpoly/internal/sched"
	"meetpoly/internal/trajectory"
	"meetpoly/internal/uxs"
)

// TestRendezvousOnRandomTreesProperty: random trees, random distinct
// labels, random start pair, round-robin schedule. Soundness is asserted
// unconditionally (no errors; measured cost within the bound when a
// meeting happens). A meeting within the budget is NOT guaranteed by the
// theory — only the astronomically distant Pi horizon is — and indeed
// trees with automorphism-related starts (twin leaves) can orbit without
// colliding for a long time, so the test requires most, not all,
// instances to meet early.
func TestRendezvousOnRandomTreesProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	env := trajectory.NewEnv(uxs.NewVerified(uxs.DefaultFamily(6), 1))
	met, total := 0, 0
	f := func(seed int64, aRaw, bRaw uint16, s1Raw, s2Raw uint8) bool {
		g := graph.RandomTree(4+int(uint64(seed)%3), seed)
		if v, ok := env.Catalog().(*uxs.Verified); ok && !v.Covers(g) {
			v.Extend(g)
		}
		l1 := labels.Label(aRaw%200 + 1)
		l2 := labels.Label(bRaw%200 + 1)
		if l1 == l2 {
			return true
		}
		s1 := int(s1Raw) % g.N()
		s2 := int(s2Raw) % g.N()
		if s1 == s2 {
			return true
		}
		res, err := Rendezvous(sched.RunOpts{}, g, s1, s2, l1, l2,
			NewStepper(l1, env), NewStepper(l2, env), PiBound(env, g.N(), l1, l2),
			&sched.RoundRobin{}, 2_000_000)
		if err != nil {
			return false
		}
		total++
		if !res.Met {
			t.Logf("no early meeting (allowed): tree seed %d labels (%d,%d) starts (%d,%d)",
				seed, l1, l2, s1, s2)
			return true
		}
		met++
		return big.NewInt(int64(res.Meeting.Cost)).Cmp(res.Bound) <= 0
	}
	cfg := &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	if total > 0 && met*2 < total {
		t.Errorf("only %d/%d instances met within budget; typical-case regression", met, total)
	}
}

// TestStepperScheduleConsistencyProperty: for random labels, the first
// moves of the master stepper follow exactly the components Schedule
// lists, via the Locate function.
func TestStepperScheduleConsistencyProperty(t *testing.T) {
	env := unitEnv()
	f := func(raw uint16) bool {
		l := labels.Label(raw%500 + 1)
		sch := Schedule(l, 2)
		// Walk prefix sums over the first few components and check
		// Locate agrees on kind at each boundary.
		prefix := new(big.Int)
		for idx, c := range sch {
			if idx > 6 {
				break
			}
			loc := Locate(l, env, prefix)
			if loc.Component.Kind != c.Kind || loc.Component.K != c.K {
				return false
			}
			prefix.Add(prefix, componentLen(env, c))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestScheduleInvariantsProperty: structural invariants of the flattened
// schedule for arbitrary labels — piece k has exactly min(k, s) segments
// of two atoms each, min(k,s)-1 borders, one fence, and the atom kinds
// follow the modified label's bits.
func TestScheduleInvariantsProperty(t *testing.T) {
	f := func(raw uint32, kMaxRaw uint8) bool {
		l := labels.Label(raw%100_000 + 1)
		kMax := 1 + int(kMaxRaw)%6
		bits := l.Modified()
		s := len(bits)
		sch := Schedule(l, kMax)
		byPiece := make(map[int][]Component)
		for _, c := range sch {
			byPiece[c.K] = append(byPiece[c.K], c)
		}
		for k := 1; k <= kMax; k++ {
			m := k
			if s < m {
				m = s
			}
			atoms, borders, fences := 0, 0, 0
			for _, c := range byPiece[k] {
				switch c.Kind {
				case CompAtomA:
					if bits[c.I-1] != 0 || c.Arg != 4*k {
						return false
					}
					atoms++
				case CompAtomB:
					if bits[c.I-1] != 1 || c.Arg != 2*k {
						return false
					}
					atoms++
				case CompK:
					borders++
				case CompOmega:
					fences++
				}
			}
			if atoms != 2*m || borders != m-1 || fences != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestPiBoundMonotoneProperty: the guarantee grows with both n and the
// shorter label length.
func TestPiBoundMonotoneProperty(t *testing.T) {
	env := unitEnv()
	f := func(nRaw, mRaw uint8) bool {
		n := 2 + int(nRaw)%10
		l1 := labels.Label(1)<<(mRaw%8) + 1 // length 1..8
		b1 := PiBound(env, n, l1, 1<<62)
		b2 := PiBound(env, n+1, l1, 1<<62)
		return b2.Cmp(b1) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
