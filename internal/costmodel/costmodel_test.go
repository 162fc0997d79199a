package costmodel

import (
	"math"
	"math/big"
	"strings"
	"testing"
	"testing/quick"
)

func TestPPoly(t *testing.T) {
	p := PPoly(3, 2)
	for k, want := range map[int]int64{1: 3, 2: 12, 5: 75} {
		if got := p(k); got.Int64() != want {
			t.Errorf("PPoly(3,2)(%d) = %v, want %d", k, got, want)
		}
	}
	if got := p(0); got.Int64() != 3 {
		t.Errorf("PPoly clamp at 0: %v", got)
	}
}

func TestPTable(t *testing.T) {
	p := PTable([]int{5, 9, 9, 14})
	for k, want := range map[int]int64{1: 5, 2: 9, 4: 14, 9: 14, 0: 5} {
		if got := p(k); got.Int64() != want {
			t.Errorf("PTable(%d) = %v, want %d", k, got, want)
		}
	}
}

func TestBadPFuncsPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"PPoly":  func() { PPoly(0, 1) },
		"PTable": func() { PTable(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// TestStarredRecurrencesByHand pins the recurrences against hand-computed
// values for P(k) = 1 (so arithmetic mistakes cannot hide in symbols).
func TestStarredRecurrencesByHand(t *testing.T) {
	m := New(PPoly(1, 0)) // P(k) = 1 for all k
	// X* = 3; Q*_k = 3k; Y*_k = 2*3k = 6k; Z*_k = 6*k(k+1)/2 = 3k(k+1);
	// A*_k = 2*Z*_k = 6k(k+1);
	// B*_k = 2*A*_{4k}*Y*_k = 2*6*4k*(4k+1)*6k = 288k^2(4k+1)
	checks := []struct {
		name string
		f    func(int) *big.Int
		k    int
		want int64
	}{
		{"X*", m.XStar, 5, 3},
		{"Q*", m.QStar, 5, 15},
		{"Y*", m.YStar, 5, 30},
		{"Z*", m.ZStar, 5, 90},
		{"A*", m.AStar, 5, 180},
		{"B*", m.BStar, 1, 288 * 5},
		{"B*", m.BStar, 2, 288 * 4 * 9},
		{"K*", m.KStar, 1, 2 * (288*16*17 + 6*8*9) * 3},
		{"Ω*", m.OmegaStar, 1, 1 * 2 * (288*16*17 + 6*8*9) * 3 * 3},
	}
	for _, c := range checks {
		if got := c.f(c.k); got.Int64() != c.want {
			t.Errorf("%s(%d) = %v, want %d", c.name, c.k, got, c.want)
		}
	}
}

func TestHorizonAndModifiedLen(t *testing.T) {
	if got := ModifiedLen(3); got != 8 {
		t.Errorf("ModifiedLen(3) = %d, want 8", got)
	}
	// N = 2(n+l)+1 with l = 2m+2.
	if got := Horizon(4, 3); got != 2*(4+8)+1 {
		t.Errorf("Horizon(4,3) = %d", got)
	}
}

func TestPiPositiveAndMonotone(t *testing.T) {
	m := New(PLinear(2))
	prev := big.NewInt(0)
	for n := 2; n <= 8; n++ {
		pi := m.Pi(n, 1)
		if pi.Cmp(prev) <= 0 {
			t.Errorf("Pi(%d,1) = %v not increasing (prev %v)", n, pi, prev)
		}
		prev = pi
	}
	prev = big.NewInt(0)
	for mm := 1; mm <= 8; mm++ {
		pi := m.Pi(3, mm)
		if pi.Cmp(prev) <= 0 {
			t.Errorf("Pi(3,%d) = %v not increasing in label length", mm, pi)
		}
		prev = pi
	}
}

// TestPiPolynomialSlope regenerates the paper's headline shape: log Pi
// grows linearly in log n (polynomial), with slope roughly the degree of
// the composition; doubling n multiplies Pi by a bounded factor.
func TestPiPolynomialSlope(t *testing.T) {
	m := New(PLinear(1))
	l1 := ApproxLog2(m.Pi(8, 1))
	l2 := ApproxLog2(m.Pi(16, 1))
	l3 := ApproxLog2(m.Pi(32, 1))
	s12 := l2 - l1
	s23 := l3 - l2
	// Polynomial: successive doublings raise log2 by a near-constant
	// amount (the effective degree). Exponential growth would make the
	// increments themselves grow linearly in n (i.e. s23 >> s12).
	if s23 > s12*1.5 {
		t.Errorf("Pi growth looks super-polynomial: increments %.2f then %.2f", s12, s23)
	}
	if s12 < 1 || s12 > 20 {
		t.Errorf("unexpected effective degree: doubling n raises log2(Pi) by %.2f", s12)
	}
}

// TestBaselineDoublyExponentialInLabelLength regenerates the gap claim:
// the baseline's cost is exponential in the label value, i.e. doubly
// exponential in the label length, while Pi is polynomial in the length.
func TestBaselineDoublyExponentialInLabelLength(t *testing.T) {
	m := New(PLinear(1))
	n := 4
	// Label value 2^len - 1 for len = 1..4.
	var prevLog float64
	for length := 1; length <= 4; length++ {
		label := uint64(1)<<length - 1
		c := m.BaselineCost(n, label)
		lg := ApproxLog2(c)
		if length > 1 && lg < prevLog*1.8 {
			t.Errorf("baseline log2 cost at len %d = %.1f; expected roughly doubling from %.1f",
				length, lg, prevLog)
		}
		prevLog = lg
	}
	// And the rendezvous bound must beat the baseline decisively already
	// for modest labels.
	pi := m.Pi(n, 8) // 8-bit labels
	base := m.BaselineCost(n, 255)
	if pi.Cmp(base) >= 0 {
		t.Errorf("Pi(%d,8) = %v not smaller than baseline %v for 8-bit labels", n, pi, base)
	}
}

// TestBaselineTotal pins BaselineTotal to the sum of the two per-agent
// costs, and WithinBaseline to BaselineTotal at the sum and one past it.
// The model caches the costs, so some cases first modify a value the
// model returned: a caller's arithmetic must not reach the cache. The
// last two reach WithinBaseline's int64 edges: an addend of 2^63 or
// more, and two int64 addends whose sum is not an int64.
func TestBaselineTotal(t *testing.T) {
	p30 := func(int) *big.Int { return big.NewInt(1 << 30) } // BaselineCost(n, 1) = 2^62 + 2^31
	for _, tc := range []struct {
		name   string
		p      PFunc
		l1, l2 uint64
		mutate func(m *Model)
	}{
		{"untouched", PLinear(1), 1, 2, func(*Model) {}},
		{"BaselineCost modified", PLinear(1), 1, 2, func(m *Model) { m.BaselineCost(3, 1).SetInt64(-1) }},
		{"BaselineTotal modified", PLinear(1), 1, 2, func(m *Model) { m.BaselineTotal(3, 1, 2).SetInt64(-1) }},
		{"addend beyond int64", PLinear(1), 2, 64, func(*Model) {}},
		{"sum beyond int64", p30, 1, 1, func(*Model) {}},
	} {
		m := New(tc.p)
		m.BaselineTotal(3, tc.l1, tc.l2) // fill the cache
		tc.mutate(m)
		fresh := New(tc.p)
		want := new(big.Int).Add(fresh.BaselineCost(3, tc.l1), fresh.BaselineCost(3, tc.l2))
		if tot := m.BaselineTotal(3, tc.l1, tc.l2); tot.Cmp(want) != 0 {
			t.Errorf("%s: BaselineTotal = %v, want %v", tc.name, tot, want)
		}
		if c := m.BaselineCost(3, tc.l1); c.Cmp(fresh.BaselineCost(3, tc.l1)) != 0 {
			t.Errorf("%s: BaselineCost = %v, want %v", tc.name, c, fresh.BaselineCost(3, tc.l1))
		}
		within := func(cost int64) bool {
			ok, err := m.WithinBaseline(3, tc.l1, tc.l2, cost)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return ok
		}
		if want.IsInt64() {
			if w := want.Int64(); !within(w) || within(w+1) {
				t.Errorf("%s: WithinBaseline at %d, %d = %v, %v; want true, false", tc.name, w, w+1, within(w), within(w+1))
			}
		} else if !within(math.MaxInt64) {
			t.Errorf("%s: WithinBaseline rejects cost 2^63-1 under a bound of %v", tc.name, want)
		}
	}
}

// TestWithinPiTotal pins WithinPiTotal to cost ≤ 2Π against the
// model's memoized Π, which each case sets: at 2Π − 1, 2Π and 2Π + 1
// while 2Π is an int64, for every nonnegative cost once 2Π reaches 2^63
// (Π = 2^62, and the model's own Π(3, 1), which is not an int64), and
// never for a negative cost. No call allocates.
func TestWithinPiTotal(t *testing.T) {
	own := New(PLinear(1)).Pi(3, 1)
	if own.IsInt64() {
		t.Fatalf("Π(3, 1) = %v is an int64: the case beyond int64 needs a larger Π", own)
	}
	for _, pi := range []*big.Int{big.NewInt(0), big.NewInt(1000), big.NewInt(1<<62 - 1), big.NewInt(1 << 62), own} {
		m := New(PLinear(1))
		m.piMemo[[2]int{3, 1}] = pi
		twice := new(big.Int).Lsh(pi, 1)
		costs := []int64{-1, math.MinInt64, 0, math.MaxInt64}
		if twice.IsInt64() {
			w := twice.Int64()
			costs = append(costs, w, w+1)
			if w > 0 {
				costs = append(costs, w-1)
			}
		}
		for _, cost := range costs {
			want := cost >= 0 && big.NewInt(cost).Cmp(twice) <= 0
			if got := m.WithinPiTotal(3, 1, cost); got != want {
				t.Errorf("Π = %v: WithinPiTotal(cost %d) = %v, want %v", pi, cost, got, want)
			}
			if allocs := testing.AllocsPerRun(100, func() { m.WithinPiTotal(3, 1, cost) }); allocs != 0 {
				t.Errorf("Π = %v: WithinPiTotal(cost %d) allocates %.0f times", pi, cost, allocs)
			}
		}
	}
}

func TestCheckLemmasHold(t *testing.T) {
	for _, p := range []PFunc{PLinear(1), PLinear(3), PPoly(1, 2), PPoly(1, 3)} {
		m := New(p)
		for _, n := range []int{2, 3, 5, 8} {
			for _, l := range []int{4, 6, 10} {
				iqs := m.CheckLemmas(n, l)
				if len(iqs) < 7 {
					t.Fatalf("expected >= 7 inequalities, got %d", len(iqs))
				}
				for _, iq := range iqs {
					if !iq.Holds {
						t.Errorf("%s fails at n=%d l=%d: LHS=%v RHS=%v",
							iq.Name, n, l, iq.LHS, iq.RHS)
					}
				}
				if !AllHold(iqs) {
					t.Errorf("AllHold false at n=%d l=%d", n, l)
				}
			}
		}
	}
}

// TestLemmasHoldMemoized: LemmasHold is CheckLemmas collapsed to a
// verdict, and after its first call a combination's verdict comes from
// the model's memo without allocating.
func TestLemmasHoldMemoized(t *testing.T) {
	m := New(PLinear(2))
	for _, c := range [][2]int{{2, 4}, {5, 8}, {8, 12}} {
		n, l := c[0], c[1]
		holds, name := m.LemmasHold(n, l)
		if holds != AllHold(m.CheckLemmas(n, l)) || holds != (name == "") {
			t.Errorf("LemmasHold(%d, %d) = %v, %q; CheckLemmas says %v",
				n, l, holds, name, AllHold(m.CheckLemmas(n, l)))
		}
		if allocs := testing.AllocsPerRun(100, func() { m.LemmasHold(n, l) }); allocs != 0 {
			t.Errorf("LemmasHold(%d, %d) allocates %.0f times after its first call", n, l, allocs)
		}
	}
}

func TestCheckLemmasProperty(t *testing.T) {
	m := New(PLinear(2))
	f := func(nRaw, lRaw uint8) bool {
		n := 2 + int(nRaw)%12
		l := 4 + 2*(int(lRaw)%8)
		return AllHold(m.CheckLemmas(n, l))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCheckLemmasPanicsOnBadArgs(t *testing.T) {
	m := New(PLinear(1))
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n < 2")
		}
	}()
	m.CheckLemmas(1, 4)
}

func TestMonotone(t *testing.T) {
	m := New(PLinear(2))
	if msg := m.Monotone(24); msg != "" {
		t.Errorf("Monotone violation: %s", msg)
	}
}

func TestApproxLog2(t *testing.T) {
	if got := ApproxLog2(big.NewInt(1024)); got < 9.99 || got > 10.01 {
		t.Errorf("ApproxLog2(1024) = %v", got)
	}
	huge := new(big.Int).Lsh(big.NewInt(1), 300)
	if got := ApproxLog2(huge); got < 299.9 || got > 300.1 {
		t.Errorf("ApproxLog2(2^300) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive value")
		}
	}()
	ApproxLog2(big.NewInt(0))
}

func TestModelString(t *testing.T) {
	if s := New(PLinear(1)).String(); !strings.Contains(s, "costmodel{") {
		t.Errorf("String() = %q", s)
	}
}

func TestMemoizationConsistency(t *testing.T) {
	m := New(PPoly(2, 2))
	a := m.KStar(3)
	b := m.KStar(3)
	if a.Cmp(b) != 0 {
		t.Error("memoized value differs")
	}
	// The returned big.Ints are shared; mutating them would corrupt the
	// cache. Verify the accessor returns consistent values after use.
	_ = new(big.Int).Add(a, big.NewInt(1))
	if m.KStar(3).Cmp(b) != 0 {
		t.Error("cache corrupted by arithmetic on returned value")
	}
}
