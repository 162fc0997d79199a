package costmodel

import (
	"fmt"
	"math"
	"math/big"
)

// This file exports the cost bounds of the paper as machine-checkable
// oracle predicates: campaign sweeps (internal/campaign) evaluate every
// run against them, so the Theorem 3.1 guarantee is verified on every
// generated scenario instead of a handful of hand-picked ones.

// NewFromLengths returns a Model over the concrete measured lengths of
// an exploration-sequence catalog (uxs.Catalog.P fits the signature).
// This is how per-run oracles bind the symbolic recurrences to the
// catalog an engine actually executed with.
func NewFromLengths(p func(k int) int) *Model {
	return New(func(k int) *big.Int {
		if k < 1 {
			k = 1
		}
		return big.NewInt(int64(p(k)))
	})
}

// WithinPi reports whether an observed cost respects the Theorem 3.1
// guarantee Π(n, mLen) for graph size n and shorter-label length mLen.
// It applies both to an agent's own traversal count and to the total
// meeting cost (either agent's traversals are individually bounded by Π,
// and the recorded meeting cost is the sum of two such counts, bounded
// by 2Π; the stricter single-agent form is used for per-agent accounts).
func (m *Model) WithinPi(n, mLen int, cost int64) bool {
	if cost < 0 {
		return false
	}
	return big.NewInt(cost).Cmp(m.Pi(n, mLen)) <= 0
}

// WithinPiTotal reports whether a total (two-agent) meeting cost respects
// 2·Π(n, mLen). It compares in int64 against the memoized Π, without
// building 2Π.
func (m *Model) WithinPiTotal(n, mLen int, cost int64) bool {
	if cost < 0 {
		return false
	}
	pi := m.Pi(n, mLen)
	if !pi.IsInt64() || pi.Int64() >= 1<<62 {
		return true // 2Π of 2^63 or more exceeds any int64 cost
	}
	return cost <= 2*pi.Int64()
}

// WithinBaseline reports whether a total meeting cost of the exponential
// comparator respects its own bound BaselineTotal(n, l1, l2). Label
// values beyond the BaselineCost materialization cap are rejected rather
// than evaluated. It compares against the two cached per-agent costs
// without building their sum.
func (m *Model) WithinBaseline(n int, l1, l2 uint64, cost int64) (bool, error) {
	if l1 > 1<<20 || l2 > 1<<20 {
		return false, fmt.Errorf("costmodel: baseline oracle caps label values at 2^20 (got %d, %d)", l1, l2)
	}
	if cost < 0 {
		return false, nil
	}
	a, b := m.baselineCost(n, l1), m.baselineCost(n, l2)
	if !a.IsInt64() || !b.IsInt64() {
		return true, nil // a nonnegative addend of 2^63 or more exceeds any int64 cost
	}
	x, y := a.Int64(), b.Int64()
	return x > math.MaxInt64-y || cost <= x+y, nil
}

// LemmasHold reports whether every counting inequality of Lemmas 3.2-3.6
// and Theorem 3.1 holds at graph size n and modified-label length l
// (l = ModifiedLen(mLen) >= 4). It is CheckLemmas collapsed to the
// verdict campaign oracles need, with the first failing inequality named.
// Verdicts are cached per (n, l), like Pi: every oracle suite over this
// model asks for the same handful of combinations once per executed run.
func (m *Model) LemmasHold(n, l int) (bool, string) {
	k := [2]int{n, l}
	m.mu.Lock()
	v, ok := m.lemmaMemo[k]
	m.mu.Unlock()
	if ok {
		return v.holds, v.fail
	}
	v.holds = true
	for _, iq := range m.CheckLemmas(n, l) {
		if !iq.Holds {
			v = lemmaVerdict{fail: iq.Name}
			break
		}
	}
	m.mu.Lock()
	m.lemmaMemo[k] = v
	m.mu.Unlock()
	return v.holds, v.fail
}
