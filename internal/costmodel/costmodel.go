// Package costmodel evaluates, exactly and symbolically, the cost bounds
// proved in the paper: the starred recurrences from the proof of Theorem
// 3.1 (X*, Q*, Y*, Z*, A*, B*, K*, Ω*, T*), the rendezvous guarantee
// Π(n, m), and the cost of the exponential baseline the paper improves
// upon. All quantities are big integers parameterized by the exploration
// length polynomial P, so the package regenerates the paper's
// quantitative content — polynomial growth in the graph size and in the
// length of the smaller label, versus exponential/doubly-exponential
// growth for the baseline — without executing the (astronomically long)
// worst-case walks. See DESIGN.md §2.3.
package costmodel

import (
	"fmt"
	"math"
	"math/big"
	"sync"
)

// PFunc is an exploration length polynomial: P(k) is the number of edge
// traversals of the trajectory R(k, v). It must be non-decreasing.
type PFunc func(k int) *big.Int

// PPoly returns P(k) = c * k^d, the generic stand-in for Reingold's
// polynomial (whose degree the paper leaves abstract).
func PPoly(c, d int) PFunc {
	if c < 1 || d < 0 {
		panic("costmodel: PPoly needs c >= 1, d >= 0")
	}
	return func(k int) *big.Int {
		if k < 1 {
			return big.NewInt(int64(c))
		}
		p := new(big.Int).Exp(big.NewInt(int64(k)), big.NewInt(int64(d)), nil)
		return p.Mul(p, big.NewInt(int64(c)))
	}
}

// PLinear returns P(k) = c * k, the shape achieved by family-verified
// compact catalogs on small graph families.
func PLinear(c int) PFunc { return PPoly(c, 1) }

// PTable returns a PFunc backed by concrete measured lengths, clamped to
// the last entry beyond the table (matching verified catalogs, whose P
// plateaus once the family's largest graph is covered).
func PTable(lens []int) PFunc {
	if len(lens) == 0 {
		panic("costmodel: PTable needs at least one entry")
	}
	return func(k int) *big.Int {
		if k < 1 {
			k = 1
		}
		if k > len(lens) {
			k = len(lens)
		}
		return big.NewInt(int64(lens[k-1]))
	}
}

// Model memoizes the starred recurrences for a fixed P. Safe for
// concurrent use.
type Model struct {
	p PFunc

	mu        sync.Mutex
	memo      map[key]*big.Int
	prefixHi  map[byte]int            // highest index with a computed prefix sum
	piMemo    map[[2]int]*big.Int     // Pi cached per (n, mLen): oracles re-ask per run
	lemmaMemo map[[2]int]lemmaVerdict // LemmasHold cached per (n, l), for the same reason
	baseMemo  map[baseKey]*big.Int    // baselineCost per (n, label ≤ baseMemoMax), likewise
}

// baseKey names one memoized baseline cost.
type baseKey struct {
	n     int
	label uint64
}

// baseMemoMax is the largest label whose baseline cost a Model keeps.
// Campaign cells carry labels 1..64; a larger label, whose cost grows
// with its value, is computed afresh rather than kept.
const baseMemoMax = 64

// lemmaVerdict is one memoized LemmasHold result.
type lemmaVerdict struct {
	holds bool
	fail  string
}

type key struct {
	kind byte
	k    int
}

// New returns a Model over the given exploration length polynomial.
func New(p PFunc) *Model {
	return &Model{
		p:         p,
		memo:      make(map[key]*big.Int),
		prefixHi:  make(map[byte]int),
		piMemo:    make(map[[2]int]*big.Int),
		lemmaMemo: make(map[[2]int]lemmaVerdict),
		baseMemo:  make(map[baseKey]*big.Int),
	}
}

func (m *Model) get(kind byte, k int, f func() *big.Int) *big.Int {
	kk := key{kind, k}
	m.mu.Lock()
	if v, ok := m.memo[kk]; ok {
		m.mu.Unlock()
		return v
	}
	m.mu.Unlock()
	v := f()
	m.mu.Lock()
	m.memo[kk] = v
	m.mu.Unlock()
	return v
}

// P returns P(k).
func (m *Model) P(k int) *big.Int { return m.p(k) }

// XStar returns X*_k = 2P(k) + 1.
func (m *Model) XStar(k int) *big.Int {
	return m.get('X', k, func() *big.Int {
		v := new(big.Int).Lsh(m.p(k), 1)
		return v.Add(v, one)
	})
}

// QStar returns Q*_k = sum_{i=1..k} X*_i.
func (m *Model) QStar(k int) *big.Int {
	return m.prefixSum('Q', k, m.XStar)
}

// prefixSum memoizes sum_{i=1..k} f(i) incrementally: the sum is only
// ever extended from its highest computed index, keeping sweeps over
// growing k linear instead of quadratic.
func (m *Model) prefixSum(kind byte, k int, f func(int) *big.Int) *big.Int {
	m.mu.Lock()
	if v, ok := m.memo[key{kind, k}]; ok {
		m.mu.Unlock()
		return v
	}
	base := m.prefixHi[kind]
	acc := new(big.Int)
	if base > 0 {
		acc.Set(m.memo[key{kind, base}])
	}
	m.mu.Unlock()
	for i := base + 1; i <= k; i++ {
		acc.Add(acc, f(i))
		stored := new(big.Int).Set(acc)
		m.mu.Lock()
		m.memo[key{kind, i}] = stored
		if i > m.prefixHi[kind] {
			m.prefixHi[kind] = i
		}
		m.mu.Unlock()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.memo[key{kind, k}]
}

// YStar returns Y*_k = 2P(k) * Q*_k.
func (m *Model) YStar(k int) *big.Int {
	return m.get('Y', k, func() *big.Int {
		v := new(big.Int).Lsh(m.p(k), 1)
		return v.Mul(v, m.QStar(k))
	})
}

// ZStar returns Z*_k = sum_{i=1..k} Y*_i.
func (m *Model) ZStar(k int) *big.Int {
	return m.prefixSum('Z', k, m.YStar)
}

// AStar returns A*_k = 2P(k) * Z*_k.
func (m *Model) AStar(k int) *big.Int {
	return m.get('A', k, func() *big.Int {
		v := new(big.Int).Lsh(m.p(k), 1)
		return v.Mul(v, m.ZStar(k))
	})
}

// BStar returns B*_k = 2 A*_{4k} * Y*_k.
func (m *Model) BStar(k int) *big.Int {
	return m.get('B', k, func() *big.Int {
		v := new(big.Int).Lsh(m.AStar(4*k), 1)
		return v.Mul(v, m.YStar(k))
	})
}

// KStar returns K*_k = 2(B*_{4k} + A*_{8k}) * X*_k.
func (m *Model) KStar(k int) *big.Int {
	return m.get('K', k, func() *big.Int {
		v := new(big.Int).Add(m.BStar(4*k), m.AStar(8*k))
		v.Lsh(v, 1)
		return v.Mul(v, m.XStar(k))
	})
}

// OmegaStar returns Ω*_k = (2k-1) K*_k * X*_k.
func (m *Model) OmegaStar(k int) *big.Int {
	return m.get('W', k, func() *big.Int {
		v := new(big.Int).Mul(big.NewInt(int64(2*k-1)), m.KStar(k))
		return v.Mul(v, m.XStar(k))
	})
}

var one = big.NewInt(1)

// TStar returns the proof's bound on the length of the k-th piece when
// the modified-label horizon is N: T*_k <= N(2A*_{4k} + 2B*_{2k} + K*_k).
func (m *Model) TStar(k, n2 int) *big.Int {
	v := new(big.Int).Lsh(m.AStar(4*k), 1)
	b := new(big.Int).Lsh(m.BStar(2*k), 1)
	v.Add(v, b)
	v.Add(v, m.KStar(k))
	return v.Mul(v, big.NewInt(int64(n2)))
}

// ModifiedLen returns l = 2m + 2, the length of the modified label of a
// label of binary length m.
func ModifiedLen(m int) int { return 2*m + 2 }

// Horizon returns N = 2(n + l) + 1, the piece index by which Theorem 3.1
// guarantees the meeting, for graph size n and shorter-label length m.
func Horizon(n, m int) int { return 2*(n+ModifiedLen(m)) + 1 }

// Pi returns Π(n, m) = sum_{k=1..N} (T*_k + Ω*_k): the Theorem 3.1 bound
// on the number of edge traversals either agent performs before the
// meeting is guaranteed, where n is the graph size and m the length of
// the smaller label. Results are cached per (n, m): campaign oracles
// re-ask for the same handful of combinations once per executed run.
func (m *Model) Pi(n, mLen int) *big.Int {
	pk := [2]int{n, mLen}
	m.mu.Lock()
	if v, ok := m.piMemo[pk]; ok {
		m.mu.Unlock()
		return v
	}
	m.mu.Unlock()
	nn := Horizon(n, mLen)
	s := new(big.Int)
	for k := 1; k <= nn; k++ {
		s.Add(s, m.TStar(k, nn))
		s.Add(s, m.OmegaStar(k))
	}
	m.mu.Lock()
	m.piMemo[pk] = s
	m.mu.Unlock()
	return s
}

// BaselineCost returns the per-agent cost of the naive exponential
// algorithm the paper describes in §3 (and attributes, in cost shape, to
// [17, 18]): an agent with label L in a graph of known size n follows
// (R(n,v) R̄(n,v))^((2P(n)+1)^L), i.e. 2P(n) * (2P(n)+1)^L traversals.
// The result is exponential in the label *value* L — hence doubly
// exponential in the label length — and exponential in n through P's
// argument when P itself must absorb a size guess.
//
// The exact integer is materialized, so labelValue is capped: beyond
// 2^20 the value would occupy gigabytes (that blow-up IS the paper's
// point); use BaselineLog2 for large labels. The result is the
// caller's to modify.
func (m *Model) BaselineCost(n int, labelValue uint64) *big.Int {
	return new(big.Int).Set(m.baselineCost(n, labelValue))
}

// baselineCost is BaselineCost, cached per (n, labelValue) for labels up
// to baseMemoMax, as Pi is: the baseline oracle asks per executed run.
// The value may be shared, so callers must not modify it.
func (m *Model) baselineCost(n int, labelValue uint64) *big.Int {
	if labelValue > 1<<20 {
		panic("costmodel: BaselineCost would materialize gigabytes; use BaselineLog2")
	}
	bk := baseKey{n, labelValue}
	if labelValue <= baseMemoMax {
		m.mu.Lock()
		v, ok := m.baseMemo[bk]
		m.mu.Unlock()
		if ok {
			return v
		}
	}
	base := m.XStar(n) // 2P(n)+1
	v := new(big.Int).Exp(base, new(big.Int).SetUint64(labelValue), nil)
	v.Mul(v, new(big.Int).Lsh(m.p(n), 1))
	if labelValue <= baseMemoMax {
		m.mu.Lock()
		m.baseMemo[bk] = v
		m.mu.Unlock()
	}
	return v
}

// BaselineLog2 returns log2 of the baseline's per-agent cost without
// materializing it: labelValue * log2(2P(n)+1) + log2(2P(n)).
func (m *Model) BaselineLog2(n int, labelValue uint64) float64 {
	per := new(big.Int).Lsh(m.p(n), 1)
	return float64(labelValue)*ApproxLog2(m.XStar(n)) + ApproxLog2(per)
}

// BaselineTotal returns the baseline's total cost for two agents, as a
// fresh value.
func (m *Model) BaselineTotal(n int, l1, l2 uint64) *big.Int {
	return new(big.Int).Add(m.baselineCost(n, l1), m.baselineCost(n, l2))
}

// ApproxLog2 returns a float approximation of log2 of a positive big
// integer, for slope/table rendering.
func ApproxLog2(v *big.Int) float64 {
	if v.Sign() <= 0 {
		panic("costmodel: ApproxLog2 needs a positive value")
	}
	bits := v.BitLen()
	// Use the top 53 bits for the mantissa.
	shift := 0
	if bits > 53 {
		shift = bits - 53
	}
	top := new(big.Int).Rsh(v, uint(shift))
	f, _ := new(big.Float).SetInt(top).Float64()
	return float64(shift) + math.Log2(f)
}

// String renders a short description of the model for reports.
func (m *Model) String() string {
	return fmt.Sprintf("costmodel{P(1)=%v,P(2)=%v,P(4)=%v}", m.p(1), m.p(2), m.p(4))
}
