package trajectory

import (
	"math/big"
	"sync"

	"meetpoly/internal/uxs"
)

// Env binds the trajectory algebra to an exploration-sequence catalog.
// It provides fresh steppers for each trajectory of Definitions 3.1-3.8
// and their exact lengths. Env is safe for concurrent use.
type Env struct {
	cat uxs.Catalog
	gen generational // cat's extension count, nil if it never changes

	mu      sync.Mutex
	memoGen uint64 // the generation memo's lengths were computed under
	memo    map[lenKey]*big.Int
}

// generational is a catalog whose sequences can change after use
// (uxs.Verified.Extend). Generation moves whenever they may have.
type generational interface {
	Generation() uint64
}

type lenKey struct {
	kind byte // 'X','Q','y','Y','Z','a','A','B','K','W'
	k    int
}

// NewEnv returns an Env over the given catalog.
func NewEnv(cat uxs.Catalog) *Env {
	e := &Env{cat: cat, memo: make(map[lenKey]*big.Int)}
	e.gen, _ = cat.(generational)
	return e
}

// Catalog returns the exploration-sequence catalog backing the Env.
func (e *Env) Catalog() uxs.Catalog { return e.cat }

// R returns the stepper for Reingold's trajectory R(k, v): the agent
// follows the catalog's exploration sequence for parameter k.
func (e *Env) R(k int) Stepper { return NewUXS(e.cat.Seq(k)) }

// X returns the trajectory X(k, v) = R(k, v) R̄(k, v) (Definition 3.1).
func (e *Env) X(k int) Stepper { return Mirror(e.R(k)) }

// Q returns Q(k, v) = X(1, v) X(2, v) ... X(k, v) (Definition 3.2).
func (e *Env) Q(k int) Stepper {
	return Chain(func(i int) Stepper {
		if i >= k {
			return nil
		}
		return e.X(i + 1)
	})
}

// YPrime returns Y'(k, v): R(k, v) with a Q(k, ·) excursion inserted at
// every visited node (Definition 3.3).
func (e *Env) YPrime(k int) Stepper {
	return Interleave(e.R(k), func() Stepper { return e.Q(k) })
}

// Y returns Y(k, v) = Y'(k, v) Y̅'(k, v) (Definition 3.3).
func (e *Env) Y(k int) Stepper { return Mirror(e.YPrime(k)) }

// Z returns Z(k, v) = Y(1, v) Y(2, v) ... Y(k, v) (Definition 3.4).
func (e *Env) Z(k int) Stepper {
	return Chain(func(i int) Stepper {
		if i >= k {
			return nil
		}
		return e.Y(i + 1)
	})
}

// APrime returns A'(k, v): R(k, v) with a Z(k, ·) excursion inserted at
// every visited node (Definition 3.5).
func (e *Env) APrime(k int) Stepper {
	return Interleave(e.R(k), func() Stepper { return e.Z(k) })
}

// A returns A(k, v) = A'(k, v) A̅'(k, v) (Definition 3.5).
func (e *Env) A(k int) Stepper { return Mirror(e.APrime(k)) }

// B returns B(k, v) = Y(k, v)^(2|A(4k)|) (Definition 3.6).
func (e *Env) B(k int) Stepper {
	count := new(big.Int).Lsh(e.LenA(4*k), 1) // 2|A(4k)|
	return Repeat(func() Stepper { return e.Y(k) }, count)
}

// K returns K(k, v) = X(k, v)^(2(|B(4k)|+|A(8k)|)) (Definition 3.7).
func (e *Env) K(k int) Stepper {
	count := new(big.Int).Add(e.LenB(4*k), e.LenA(8*k))
	count.Lsh(count, 1)
	return Repeat(func() Stepper { return e.X(k) }, count)
}

// Omega returns Ω(k, v) = X(k, v)^((2k-1)|K(k)|) (Definition 3.8).
func (e *Env) Omega(k int) Stepper {
	count := new(big.Int).Mul(big.NewInt(int64(2*k-1)), e.LenK(k))
	return Repeat(func() Stepper { return e.X(k) }, count)
}

// lenMemo computes-and-caches a length. The memo expires with the
// catalog's generation: an extension can change P(k), and with it
// every length and every repeat count derived from one.
func (e *Env) lenMemo(kind byte, k int, f func() *big.Int) *big.Int {
	key := lenKey{kind, k}
	var gen uint64
	if e.gen != nil {
		gen = e.gen.Generation()
	}
	e.mu.Lock()
	if gen > e.memoGen {
		clear(e.memo)
		e.memoGen = gen
	}
	if v, ok := e.memo[key]; ok {
		e.mu.Unlock()
		return v
	}
	e.mu.Unlock()
	v := f()
	e.mu.Lock()
	if e.memoGen == gen {
		e.memo[key] = v
	}
	e.mu.Unlock()
	return v
}

// P returns the exploration-sequence length P(k) as a big integer.
func (e *Env) P(k int) *big.Int { return big.NewInt(int64(e.cat.P(k))) }

// LenX returns |X(k)| = 2 P(k).
func (e *Env) LenX(k int) *big.Int {
	return e.lenMemo('X', k, func() *big.Int {
		return new(big.Int).Lsh(e.P(k), 1)
	})
}

// LenQ returns |Q(k)| = sum_{i=1..k} |X(i)|.
func (e *Env) LenQ(k int) *big.Int {
	return e.lenMemo('Q', k, func() *big.Int {
		s := new(big.Int)
		for i := 1; i <= k; i++ {
			s.Add(s, e.LenX(i))
		}
		return s
	})
}

// LenYPrime returns |Y'(k)| = (P(k)+1)|Q(k)| + P(k): one Q excursion at
// each of the P(k)+1 trunk nodes plus the P(k) trunk steps.
func (e *Env) LenYPrime(k int) *big.Int {
	return e.lenMemo('y', k, func() *big.Int {
		p := e.P(k)
		s := new(big.Int).Add(p, bigOne)
		s.Mul(s, e.LenQ(k))
		return s.Add(s, p)
	})
}

// LenY returns |Y(k)| = 2|Y'(k)|.
func (e *Env) LenY(k int) *big.Int {
	return e.lenMemo('Y', k, func() *big.Int {
		return new(big.Int).Lsh(e.LenYPrime(k), 1)
	})
}

// LenZ returns |Z(k)| = sum_{i=1..k} |Y(i)|.
func (e *Env) LenZ(k int) *big.Int {
	return e.lenMemo('Z', k, func() *big.Int {
		s := new(big.Int)
		for i := 1; i <= k; i++ {
			s.Add(s, e.LenY(i))
		}
		return s
	})
}

// LenAPrime returns |A'(k)| = (P(k)+1)|Z(k)| + P(k).
func (e *Env) LenAPrime(k int) *big.Int {
	return e.lenMemo('a', k, func() *big.Int {
		p := e.P(k)
		s := new(big.Int).Add(p, bigOne)
		s.Mul(s, e.LenZ(k))
		return s.Add(s, p)
	})
}

// LenA returns |A(k)| = 2|A'(k)|.
func (e *Env) LenA(k int) *big.Int {
	return e.lenMemo('A', k, func() *big.Int {
		return new(big.Int).Lsh(e.LenAPrime(k), 1)
	})
}

// LenB returns |B(k)| = 2|A(4k)| * |Y(k)|.
func (e *Env) LenB(k int) *big.Int {
	return e.lenMemo('B', k, func() *big.Int {
		s := new(big.Int).Lsh(e.LenA(4*k), 1)
		return s.Mul(s, e.LenY(k))
	})
}

// LenK returns |K(k)| = 2(|B(4k)| + |A(8k)|) * |X(k)|.
func (e *Env) LenK(k int) *big.Int {
	return e.lenMemo('K', k, func() *big.Int {
		s := new(big.Int).Add(e.LenB(4*k), e.LenA(8*k))
		s.Lsh(s, 1)
		return s.Mul(s, e.LenX(k))
	})
}

// LenOmega returns |Ω(k)| = (2k-1)|K(k)| * |X(k)|.
func (e *Env) LenOmega(k int) *big.Int {
	return e.lenMemo('W', k, func() *big.Int {
		s := new(big.Int).Mul(big.NewInt(int64(2*k-1)), e.LenK(k))
		return s.Mul(s, e.LenX(k))
	})
}
