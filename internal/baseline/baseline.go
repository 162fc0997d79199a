// Package baseline implements the exponential-cost rendezvous scheme the
// paper improves upon: the naive label-exponent algorithm described in
// the opening of §3, which matches the cost shape of the prior art [17,
// 18] — exponential in the size of the graph and in the label VALUE
// (hence doubly exponential in the label length).
//
// An agent with label L in a graph of known size n follows
//
//	(X(n, v))^((2P(n)+1)^L)
//
// and stops. The larger agent performs more integral X(n, ·) repetitions
// than the smaller agent makes edge traversals in total, so if they have
// not met earlier, the larger agent sweeps the graph after the smaller
// one has parked — a meeting follows.
//
// The paper's actual predecessor [17] removes the known-n assumption at
// further exponential cost; this implementation keeps known n, making the
// baseline strictly stronger (it gets information the new algorithm does
// not have) and the cost comparison of experiment E3 conservative.
//
// The package holds the trajectory and its bounds only; core.Rendezvous
// runs two baseline walkers like any other label-carrying pair.
package baseline

import (
	"math/big"

	"meetpoly/internal/labels"
	"meetpoly/internal/trajectory"
)

// Repetitions returns (2P(n)+1)^L, the number of X(n, v) copies the
// agent with label l performs.
func Repetitions(env *trajectory.Env, n int, l labels.Label) *big.Int {
	base := new(big.Int).Lsh(big.NewInt(int64(env.Catalog().P(n))), 1)
	base.Add(base, big.NewInt(1))
	return base.Exp(base, new(big.Int).SetUint64(uint64(l)), nil)
}

// NewStepper returns the baseline trajectory for label l with known
// graph size n: X(n, v) repeated (2P(n)+1)^L times, then halt.
func NewStepper(env *trajectory.Env, n int, l labels.Label) trajectory.Stepper {
	return trajectory.Repeat(func() trajectory.Stepper { return env.X(n) }, Repetitions(env, n, l))
}

// CostBound returns the exact per-agent traversal count of the baseline:
// |X(n)| * (2P(n)+1)^L.
func CostBound(env *trajectory.Env, n int, l labels.Label) *big.Int {
	c := Repetitions(env, n, l)
	return c.Mul(c, env.LenX(n))
}

// GuaranteeHolds verifies the baseline's counting argument for a concrete
// instance: the larger agent's number of integral X(n) repetitions must
// exceed the smaller agent's total traversal count. This is the invariant
// that makes the naive scheme correct — and the reason its cost is
// exponential in the label value.
func GuaranteeHolds(env *trajectory.Env, n int, l1, l2 labels.Label) bool {
	small, large := l1, l2
	if small > large {
		small, large = large, small
	}
	repsLarge := Repetitions(env, n, large)
	costSmall := CostBound(env, n, small)
	return repsLarge.Cmp(costSmall) > 0
}
