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
package baseline

import (
	"fmt"
	"math/big"

	"meetpoly/internal/costmodel"
	"meetpoly/internal/graph"
	"meetpoly/internal/labels"
	"meetpoly/internal/rverr"
	"meetpoly/internal/sched"
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

// Result summarizes a baseline rendezvous execution.
type Result struct {
	Met     bool
	Meeting *sched.Meeting
	Summary sched.Summary
	Bound   *big.Int // total-cost upper bound for both agents
}

// Rendezvous runs the baseline algorithm for both agents (labels must be
// distinct) under the given adversary.
func Rendezvous(g *graph.Graph, start1, start2 int, l1, l2 labels.Label,
	env *trajectory.Env, adv sched.Adversary, budget int) (*Result, error) {
	return RendezvousWith(sched.RunOpts{}, g, start1, start2, l1, l2, env, adv, budget)
}

// RendezvousWith is Rendezvous with cross-cutting execution options
// (context cancellation and an execution observer).
func RendezvousWith(opts sched.RunOpts, g *graph.Graph, start1, start2 int, l1, l2 labels.Label,
	env *trajectory.Env, adv sched.Adversary, budget int) (*Result, error) {
	n := g.N()
	return RendezvousSteppers(opts, g, start1, start2, l1, l2, env, adv, budget,
		NewStepper(env, n, l1), NewStepper(env, n, l2))
}

// RendezvousSteppers is RendezvousWith with the agents' trajectory
// steppers supplied by the caller (the engine passes cached route
// replays — see trajectory.RouteBook). The steppers must render exactly
// the baseline trajectories of l1 and l2 at the graph's size.
func RendezvousSteppers(opts sched.RunOpts, g *graph.Graph, start1, start2 int, l1, l2 labels.Label,
	env *trajectory.Env, adv sched.Adversary, budget int, s1, s2 trajectory.Stepper) (*Result, error) {
	if l1 == l2 {
		return nil, fmt.Errorf("baseline: agents must have distinct labels: %w", rverr.ErrInvalidScenario)
	}
	n := g.N()
	a := &sched.Walker{Stepper: s1, StopAtMeeting: true, Payload: l1}
	b := &sched.Walker{Stepper: s2, StopAtMeeting: true, Payload: l2}
	r, err := sched.NewRunner(sched.Config{
		Graph:              g,
		Starts:             []int{start1, start2},
		Agents:             []sched.Agent{a, b},
		InitiallyAwake:     []int{0, 1},
		MaxSteps:           budget,
		StopAtFirstMeeting: true,
		Context:            opts.Ctx,
		Observer:           opts.Observer,
	}, adv)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	defer r.Close()
	sum := r.Run()
	bound := new(big.Int).Add(CostBound(env, n, l1), CostBound(env, n, l2))
	return &Result{
		Met:     sum.FirstMeeting != nil,
		Meeting: sum.FirstMeeting,
		Summary: sum,
		Bound:   bound,
	}, nil
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

// Model returns the closed-form cost model of the baseline over the
// environment's catalog, for the tables of experiment E3.
func Model(env *trajectory.Env) *costmodel.Model {
	return costmodel.New(func(k int) *big.Int {
		return big.NewInt(int64(env.Catalog().P(k)))
	})
}
