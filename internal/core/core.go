// Package core implements Algorithm RV-asynch-poly (§3.1 of the paper):
// deterministic asynchronous rendezvous of two labelled agents in an
// arbitrary unknown graph at cost polynomial in the graph size and in the
// length of the smaller label.
//
// An agent with label L first forms its modified label
// M(L) = b1 b2 ... bs (each bit doubled plus the terminator 01, package
// labels). It then follows, forever or until rendezvous, the schedule
//
//	for k = 1, 2, 3, ...          // pieces
//	  for i = 1 .. min(k, s)
//	    bit bi == 1:  follow B(2k, v) twice   // segment of two atoms
//	    bit bi == 0:  follow A(4k, v) twice
//	    i < min(k,s): follow K(k, v)          // border
//	    i == min(k,s): follow Ω(k, v)         // fence
//
// all anchored at its starting node v. The interplay of pieces, fences,
// segments, atoms and borders synchronizes the two agents despite the
// adversary's control of their speeds (Lemmas 3.2-3.6) and forces a
// meeting while they process the first bit where their modified labels
// differ (Theorem 3.1).
package core

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

// ComponentKind names a building block of the master schedule.
type ComponentKind string

// Schedule component kinds.
const (
	CompAtomB ComponentKind = "B" // one atom B(2k)
	CompAtomA ComponentKind = "A" // one atom A(4k)
	CompK     ComponentKind = "K" // border K(k)
	CompOmega ComponentKind = "Ω" // fence Ω(k)
)

// Component is one entry of the flattened master schedule.
type Component struct {
	Kind ComponentKind
	K    int // the piece index k
	I    int // the bit index i within the piece
	Arg  int // the parameter passed to the trajectory (2k, 4k or k)
}

// Schedule returns the flattened component sequence of Algorithm
// RV-asynch-poly for the given label, truncated after the fence of piece
// kMax. It is the reference against which the lazy stepper is tested.
func Schedule(l labels.Label, kMax int) []Component {
	bits := l.Modified()
	s := len(bits)
	var out []Component
	for k := 1; k <= kMax; k++ {
		m := min(k, s)
		for i := 1; i <= m; i++ {
			if bits[i-1] == 1 {
				out = append(out,
					Component{CompAtomB, k, i, 2 * k},
					Component{CompAtomB, k, i, 2 * k})
			} else {
				out = append(out,
					Component{CompAtomA, k, i, 4 * k},
					Component{CompAtomA, k, i, 4 * k})
			}
			if i < m {
				out = append(out, Component{CompK, k, i, k})
			} else {
				out = append(out, Component{CompOmega, k, i, k})
			}
		}
	}
	return out
}

// NewStepper returns the infinite master trajectory of Algorithm
// RV-asynch-poly for an agent with label l, over the trajectory
// environment env. The stepper is lazy: components are instantiated when
// reached, so the astronomical tail lengths cost nothing until walked.
func NewStepper(l labels.Label, env *trajectory.Env) trajectory.Stepper {
	bits := l.Modified()
	s := len(bits)
	k, i, phase := 1, 1, 0
	return trajectory.Chain(func(int) trajectory.Stepper {
		m := min(k, s)
		switch phase {
		case 0, 1: // the two atoms of segment S_i(k)
			phase++
			if bits[i-1] == 1 {
				return env.B(2 * k)
			}
			return env.A(4 * k)
		default: // border between segments, or fence after the last
			phase = 0
			defer func() {
				i++
				if i > m {
					i = 1
					k++
				}
			}()
			if i < m {
				return env.K(k)
			}
			return env.Omega(k)
		}
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// PiBound returns Π(n, min(|L1|, |L2|)) for the environment's catalog:
// the Theorem 3.1 guarantee on the number of edge traversals either agent
// performs before the meeting is certain.
func PiBound(env *trajectory.Env, n int, l1, l2 labels.Label) *big.Int {
	m := costmodel.New(func(k int) *big.Int {
		return big.NewInt(int64(env.Catalog().P(k)))
	})
	mLen := l1.Len()
	if l2.Len() < mLen {
		mLen = l2.Len()
	}
	return m.Pi(n, mLen)
}

// Result summarizes one rendezvous execution.
type Result struct {
	Met     bool
	Meeting *sched.Meeting // first meeting, nil if none within budget
	Summary sched.Summary
	Bound   *big.Int // Π guarantee for this instance
}

// Rendezvous runs Algorithm RV-asynch-poly for two agents under the given
// adversary, stopping at the first meeting or after budget adversary
// events. Labels must be distinct and starts different; both agents are
// woken immediately unless the adversary's schedule says otherwise — the
// paper lets the adversary delay an agent arbitrarily, which the budget
// models as pre-meeting freezing, so both are marked initially awake and
// the adversary chooses who actually moves.
func Rendezvous(g *graph.Graph, start1, start2 int, l1, l2 labels.Label,
	env *trajectory.Env, adv sched.Adversary, budget int) (*Result, error) {
	return RendezvousWith(sched.RunOpts{}, g, start1, start2, l1, l2, env, adv, budget)
}

// RendezvousWith is Rendezvous with cross-cutting execution options: a
// context whose cancellation aborts the scheduler between events
// (reported in Result.Summary.Canceled) and an observer receiving the
// execution's events.
func RendezvousWith(opts sched.RunOpts, g *graph.Graph, start1, start2 int, l1, l2 labels.Label,
	env *trajectory.Env, adv sched.Adversary, budget int) (*Result, error) {
	return RendezvousSteppers(opts, g, start1, start2, l1, l2, env, adv, budget,
		NewStepper(l1, env), NewStepper(l2, env))
}

// RendezvousSteppers is RendezvousWith with the two agents' trajectory
// steppers supplied by the caller. The steppers must emit exactly the
// master trajectories of l1 and l2 — the engine passes cached route
// replays here (trajectory.RouteBook), which are deterministic renditions
// of the same walks, so repeated instances skip trajectory re-derivation.
// bound, when non-nil, is the precomputed Π(n, min label length) for the
// instance (the engine memoizes it across a sweep); nil derives it here.
func RendezvousSteppers(opts sched.RunOpts, g *graph.Graph, start1, start2 int, l1, l2 labels.Label,
	env *trajectory.Env, adv sched.Adversary, budget int, s1, s2 trajectory.Stepper, bound ...*big.Int) (*Result, error) {
	if l1 == l2 {
		return nil, fmt.Errorf("core: agents must have distinct labels: %w", rverr.ErrInvalidScenario)
	}
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
		return nil, fmt.Errorf("core: %w", err)
	}
	defer r.Close()
	sum := r.Run()
	res := &Result{
		Met:     sum.FirstMeeting != nil,
		Meeting: sum.FirstMeeting,
		Summary: sum,
	}
	if len(bound) > 0 && bound[0] != nil {
		res.Bound = bound[0]
	} else {
		res.Bound = PiBound(env, g.N(), l1, l2)
	}
	return res, nil
}

// Route materializes the first moves of the master trajectory of label l
// in g from start: the node sequence handed to the exhaustive certifier.
// Until the first meeting the agent's route is exactly this sequence.
func Route(g *graph.Graph, start int, l labels.Label, env *trajectory.Env, moves int) []int {
	tr, _ := trajectory.Run(g, start, NewStepper(l, env), moves)
	route := make([]int, 0, tr.Moves()+1)
	route = append(route, start)
	route = append(route, tr.Nodes...)
	return route
}

// CertifyInstance runs the exhaustive adversary on the two agents' route
// prefixes of the given length: the exact worst case over every schedule
// (DESIGN.md §2.2). Forced=true certifies that NO adversary can prevent
// the meeting within these prefixes.
func CertifyInstance(g *graph.Graph, start1, start2 int, l1, l2 labels.Label,
	env *trajectory.Env, moves int) (sched.CertResult, error) {
	return CertifyInstanceWith(sched.RunOpts{}, g, start1, start2, l1, l2, env, moves)
}

// CertifyInstanceWith is CertifyInstance with cross-cutting execution
// options; cancellation aborts the lattice sweep mid-run with an error
// wrapping rverr.ErrCanceled.
func CertifyInstanceWith(opts sched.RunOpts, g *graph.Graph, start1, start2 int, l1, l2 labels.Label,
	env *trajectory.Env, moves int) (sched.CertResult, error) {
	if l1 == l2 {
		return sched.CertResult{}, fmt.Errorf("core: agents must have distinct labels: %w", rverr.ErrInvalidScenario)
	}
	ra := Route(g, start1, l1, env, moves)
	rb := Route(g, start2, l2, env, moves)
	return sched.CertifyCtx(opts.Ctx, ra, rb)
}

// CertifyRoutes runs the exhaustive adversary on two pre-materialized
// route prefixes (same shape as Route's result). The engine uses it
// with cached routes so sweeps re-derive each certify route once per
// (graph, start, label) instead of once per cell.
func CertifyRoutes(opts sched.RunOpts, ra, rb []int, l1, l2 labels.Label) (sched.CertResult, error) {
	if l1 == l2 {
		return sched.CertResult{}, fmt.Errorf("core: agents must have distinct labels: %w", rverr.ErrInvalidScenario)
	}
	return sched.CertifyCtx(opts.Ctx, ra, rb)
}
