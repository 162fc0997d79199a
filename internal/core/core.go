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

// PiBound returns Π(n, min(|L1|, |L2|)) for the environment's catalog:
// the Theorem 3.1 guarantee on the number of edge traversals either agent
// performs before the meeting is certain.
func PiBound(env *trajectory.Env, n int, l1, l2 labels.Label) *big.Int {
	m := costmodel.New(func(k int) *big.Int {
		return big.NewInt(int64(env.Catalog().P(k)))
	})
	return m.Pi(n, min(l1.Len(), l2.Len()))
}

// Result summarizes one walker-pair execution.
type Result struct {
	Met     bool
	Meeting *sched.Meeting // first meeting, nil if none within budget
	Summary sched.Summary
	Bound   *big.Int // the caller's cost guarantee for this instance
}

// Rendezvous runs two label-carrying walkers under the given adversary,
// stopping at the first meeting or after budget adversary events. s1
// and s2 are the agents' trajectories from start1 and start2 — the
// master trajectories of NewStepper, the exponential baseline's, or
// cached route replays of either — and bound is the instance's cost
// guarantee the caller derived, reported as Result.Bound. Labels must
// be distinct. Both agents are woken immediately: the paper lets the
// adversary delay an agent arbitrarily, which the budget models as
// pre-meeting freezing, so the adversary chooses who actually moves.
// Cancelling opts.Ctx aborts the run between events (reported in
// Result.Summary.Canceled); opts.Observer receives its events.
func Rendezvous(opts sched.RunOpts, g *graph.Graph, start1, start2 int, l1, l2 labels.Label,
	s1, s2 trajectory.Stepper, bound *big.Int, adv sched.Adversary, budget int) (*Result, error) {
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
	return &Result{
		Met:     sum.FirstMeeting != nil,
		Meeting: sum.FirstMeeting,
		Summary: sum,
		Bound:   bound,
	}, nil
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
