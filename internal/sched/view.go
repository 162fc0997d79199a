package sched

import "meetpoly/internal/graph"

// AgentView is the adversary's omniscient snapshot of one agent. The
// adversary, unlike agents, sees everything — that is exactly what makes
// it an adversary.
type AgentView struct {
	Status      Status
	Pos         Position
	HasPending  bool
	PendingPort int
	Traversals  int
}

// View is the adversary's window onto the execution. It reads the
// runner's live agent state directly — materializing a snapshot per
// adversary event was the single largest line item of the half-step
// cost — so strategies may query it freely during Next but must not
// retain it, or AgentView values derived from it, across calls. Copy
// what you need to keep.
type View struct {
	Steps int

	// The view aliases the Runner state the adversary reads instead of
	// holding the Runner: the per-event accessors (CanAdvance in every
	// adversary's inner loop) save one pointer chase per call.
	g       *graph.Graph
	dormant *int
	agents  []*agentState
}

// view refreshes and hands out the runner's single reused View buffer.
//
//rvlint:hotpath
func (r *Runner) view() *View {
	r.viewBuf.Steps = r.steps
	return &r.viewBuf
}

// K returns the number of agents in the simulation.
func (v *View) K() int { return len(v.agents) }

// Agent returns the omniscient snapshot of agent i.
func (v *View) Agent(i int) AgentView {
	st := v.agents[i]
	return AgentView{
		Status:      st.status,
		Pos:         st.pos,
		HasPending:  st.hasPending,
		PendingPort: st.pendingPort,
		Traversals:  st.traversals,
	}
}

// Graph exposes the topology to adversary strategies.
func (v *View) Graph() *graph.Graph { return v.g }

// AnyDormant reports whether any agent is still dormant, backed by a
// scheduler-maintained counter: adversaries gate their wake scans on it
// so the steady state (everyone awake) pays one integer read per event.
func (v *View) AnyDormant() bool { return *v.dormant > 0 }

// CanWake reports whether agent i is dormant.
func (v *View) CanWake(i int) bool {
	return i >= 0 && i < len(v.agents) && v.agents[i].status == StatusDormant
}

// CanAdvance reports whether agent i has a committed move to advance.
func (v *View) CanAdvance(i int) bool {
	if i < 0 || i >= len(v.agents) {
		return false
	}
	st := v.agents[i]
	return st.status == StatusActive && st.hasPending
}

// AdvanceCreatesContact predicts whether advancing agent i one half-step
// would put it in contact with some other agent: entering an edge that an
// opposite-direction agent currently occupies, or arriving at a node that
// any agent currently occupies. This is the one-step lookahead avoider
// strategies use.
func (v *View) AdvanceCreatesContact(i int) bool {
	return v.CanAdvance(i) && v.advanceContact(i)
}

// advanceContact is AdvanceCreatesContact without the CanAdvance
// precondition re-check, for callers that just established it.
func (v *View) advanceContact(i int) bool {
	a := v.agents[i]
	if a.pos.Kind == AtNode {
		from := a.pos.Node
		to, _ := v.g.Succ(from, a.pendingPort)
		for j, b := range v.agents {
			if j == i {
				continue
			}
			if b.pos.Kind == InEdge && b.pos.From == to && b.pos.To == from {
				return true
			}
		}
		return false
	}
	dest := a.pos.To
	for j, b := range v.agents {
		if j == i {
			continue
		}
		if b.pos.Kind == AtNode && b.pos.Node == dest {
			return true
		}
	}
	return false
}
