// Package esst implements Procedure ESST (§2 of the paper): exploration
// with a semi-stationary token. A single agent cannot explore unknown
// anonymous graphs and detect termination, but with a unique token parked
// on an extended edge it can: the procedure runs phases i = 3, 6, 9, ...
// and in each phase
//
//  1. applies R(2i, v) from the phase's start node (the "trunc") and
//     aborts the phase unless the trunc is clean (every visited node has
//     degree <= i-1) and the token was seen during it;
//  2. backtracks to the trunc's first node, then for every trunc node
//     u_j applies R(i, u_j), interrupting on a token sighting, recording
//     the code (the exit-port sequence from u_j to the sighting),
//     backtracking to u_j and stepping along the trunc to u_{j+1};
//  3. aborts the phase if some R(i, u_j) ends with no sighting, or once
//     i/3 distinct codes have been recorded.
//
// A phase that completes without aborting proves (Theorem 2.1) that the
// whole graph has been traversed; the total cost on termination is a
// polynomial upper bound E(n) >= n - 1 on the size of the graph, which is
// exactly what Algorithm SGL's explorers need.
//
// The phase machinery lives in Machine, a resumable state machine fed
// per-move sighting flags so that SGL explorers can filter token
// sightings by agent label; Explorer is the standalone agent used when
// the token is the only other agent.
package esst

import (
	"fmt"

	"meetpoly/internal/graph"
	"meetpoly/internal/sched"
	"meetpoly/internal/uxs"
)

// Explorer is the standalone ESST agent program: any meeting counts as a
// token sighting. Zero value is not usable; set Cat.
//
// Step drives the pull-based Machine. The blocking Procedure, the
// paper-faithful rendering of the same phase loop, is kept in the
// package tests as the reference TestMachineMatchesProcedure pins
// Explorer against.
type Explorer struct {
	// Cat supplies exploration sequences (the R(k, ·) trajectories).
	Cat uxs.Catalog
	// MaxPhase aborts the procedure beyond this phase (safety valve for
	// misconfigured catalogs). 0 means no limit.
	MaxPhase int
	// Payload is shared at meetings (SGL stores agent info here).
	Payload any

	// Results, valid once Done.
	Done  bool
	Phase int // the phase that completed
	Cost  int // edge traversals performed by the explorer until stopping

	// TraceExits records every exit port taken, so harnesses can replay
	// the walk on the (to the agent, unknown) graph and verify coverage.
	TraceExits []int

	meetEpoch int  // incremented by every OnMeet
	withToken bool // co-located with the token right now

	mach        *Machine
	epochAtStep int  // meetEpoch snapshot at the last Step return
	inFlight    bool // a Step-emitted move awaits its arrival
	lastPort    int  // the port of that move
}

var _ sched.Agent = (*Explorer)(nil)

// Publish implements sched.Agent.
func (e *Explorer) Publish() any { return e.Payload }

// OnMeet implements sched.Agent.
func (e *Explorer) OnMeet(enc sched.Encounter) {
	e.meetEpoch++
	if !enc.InEdge {
		e.withToken = true
	}
}

// Step implements sched.Agent: the ESST main loop via Machine. A
// meeting delivered since the previous decision is a sighting, and
// withToken is reset at every decision, exactly like the reference's
// Hooks.Move does at every move.
func (e *Explorer) Step(p *sched.Proc, o sched.Observation) sched.Action {
	if e.mach == nil {
		e.mach = &Machine{Cat: e.Cat, MaxPhase: e.MaxPhase,
			PhaseHook: func(i int) { p.Phase(fmt.Sprintf("esst: phase %d", i)) }}
		e.epochAtStep = e.meetEpoch
	}
	if e.inFlight {
		// Record the completed traversal on arrival, as the reference's
		// Hooks.Move does, so an interrupted run leaves the same partial
		// trace.
		e.TraceExits = append(e.TraceExits, e.lastPort)
		e.inFlight = false
	}
	sighted := e.meetEpoch > e.epochAtStep
	port, running := e.mach.Step(o.Degree, o.Entry, sighted, e.withToken)
	if !running {
		e.Done, e.Phase, e.Cost = e.mach.Done, e.mach.Phase, e.mach.Cost
		return sched.Action{Halt: true}
	}
	e.lastPort, e.inFlight = port, true
	e.withToken = false
	e.epochAtStep = e.meetEpoch
	return sched.Action{Port: port}
}

// Token is the semi-stationary token: an agent that never moves but is
// meetable (and, in SGL, carries a payload). The adversary may in the
// paper wiggle a token within its extended edge; parking it at a node is
// the special case this simulator realizes, and ESST's correctness does
// not depend on which point of the extended edge the token occupies.
type Token struct {
	Payload any
	mets    int
}

var _ sched.Agent = (*Token)(nil)

// Step implements sched.Agent: the token halts immediately.
func (t *Token) Step(*sched.Proc, sched.Observation) sched.Action {
	return sched.Action{Halt: true}
}

// Publish implements sched.Agent.
func (t *Token) Publish() any { return t.Payload }

// OnMeet implements sched.Agent.
func (t *Token) OnMeet(sched.Encounter) { t.mets++ }

// MeetCount returns how many meetings the token has witnessed.
func (t *Token) MeetCount() int { return t.mets }

// Result summarizes a standalone ESST execution.
type Result struct {
	Done    bool
	Phase   int // completing phase
	Cost    int // explorer's edge traversals
	EUpper  int // the derived upper bound on the graph size: Cost + 1
	Covered bool
	Summary sched.Summary
}

// Explore runs Procedure ESST in g with the explorer starting at
// startExplorer and the token parked at startToken, under the given
// adversary. Coverage of all edges is verified by replaying the
// explorer's port trace. Cancelling opts.Ctx aborts the run between
// events (reported in Result.Summary.Canceled); opts.Observer
// additionally receives "esst: phase i" phase-change events.
func Explore(opts sched.RunOpts, g *graph.Graph, startExplorer, startToken int, cat uxs.Catalog,
	adv sched.Adversary, maxSteps int) (*Result, error) {
	return explore(opts, g, startExplorer, startToken, cat, adv, maxSteps, nil)
}

// explore is Explore with a replaceable explorer program: program,
// when non-nil, wraps the Explorer into the agent the runner drives
// (the package tests substitute the blocking reference).
func explore(opts sched.RunOpts, g *graph.Graph, startExplorer, startToken int, cat uxs.Catalog,
	adv sched.Adversary, maxSteps int, program func(*Explorer) sched.Agent) (*Result, error) {
	ex := &Explorer{Cat: cat, MaxPhase: 30*g.N() + 9}
	var agent sched.Agent = ex
	if program != nil {
		agent = program(ex)
	}
	r, err := sched.NewRunner(sched.Config{
		Graph:          g,
		Starts:         []int{startExplorer, startToken},
		Agents:         []sched.Agent{agent, &Token{}},
		InitiallyAwake: []int{0, 1},
		MaxSteps:       maxSteps,
		Context:        opts.Ctx,
		Observer:       opts.Observer,
	}, adv)
	if err != nil {
		return nil, fmt.Errorf("esst: %w", err)
	}
	defer r.Close()
	sum := r.Run()
	res := &Result{
		Done:    ex.Done,
		Phase:   ex.Phase,
		Cost:    ex.Cost,
		EUpper:  ex.Cost + 1,
		Summary: sum,
	}
	if ex.Done {
		res.Covered = CoversAllEdges(g, startExplorer, ex.TraceExits)
	}
	return res, nil
}

// CoversAllEdges replays an exit-port trace from start and reports
// whether every edge of g was traversed.
func CoversAllEdges(g *graph.Graph, start int, exits []int) bool {
	covered := make([]bool, g.M())
	count, cur := 0, start
	for _, port := range exits {
		if e := g.EdgeIndex(cur, port); !covered[e] {
			covered[e] = true
			count++
		}
		cur, _ = g.Succ(cur, port)
	}
	return count == g.M()
}

// CostBound returns this implementation's per-run cost bound for a
// terminating phase i: each phase j <= i walks the trunc at most three
// times (forward, backtrack, and once more distributed over the
// node-to-node steps) plus at most 2 P(j) moves per trunc node
// (probe + backtrack), i.e.
//
//	sum_{j in 3,6,...,i} [ 4 P(2j) + (P(2j)+1) * 2 P(j) ].
//
// It plays the role of the paper's (i/3)(3P(2i) + P(2i)P(i)) estimate,
// with this package's exact walking pattern.
func CostBound(cat uxs.Catalog, phase int) int {
	total := 0
	for j := 3; j <= phase; j += 3 {
		p2j, pj := cat.P(2*j), cat.P(j)
		total += 4*p2j + (p2j+1)*2*pj
	}
	return total
}
