package esst

import (
	"fmt"
	"strings"

	"meetpoly/internal/sched"
	"meetpoly/internal/uxs"
)

// Hooks connect a Procedure to whatever drives the agent's physical
// moves and token detection: a synchronous walk in
// TestMachineTraceMatchesProcedureTrace, the runner (through
// schedtest.Blocking) in the reference explorer below.
type Hooks struct {
	// Move performs one traversal by the given port and returns the
	// arrival observation plus whether the token was sighted during it.
	Move func(port int) (sched.Observation, bool)
	// Degree returns the degree of the current node.
	Degree func() int
	// WithToken reports whether the agent is co-located with the token
	// right now (a token parked at the agent's current node).
	WithToken func() bool
	// Phase, if non-nil, is told the index of each phase as it starts
	// (observer plumbing; optional).
	Phase func(i int)
}

// Procedure is the paper-faithful reference rendering of ESST: the
// phase loop of §2 as blocking code that moves through Hooks. Machine
// is the same loop as a resumable state machine; the tests in
// machine_test.go pin the two against each other move for move. Fields
// are read after Run returns.
type Procedure struct {
	Cat      uxs.Catalog
	MaxPhase int // 0 = unlimited
	Hooks    Hooks

	// Results.
	Done  bool
	Phase int
	Cost  int
	// Trace records every traversal made during the procedure, in order
	// (the counterpart of Machine.Trace).
	Trace []MoveRec
}

// move wraps Hooks.Move with cost and trace accounting.
func (pr *Procedure) move(port int) (sched.Observation, bool) {
	obs, saw := pr.Hooks.Move(port)
	pr.Cost++
	pr.Trace = append(pr.Trace, MoveRec{Exit: port, Entry: obs.Entry})
	return obs, saw
}

// backtrack reverses the given recorded moves (latest first).
func (pr *Procedure) backtrack(rec []MoveRec) {
	for t := len(rec) - 1; t >= 0; t-- {
		pr.move(rec[t].Entry)
	}
}

// Run executes phases 3, 6, 9, ... until one completes (true) or the
// phase cap is exceeded (false).
func (pr *Procedure) Run() bool {
	for i := 3; pr.MaxPhase == 0 || i <= pr.MaxPhase; i += 3 {
		if pr.Hooks.Phase != nil {
			pr.Hooks.Phase(i)
		}
		if pr.runPhase(i) {
			pr.Done = true
			pr.Phase = i
			return true
		}
	}
	return false
}

func (pr *Procedure) runPhase(i int) bool {
	// Step 1: the trunc R(2i, v) from the current node.
	seqTrunc := pr.Cat.Seq(2 * i)
	trunc := make([]MoveRec, 0, len(seqTrunc))
	clean := pr.Hooks.Degree() <= i-1
	saw := pr.Hooks.WithToken() // a token at u1 counts as seen
	entry := 0
	for _, x := range seqTrunc {
		deg := pr.Hooks.Degree()
		port := (entry + x) % deg
		obs, sighted := pr.move(port)
		trunc = append(trunc, MoveRec{Exit: port, Entry: obs.Entry})
		entry = obs.Entry
		if obs.Degree > i-1 {
			clean = false
		}
		if sighted {
			saw = true
		}
	}
	if !clean || !saw {
		return false
	}
	// Step 2: backtrack to u1.
	pr.backtrack(trunc)

	// Step 3: probe R(i, u_j) at every trunc node.
	codes := make(map[string]bool)
	for j := 0; j <= len(trunc); j++ {
		if !pr.probe(i, codes) {
			return false
		}
		if j < len(trunc) {
			pr.move(trunc[j].Exit)
		}
	}
	return true
}

func (pr *Procedure) probe(i int, codes map[string]bool) bool {
	if pr.Hooks.WithToken() {
		codes[""] = true // the empty code: token at u_j itself
		return len(codes) < i/3
	}
	seq := pr.Cat.Seq(i)
	partial := make([]MoveRec, 0, len(seq))
	entry := 0
	for _, x := range seq {
		deg := pr.Hooks.Degree()
		port := (entry + x) % deg
		obs, sighted := pr.move(port)
		partial = append(partial, MoveRec{Exit: port, Entry: obs.Entry})
		entry = obs.Entry
		if sighted {
			codes[codeOfRec(partial)] = true
			pr.backtrack(partial)
			return len(codes) < i/3
		}
	}
	return false
}

// codeOfRec renders the paper's code: the sequence of ports along the
// path from u_j to the sighting. Machine compares the port sequences
// themselves; this rendering is injective, so both count the same
// distinct codes.
func codeOfRec(partial []MoveRec) string {
	var sb strings.Builder
	for _, m := range partial {
		fmt.Fprintf(&sb, "%d,", m.Exit)
	}
	return sb.String()
}

// procedureExplorer is the reference ESST agent: Explorer's meeting
// bookkeeping and results, with the blocking Procedure (run through
// schedtest.Blocking) in place of Machine.
type procedureExplorer struct {
	*Explorer
	step func(*sched.Proc, sched.Observation) sched.Action
}

func (pe procedureExplorer) Step(p *sched.Proc, o sched.Observation) sched.Action {
	return pe.step(p, o)
}

// runProcedure is the explorer's blocking program: the ESST main loop
// via Procedure, with any meeting since the previous move counted as a
// sighting.
func (e *Explorer) runProcedure(p *sched.Proc, start sched.Observation, move func(int) sched.Observation) {
	deg := start.Degree
	pr := &Procedure{
		Cat:      e.Cat,
		MaxPhase: e.MaxPhase,
		Hooks: Hooks{
			Move: func(port int) (sched.Observation, bool) {
				pre := e.meetEpoch
				e.withToken = false
				obs := move(port)
				deg = obs.Degree
				e.TraceExits = append(e.TraceExits, port)
				// withToken was updated by OnMeet for node meetings only;
				// an in-edge crossing leaves the agents separated.
				return obs, e.meetEpoch > pre
			},
			Degree:    func() int { return deg },
			WithToken: func() bool { return e.withToken },
			Phase:     func(i int) { p.Phase(fmt.Sprintf("esst: phase %d", i)) },
		},
	}
	e.Done = pr.Run()
	e.Phase = pr.Phase
	e.Cost = pr.Cost
}
