package sgl

import (
	"meetpoly/internal/core"
	"meetpoly/internal/esst"
	"meetpoly/internal/sched"
)

// This file keeps Algorithm SGL's blocking program: the paper's §4
// pseudocode as straight-line code, one call per move. agent.Step
// (step.go) is the same program as a resumable state machine; the
// tests run this one through schedtest.Blocking as the reference that
// TestStepMatchesRun pins Step against.

// blockingAgent drives an agent with its blocking program in place of
// its Step.
type blockingAgent struct {
	*agent
	step func(*sched.Proc, sched.Observation) sched.Action
}

func (b blockingAgent) Step(p *sched.Proc, o sched.Observation) sched.Action { return b.step(p, o) }

// move performs one traversal, refreshing token flags.
func (a *agent) move(mv func(int) sched.Observation, port int) sched.Observation {
	a.tokenSighted = false
	a.withToken = false
	obs := mv(port)
	a.curDeg = obs.Degree
	return obs
}

// Run is the blocking SGL program.
func (a *agent) Run(p *sched.Proc, start sched.Observation, mv func(int) sched.Observation) {
	a.curDeg = start.Degree
	a.rv = core.NewStepper(a.label, a.env)
	p.Phase("sgl: traveller")
	a.runTraveller(mv)
	if a.state == StateGhost {
		p.Phase("sgl: ghost")
		if a.final && !a.hasOutput {
			a.setOutput()
		}
		return // park forever; OnMeet keeps serving
	}
	// Explorer.
	p.Phase("sgl: explorer phase 1 (ESST)")
	e := a.phase1(mv)
	p.Phase("sgl: explorer phase 2 (resume RV)")
	a.phase2(mv, e)
	p.Phase("sgl: explorer phase 3 (seek/sweep)")
	a.phase3(mv, e)
}

// runTraveller executes RV-asynch-poly until a transition fires.
func (a *agent) runTraveller(mv func(int) sched.Observation) {
	for {
		a.drainPending()
		if a.state != StateTraveller {
			return
		}
		port, ok := a.rv.Next(a.curDeg, a.rvEntry)
		if !ok {
			a.failure = "traveller: RV schedule exhausted (impossible)"
			return
		}
		obs := a.move(mv, port)
		a.rvCount++
		a.rvEntry = obs.Entry
	}
}

// phase1 runs ESST against the agent's token and returns the size
// bound E(n) = cost + 1. The blocking esst.Procedure lives in package
// esst's tests, so this loop drives esst.Machine one move at a time;
// Machine and Procedure are pinned to each other there.
func (a *agent) phase1(mv func(int) sched.Observation) int {
	m := &esst.Machine{Cat: a.cat}
	deg, entry := a.curDeg, -1
	for {
		port, running := m.Step(deg, entry, a.tokenSighted, a.withToken)
		if !running {
			break
		}
		obs := a.move(mv, port)
		deg, entry = obs.Degree, obs.Entry
	}
	a.phase1Trace = m.Trace
	return m.Cost + 1
}

// phase2 backtracks the Phase 1 walk and resumes RV-asynch-poly until
// the budget is exhausted or a smaller label is heard.
func (a *agent) phase2(mv func(int) sched.Observation, e int) {
	if a.minLabel < a.label {
		return // abort immediately; Phase 3 starts here
	}
	for t := len(a.phase1Trace) - 1; t >= 0; t-- {
		a.move(mv, a.phase1Trace[t].Entry)
		if a.minLabel < a.label {
			return // abort as soon as at a node
		}
	}
	budget := a.phase2Budget(e, a.label)
	for a.rvCount < budget {
		port, ok := a.rv.Next(a.curDeg, a.rvEntry)
		if !ok {
			a.failure = "phase2: RV schedule exhausted (impossible)"
			return
		}
		obs := a.move(mv, port)
		a.rvCount++
		a.rvEntry = obs.Entry
		if a.minLabel < a.label {
			return
		}
	}
}

// phase3 finishes the algorithm: seekers find their token and park or
// adopt its output; the minimum-label agent sweeps, completes its bag,
// and broadcasts it.
func (a *agent) phase3(mv func(int) sched.Observation, e int) {
	if a.minLabel < a.label {
		a.seekToken(mv, e)
		return
	}
	// This agent believes it is m: sweep R(E(n), s) collecting every
	// parked agent, declare the bag complete, and sweep back
	// broadcasting. The extra bounce before backtracking re-triggers the
	// meeting with any ghost co-located at the sweep's far end: the
	// discrete contact-episode model only exchanges payloads when a
	// contact STARTS, whereas the paper's continuous agents can transmit
	// during an ongoing co-location.
	seq := a.cat.Seq(e)
	rec := make([]esst.MoveRec, 0, len(seq))
	entry := 0
	for _, x := range seq {
		port := (entry + x) % a.curDeg
		obs := a.move(mv, port)
		rec = append(rec, esst.MoveRec{Exit: port, Entry: obs.Entry})
		entry = obs.Entry
	}
	a.final = true
	if len(rec) > 0 {
		last := rec[len(rec)-1]
		obs := a.move(mv, last.Entry) // bounce out
		a.move(mv, obs.Entry)         // and back, refreshing the contact
	}
	for t := len(rec) - 1; t >= 0; t-- {
		a.move(mv, rec[t].Entry)
	}
	a.setOutput()
}

// seekToken walks R(E(n), s) until it meets its token, then parks (or
// adopts the token's output if the token has already finished).
func (a *agent) seekToken(mv func(int) sched.Observation, e int) {
	if !a.withToken {
		seq := a.cat.Seq(e)
		entry := 0
		found := false
		for _, x := range seq {
			port := (entry + x) % a.curDeg
			obs := a.move(mv, port)
			entry = obs.Entry
			if a.tokenSighted {
				found = true
				break
			}
		}
		if !found {
			a.failure = "phase3: token not found during R(E(n)) sweep"
			return
		}
	}
	if a.tokenHasOutput {
		a.setOutput()
		return
	}
	a.state = StateGhost
	if a.final && !a.hasOutput {
		a.setOutput()
	}
}
