package sgl

import (
	"meetpoly/internal/core"
	"meetpoly/internal/esst"
	"meetpoly/internal/sched"
)

// stepState is the program counter of agent.Step, which realizes
// Algorithm SGL as an explicit resumable state machine. Every emitting
// state names the state that processes the emitted move's arrival,
// mirroring the esst.Machine convention.
type stepState uint8

const (
	ssInit       stepState = iota // first Step call: set up RV, announce traveller
	ssTravDecide                  // at a node: apply transition rules, emit next RV move
	ssTravArr                     // traveller RV move arrival
	ssP1                          // phase 1: drive the ESST machine
	ssP2Back                      // phase 2: backtrack the phase-1 walk
	ssP2BackArr                   // backtrack move arrival (abort check)
	ssP2RV                        // phase 2: resume RV within the budget
	ssP2RVArr                     // RV move arrival (abort check)
	ssP3Start                     // phase 3 dispatch: sweep or seek
	ssSweepMove                   // min-label sweep along R(E(n), s)
	ssSweepArr                    // sweep move arrival
	ssBounceArr1                  // bounce-out arrival: emit the bounce-back
	ssBounceArr2                  // bounce-back arrival: start the backtrack
	ssSweepBack                   // reverse the sweep, then output
	ssSeekMove                    // seeker sweep until the token is sighted
	ssSeekArr                     // seek move arrival (sighting check)
	ssSeekFound                   // co-located with the token: park or adopt
	ssHalted
)

// halt ends the agent's program.
func (a *agent) halt() sched.Action {
	a.ss = ssHalted
	return sched.Action{Halt: true}
}

// emit hands one move to the runner, resetting the per-move token flags
// at move start.
func (a *agent) emit(port int, arr stepState) sched.Action {
	a.lastExit = port
	a.ss = arr
	a.tokenSighted = false
	a.withToken = false
	return sched.Action{Port: port}
}

// enterPhase1 starts the explorer's ESST machine (phase 1).
func (a *agent) enterPhase1(p *sched.Proc) {
	p.Phase("sgl: explorer phase 1 (ESST)")
	a.mach = &esst.Machine{Cat: a.cat}
	a.ss = ssP1
}

// Step implements sched.Agent: the SGL state machine. The package tests
// keep the blocking rendering of the same program as the reference
// TestStepMatchesRun pins Step against, move for move.
func (a *agent) Step(p *sched.Proc, o sched.Observation) sched.Action {
	a.curDeg = o.Degree
	for {
		switch a.ss {
		case ssInit:
			if a.rv == nil {
				a.rv = core.NewStepper(a.label, a.env)
			}
			p.Phase("sgl: traveller")
			a.ss = ssTravDecide

		case ssTravDecide:
			a.drainPending()
			if a.state == StateGhost {
				p.Phase("sgl: ghost")
				if a.final && !a.hasOutput {
					a.setOutput()
				}
				return a.halt() // park forever; OnMeet keeps serving
			}
			if a.state == StateExplorer {
				a.enterPhase1(p)
				continue
			}
			port, ok := a.rv.Next(a.curDeg, a.rvEntry)
			if !ok {
				a.failure = "traveller: RV schedule exhausted (impossible)"
				// A failed traveller still walks the explorer phases.
				a.enterPhase1(p)
				continue
			}
			return a.emit(port, ssTravArr)

		case ssTravArr:
			a.rvCount++
			a.rvEntry = o.Entry
			a.ss = ssTravDecide

		case ssP1:
			port, running := a.mach.Step(o.Degree, o.Entry, a.tokenSighted, a.withToken)
			if running {
				return a.emit(port, ssP1)
			}
			a.eBound = a.mach.Cost + 1
			a.phase1Trace = a.mach.Trace
			p.Phase("sgl: explorer phase 2 (resume RV)")
			if a.minLabel < a.label {
				a.ss = ssP3Start // abort immediately; phase 3 starts here
				continue
			}
			a.btIdx = len(a.phase1Trace) - 1
			a.ss = ssP2Back

		case ssP2Back:
			if a.btIdx < 0 {
				a.p2budget = a.phase2Budget(a.eBound, a.label)
				a.ss = ssP2RV
				continue
			}
			port := a.phase1Trace[a.btIdx].Entry
			a.btIdx--
			return a.emit(port, ssP2BackArr)

		case ssP2BackArr:
			if a.minLabel < a.label {
				a.ss = ssP3Start // abort as soon as at a node
				continue
			}
			a.ss = ssP2Back

		case ssP2RV:
			if a.rvCount >= a.p2budget {
				a.ss = ssP3Start
				continue
			}
			port, ok := a.rv.Next(a.curDeg, a.rvEntry)
			if !ok {
				a.failure = "phase2: RV schedule exhausted (impossible)"
				a.ss = ssP3Start
				continue
			}
			return a.emit(port, ssP2RVArr)

		case ssP2RVArr:
			a.rvCount++
			a.rvEntry = o.Entry
			if a.minLabel < a.label {
				a.ss = ssP3Start
				continue
			}
			a.ss = ssP2RV

		case ssP3Start:
			p.Phase("sgl: explorer phase 3 (seek/sweep)")
			a.sweepSeq = a.cat.Seq(a.eBound)
			a.sweepIdx, a.sweepEntry = 0, 0
			if a.minLabel < a.label {
				if a.withToken {
					a.ss = ssSeekFound
					continue
				}
				a.ss = ssSeekMove
				continue
			}
			a.sweepRec = a.sweepRec[:0]
			a.ss = ssSweepMove

		case ssSweepMove:
			if a.sweepIdx == len(a.sweepSeq) {
				a.final = true
				if len(a.sweepRec) > 0 {
					// Bounce out and back before backtracking: this
					// re-triggers the meeting with any ghost co-located
					// at the sweep's far end. The discrete contact-episode
					// model only exchanges payloads when a contact
					// STARTS, whereas the paper's continuous agents can
					// transmit during an ongoing co-location.
					last := a.sweepRec[len(a.sweepRec)-1]
					return a.emit(last.Entry, ssBounceArr1)
				}
				a.btIdx = -1
				a.ss = ssSweepBack
				continue
			}
			x := a.sweepSeq[a.sweepIdx]
			a.sweepIdx++
			return a.emit((a.sweepEntry+x)%a.curDeg, ssSweepArr)

		case ssSweepArr:
			a.sweepRec = append(a.sweepRec, esst.MoveRec{Exit: a.lastExit, Entry: o.Entry})
			a.sweepEntry = o.Entry
			a.ss = ssSweepMove

		case ssBounceArr1:
			return a.emit(o.Entry, ssBounceArr2)

		case ssBounceArr2:
			a.btIdx = len(a.sweepRec) - 1
			a.ss = ssSweepBack

		case ssSweepBack:
			if a.btIdx < 0 {
				a.setOutput()
				return a.halt()
			}
			port := a.sweepRec[a.btIdx].Entry
			a.btIdx--
			return a.emit(port, ssSweepBack)

		case ssSeekMove:
			if a.sweepIdx == len(a.sweepSeq) {
				a.failure = "phase3: token not found during R(E(n)) sweep"
				return a.halt()
			}
			x := a.sweepSeq[a.sweepIdx]
			a.sweepIdx++
			return a.emit((a.sweepEntry+x)%a.curDeg, ssSeekArr)

		case ssSeekArr:
			a.sweepEntry = o.Entry
			if a.tokenSighted {
				a.ss = ssSeekFound
				continue
			}
			a.ss = ssSeekMove

		case ssSeekFound:
			if a.tokenHasOutput {
				a.setOutput()
				return a.halt()
			}
			a.state = StateGhost
			if a.final && !a.hasOutput {
				a.setOutput()
			}
			return a.halt()

		default: // ssHalted
			return sched.Action{Halt: true}
		}
	}
}
