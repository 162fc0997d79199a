package esst

import "meetpoly/internal/uxs"

// MoveRec records one traversal (exit port taken, entry port observed) so
// that walks can be retraced backwards.
type MoveRec struct {
	Exit  int
	Entry int
}

// mstate is the Machine's program counter: every emitting state names
// the state that processes the emitted move's arrival.
type mstate uint8

const (
	msPhaseStart mstate = iota // at the trunc start of phase i
	msTruncMove                // about to emit the next trunc move
	msTruncArr                 // processing a trunc move's arrival
	msBacktrack                // reversing back[backIdx..0]
	msProbeStart               // at u_j, about to probe R(i, u_j)
	msProbeMove                // about to emit the next probe move
	msProbeArr                 // processing a probe move's arrival
	msProbeEval                // back at u_j after a sighted probe
	msTruncStep                // about to step along the trunc to u_{j+1}
	msDone
)

// Machine is Procedure ESST as a pull-based resumable state machine:
// instead of blocking on each move it returns the exit port from Step
// and receives the arrival on the next call. It is the form a
// sched.Agent needs — the runner drives agents by asking for their
// next action, so the procedure cannot sit in a nested call stack
// between moves.
//
// The package tests keep the blocking rendering of the same phase loop
// (Procedure, the paper's pseudocode almost line for line) as the
// reference: TestMachineTraceMatchesProcedureTrace pins the two move
// for move on a synchronous walk, and TestMachineMatchesProcedure
// through the runner under several adversaries.
type Machine struct {
	// Cat supplies exploration sequences (the R(k, ·) trajectories).
	Cat uxs.Catalog
	// MaxPhase aborts the procedure beyond this phase (0 = unlimited).
	MaxPhase int
	// PhaseHook, if non-nil, is told the index of each phase as it
	// starts (observer plumbing; optional).
	PhaseHook func(i int)

	// Results, valid once Step has returned running == false.
	Done  bool
	Phase int
	Cost  int
	Trace []MoveRec

	state    mstate
	started  bool
	lastExit int
	i        int // current phase index

	// Trunc walk of the current phase.
	seq   []int
	idx   int
	entry int
	clean bool
	saw   bool
	trunc []MoveRec

	// Backtrack in progress (reverses back[backIdx..0], then after).
	back    []MoveRec
	backIdx int
	after   mstate

	// Probe pass. The distinct codes recorded this phase are exit-port
	// sequences, concatenated in codes; code c ends at codeEnds[c].
	codes    []int
	codeEnds []int
	jj       int // trunc steps taken while probing (the paper's j)
	pseq     []int
	pidx     int
	pentry   int
	partial  []MoveRec
}

// emit records the decision and hands the exit port to the caller.
func (m *Machine) emit(port int, arr mstate) (int, bool) {
	m.lastExit = port
	m.state = arr
	return port, true
}

// failPhase abandons the current phase; the next one starts from the
// node the agent currently occupies, exactly as in the reference.
func (m *Machine) failPhase() {
	m.i += 3
	m.state = msPhaseStart
}

// startBacktrack queues rec for reversal (latest move first), entering
// after once the agent is back where rec started.
func (m *Machine) startBacktrack(rec []MoveRec, after mstate) {
	if len(rec) == 0 {
		m.state = after
		return
	}
	m.back = rec
	m.backIdx = len(rec) - 1
	m.after = after
	m.state = msBacktrack
}

// addCode records the code of rec, the exit ports from u_j to the
// sighting, unless this phase already holds it. A phase stops at i/3
// distinct codes, so the scan is short.
func (m *Machine) addCode(rec []MoveRec) {
	start := 0
seen:
	for _, end := range m.codeEnds {
		code := m.codes[start:end]
		start = end
		if len(code) != len(rec) {
			continue
		}
		for x, port := range code {
			if rec[x].Exit != port {
				continue seen
			}
		}
		return
	}
	for _, mv := range rec {
		m.codes = append(m.codes, mv.Exit)
	}
	m.codeEnds = append(m.codeEnds, len(m.codes))
}

// Step advances the procedure by one decision. deg and entry describe
// the agent's current node (entry < 0 on the very first call); sighted
// reports whether the move that brought the agent here sighted the
// token; withToken whether the token is co-located right now. The
// returned port is the next move; running == false means the procedure
// has ended and Done/Phase/Cost/Trace are final.
func (m *Machine) Step(deg, entry int, sighted, withToken bool) (port int, running bool) {
	if !m.started {
		m.started = true
		m.i = 3
		m.state = msPhaseStart
	} else {
		// Account the arrival of the previously emitted move, exactly
		// like the reference's move.
		m.Cost++
		m.Trace = append(m.Trace, MoveRec{Exit: m.lastExit, Entry: entry})
	}
	for {
		switch m.state {
		case msPhaseStart:
			if m.MaxPhase != 0 && m.i > m.MaxPhase {
				m.state = msDone
				return 0, false
			}
			if m.PhaseHook != nil {
				m.PhaseHook(m.i)
			}
			m.seq = m.Cat.Seq(2 * m.i)
			m.idx, m.entry = 0, 0
			m.trunc = m.trunc[:0]
			m.clean = deg <= m.i-1
			m.saw = withToken // a token at u1 counts as seen
			m.state = msTruncMove

		case msTruncMove:
			if m.idx == len(m.seq) {
				if !m.clean || !m.saw {
					m.failPhase()
					continue
				}
				// Trunc was clean and the token was seen: backtrack to
				// u1 and start the probe pass.
				m.codes, m.codeEnds = m.codes[:0], m.codeEnds[:0]
				m.jj = 0
				m.startBacktrack(m.trunc, msProbeStart)
				continue
			}
			x := m.seq[m.idx]
			m.idx++
			return m.emit((m.entry+x)%deg, msTruncArr)

		case msTruncArr:
			m.trunc = append(m.trunc, MoveRec{Exit: m.lastExit, Entry: entry})
			m.entry = entry
			if deg > m.i-1 {
				m.clean = false
			}
			if sighted {
				m.saw = true
			}
			m.state = msTruncMove

		case msBacktrack:
			if m.backIdx < 0 {
				m.state = m.after
				continue
			}
			p := m.back[m.backIdx].Entry
			m.backIdx--
			return m.emit(p, msBacktrack)

		case msProbeStart:
			if withToken {
				m.addCode(nil) // the empty code: token at u_j itself
				if len(m.codeEnds) >= m.i/3 {
					m.failPhase()
					continue
				}
				m.state = msTruncStep
				continue
			}
			m.pseq = m.Cat.Seq(m.i)
			m.pidx, m.pentry = 0, 0
			m.partial = m.partial[:0]
			m.state = msProbeMove

		case msProbeMove:
			if m.pidx == len(m.pseq) {
				// R(i, u_j) ended with no sighting: the phase fails.
				m.failPhase()
				continue
			}
			x := m.pseq[m.pidx]
			m.pidx++
			return m.emit((m.pentry+x)%deg, msProbeArr)

		case msProbeArr:
			m.partial = append(m.partial, MoveRec{Exit: m.lastExit, Entry: entry})
			m.pentry = entry
			if sighted {
				m.addCode(m.partial)
				m.startBacktrack(m.partial, msProbeEval)
				continue
			}
			m.state = msProbeMove

		case msProbeEval:
			if len(m.codeEnds) >= m.i/3 {
				m.failPhase()
				continue
			}
			m.state = msTruncStep

		case msTruncStep:
			if m.jj == len(m.trunc) {
				// Every trunc node probed with fewer than i/3 distinct
				// codes: the phase completes and proves coverage.
				m.Done = true
				m.Phase = m.i
				m.state = msDone
				return 0, false
			}
			p := m.trunc[m.jj].Exit
			m.jj++
			return m.emit(p, msProbeStart)

		default: // msDone
			return 0, false
		}
	}
}
