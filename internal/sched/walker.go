package sched

import "meetpoly/internal/trajectory"

// Walker adapts a trajectory.Stepper to a sched agent: the standard shape
// of a rendezvous agent, which follows a predetermined (label-dependent)
// trajectory until it meets someone. Decisions depend only on the agent's
// own observations, exactly as the model demands.
type Walker struct {
	// Stepper supplies the route. The Walker halts when it is exhausted.
	Stepper trajectory.Stepper
	// StopAtMeeting halts the walker at the next node decision after a
	// meeting (rendezvous semantics: the task is over).
	StopAtMeeting bool
	// Payload is shared with peers at meetings.
	Payload any

	metCount int
}

var _ Agent = (*Walker)(nil)

// Step implements Agent: one route decision per invocation.
func (w *Walker) Step(_ *Proc, o Observation) Action {
	if w.StopAtMeeting && w.metCount > 0 {
		return Action{Halt: true}
	}
	entry := o.Entry
	if entry < 0 {
		entry = 0 // fresh-start convention for the trajectory
	}
	port, ok := w.Stepper.Next(o.Degree, entry)
	if !ok {
		return Action{Halt: true}
	}
	return Action{Port: port}
}

// Publish implements Agent.
func (w *Walker) Publish() any { return w.Payload }

// OnMeet implements Agent.
func (w *Walker) OnMeet(Encounter) { w.metCount++ }

// Met reports whether the walker has met anyone.
func (w *Walker) Met() bool { return w.metCount > 0 }

// MeetCount returns the number of meetings delivered to this walker.
func (w *Walker) MeetCount() int { return w.metCount }
