package sched

import "context"

// Observer receives execution events from a Runner as they happen:
// adversary decisions, completed edge traversals, meetings, and
// algorithm-level phase changes announced by agents via Proc.Phase.
//
// Within one run all callbacks are serialized: they run on the runner's
// goroutine, including the Proc.Phase calls agents make from Step. An
// Observer shared between concurrently executing runners (e.g. a batch)
// must be safe for concurrent use.
type Observer interface {
	// OnEvent fires after the adversary's event has been applied.
	// step is the 0-based index of the event.
	OnEvent(step int, ev Event)
	// OnTraversal fires when agent completes an edge traversal
	// (arriving at node to, having left node from).
	OnTraversal(agent, from, to int)
	// OnMeeting fires for every meeting.
	OnMeeting(m Meeting)
	// OnPhase fires when an agent announces an algorithm phase change.
	OnPhase(agent int, phase string)
}

// FuncObserver adapts optional callbacks to the Observer interface; nil
// fields ignore their event.
type FuncObserver struct {
	Event     func(step int, ev Event)
	Traversal func(agent, from, to int)
	Meeting   func(m Meeting)
	Phase     func(agent int, phase string)
}

var _ Observer = (*FuncObserver)(nil)

// OnEvent implements Observer.
func (f *FuncObserver) OnEvent(step int, ev Event) {
	if f.Event != nil {
		f.Event(step, ev)
	}
}

// OnTraversal implements Observer.
func (f *FuncObserver) OnTraversal(agent, from, to int) {
	if f.Traversal != nil {
		f.Traversal(agent, from, to)
	}
}

// OnMeeting implements Observer.
func (f *FuncObserver) OnMeeting(m Meeting) {
	if f.Meeting != nil {
		f.Meeting(m)
	}
}

// OnPhase implements Observer.
func (f *FuncObserver) OnPhase(agent int, phase string) {
	if f.Phase != nil {
		f.Phase(agent, phase)
	}
}

// RunOpts bundles the cross-cutting execution options the public engine
// threads into the algorithm packages: a context whose cancellation
// aborts the run, and an observer for in-flight events. The zero value
// (background context, no observer) preserves the legacy behaviour of
// the free functions.
type RunOpts struct {
	Ctx      context.Context
	Observer Observer
}
