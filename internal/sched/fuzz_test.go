package sched

import (
	"bytes"
	"reflect"
	"testing"

	"meetpoly/internal/graph"
)

// fuzzWalk emits ports derived from the fuzz input, reduced modulo the
// local degree so every decision is valid; it halts after limit moves.
type fuzzWalk struct {
	data  []byte
	off   int
	i     int
	limit int
}

func (w *fuzzWalk) Next(deg, entry int) (int, bool) {
	if w.i >= w.limit || len(w.data) == 0 {
		return 0, false
	}
	b := w.data[(w.off+13*w.i)%len(w.data)]
	w.i++
	return int(b) % deg, true
}

// fuzzAdv turns the fuzz input into a stream of events that are always
// valid at issue time (the runner panics on invalid events by contract,
// and the fuzzed property is the half-step semantics, not the panic).
// Before issuing each event it hands the fresh adversary view to the
// invariant checker.
type fuzzAdv struct {
	data  []byte
	i     int
	check func(v *View)
	last  Event
	has   bool
}

func (a *fuzzAdv) Next(v *View) (Event, bool) {
	a.check(v)
	var cands []Event
	for i, n := 0, v.K(); i < n; i++ {
		if v.CanWake(i) {
			cands = append(cands, Event{Kind: EventWake, Agent: i})
		}
		if v.CanAdvance(i) {
			cands = append(cands, Event{Kind: EventAdvance, Agent: i})
		}
	}
	if len(cands) == 0 || a.i >= len(a.data) {
		return Event{}, false
	}
	ev := cands[int(a.data[a.i])%len(cands)]
	a.i++
	a.last, a.has = ev, true
	return ev, true
}

// invariantChecker verifies, between consecutive adversary views, the
// half-step semantics of the package doc: only the evented agent moves,
// an agent at a node can only enter the edge its committed port names,
// an agent strictly inside an edge can only arrive at its far endpoint
// (never teleport), and meetings fire exactly when a pair of agents
// comes newly into contact — at a shared node, or inside a shared edge
// in opposite directions.
type invariantChecker struct {
	t        *testing.T
	g        *graph.Graph
	prev     []AgentView
	prevOK   bool
	contacts map[[2]int]bool
	meetings []Meeting
	adv      *fuzzAdv
}

func (c *invariantChecker) onMeeting(m Meeting) { c.meetings = append(c.meetings, m) }

func (c *invariantChecker) contactsOf(agents []AgentView) map[[2]int]bool {
	cur := make(map[[2]int]bool)
	for i := 0; i < len(agents); i++ {
		for j := i + 1; j < len(agents); j++ {
			a, b := agents[i].Pos, agents[j].Pos
			switch {
			case a.Kind == AtNode && b.Kind == AtNode && a.Node == b.Node:
				cur[[2]int{i, j}] = true
			case a.Kind == InEdge && b.Kind == InEdge && a.From == b.To && a.To == b.From:
				cur[[2]int{i, j}] = true
			}
		}
	}
	return cur
}

func (c *invariantChecker) check(v *View) {
	t := c.t
	if c.prevOK {
		ev, has := c.adv.last, c.adv.has
		for i := 0; i < v.K(); i++ {
			pa, ca := c.prev[i], v.Agent(i)
			moved := has && ev.Agent == i && ev.Kind == EventAdvance
			if !moved {
				if ca.Pos != pa.Pos || ca.Traversals != pa.Traversals {
					t.Fatalf("agent %d moved without an advance event: %+v -> %+v (event %+v)",
						i, pa.Pos, ca.Pos, ev)
				}
				continue
			}
			switch pa.Pos.Kind {
			case AtNode:
				to, _ := c.g.Succ(pa.Pos.Node, pa.PendingPort)
				want := Position{Kind: InEdge, From: pa.Pos.Node, To: to}
				if ca.Pos != want || ca.Traversals != pa.Traversals {
					t.Fatalf("agent %d: half-step 1 from %+v produced %+v, want %+v",
						i, pa.Pos, ca.Pos, want)
				}
			case InEdge:
				want := Position{Kind: AtNode, Node: pa.Pos.To}
				if ca.Pos != want || ca.Traversals != pa.Traversals+1 {
					t.Fatalf("agent %d teleported: half-step 2 from %+v produced %+v (traversals %d -> %d)",
						i, pa.Pos, ca.Pos, pa.Traversals, ca.Traversals)
				}
			}
		}
	}
	// Every meeting recorded since the previous view must match its
	// participants' (stable) positions...
	for _, m := range c.meetings {
		for _, p := range m.Participants {
			pos := v.Agent(p).Pos
			if m.InEdge {
				if pos.Kind != InEdge || canonEdge(pos.From, pos.To) != m.Edge {
					c.t.Fatalf("in-edge meeting %+v but participant %d is at %+v", m, p, pos)
				}
			} else if pos.Kind != AtNode || pos.Node != m.Node {
				c.t.Fatalf("node meeting %+v but participant %d is at %+v", m, p, pos)
			}
		}
	}
	// ...and every newly-formed contact pair must have fired a meeting
	// covering it ("meetings fire exactly on the two conditions").
	cur := c.contactsOf(c.snapshot(v))
	if c.prevOK {
		for pair := range cur {
			if c.contacts[pair] {
				continue
			}
			covered := false
			for _, m := range c.meetings {
				in1, in2 := false, false
				for _, p := range m.Participants {
					in1 = in1 || p == pair[0]
					in2 = in2 || p == pair[1]
				}
				if in1 && in2 {
					covered = true
					break
				}
			}
			if !covered {
				c.t.Fatalf("agents %v came into contact without a meeting (meetings: %+v)",
					pair, c.meetings)
			}
		}
	}
	c.contacts = cur
	c.meetings = c.meetings[:0]
	c.prev = c.snapshot(v)
	c.prevOK = true
}

// snapshot copies the live per-agent views into the checker's buffer.
func (c *invariantChecker) snapshot(v *View) []AgentView {
	c.prev = c.prev[:0]
	for i, n := 0, v.K(); i < n; i++ {
		c.prev = append(c.prev, v.Agent(i))
	}
	return c.prev
}

// runFuzzSchedule executes one fuzzed schedule and returns its summary.
func runFuzzSchedule(t *testing.T, data []byte) Summary {
	g := graph.Ring(5)
	agents := []Agent{
		&Walker{Stepper: &fuzzWalk{data: data, off: 0, limit: 40}},
		&Walker{Stepper: &fuzzWalk{data: data, off: 7, limit: 40}},
		&Walker{Stepper: &fuzzWalk{data: data, off: 19, limit: 40}},
	}
	adv := &fuzzAdv{data: data}
	chk := &invariantChecker{t: t, g: g, adv: adv}
	adv.check = chk.check
	r, err := NewRunner(Config{
		Graph:          g,
		Starts:         []int{0, 2, 4},
		Agents:         agents,
		InitiallyAwake: []int{0},
		MaxSteps:       4 * len(data) * 3,
		Observer:       &FuncObserver{Meeting: chk.onMeeting},
	}, adv)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	return r.Run()
}

// FuzzAdversaryEvents feeds arbitrary event streams into Runner.apply
// through a synthetic adversary and asserts the half-step invariants of
// the package doc on every event. Each schedule runs twice: the second
// runner draws the first one's recycled scratch from the pool, and the
// two summaries must agree — no state may leak from one tenant into
// the next.
func FuzzAdversaryEvents(f *testing.F) {
	f.Add([]byte{1, 3, 0, 255, 17, 4, 4, 9, 2, 88, 13, 5})
	f.Add(bytes.Repeat([]byte{0}, 48))
	f.Add(bytes.Repeat([]byte{5, 1, 9}, 30))
	f.Add([]byte{250, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		first := runFuzzSchedule(t, data)
		second := runFuzzSchedule(t, data)
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("runs diverge on the same schedule:\nfirst  %+v\nsecond %+v", first, second)
		}
	})
}
