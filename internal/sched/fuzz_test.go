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

// peerRecorder is a Walker that keeps a copy of every peer list it is
// delivered: the runner reuses its peer buffers, so only a copy taken
// inside OnMeet shows what the agent actually saw.
type peerRecorder struct {
	Walker
	delivered [][]Peer // peer lists since the checker last looked
}

func (w *peerRecorder) OnMeet(e Encounter) {
	w.Walker.OnMeet(e)
	w.delivered = append(w.delivered, append([]Peer(nil), e.Peers...))
}

// invariantChecker verifies, between consecutive adversary views, the
// half-step semantics of the package doc: only the evented agent moves,
// an agent at a node can only enter the edge its committed port names,
// an agent strictly inside an edge can only arrive at its far endpoint
// (never teleport), and meetings fire exactly when a pair of agents
// comes newly into contact — at a shared node, or inside a shared edge
// in opposite directions. At every meeting it also checks what each
// participant was delivered: exactly the other participants, in
// ascending ID order, each with its own payload.
type invariantChecker struct {
	t        *testing.T
	g        *graph.Graph
	agents   []*peerRecorder
	prev     []AgentView
	prevOK   bool
	contacts map[[2]int]bool
	meetings []Meeting // since the previous view
	stream   []Meeting // the whole run's
	adv      *fuzzAdv
}

func (c *invariantChecker) onMeeting(m Meeting) {
	c.meetings = append(c.meetings, m)
	c.stream = append(c.stream, m)
	in := make(map[int]bool, len(m.Participants))
	for _, id := range m.Participants {
		in[id] = true
	}
	for id, a := range c.agents {
		if !in[id] {
			if len(a.delivered) != 0 {
				c.t.Fatalf("agent %d was delivered %v outside meeting %+v", id, a.delivered, m)
			}
			continue
		}
		if len(a.delivered) != 1 {
			c.t.Fatalf("agent %d was delivered %d encounters for meeting %+v", id, len(a.delivered), m)
		}
		var want []int
		for other := range c.agents {
			if other != id && in[other] {
				want = append(want, other)
			}
		}
		got := a.delivered[0]
		if len(got) != len(want) {
			c.t.Fatalf("agent %d got peers %v at meeting %+v, want IDs %v", id, got, m, want)
		}
		for i, p := range got {
			if p.ID != want[i] || p.Payload != c.agents[want[i]].Payload {
				c.t.Fatalf("agent %d got peers %v at meeting %+v, want IDs %v with their own payloads",
					id, got, m, want)
			}
		}
		a.delivered = a.delivered[:0]
	}
}

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

// runFuzzSchedule executes one fuzzed schedule and returns its summary
// and meeting stream.
func runFuzzSchedule(t *testing.T, data []byte) (Summary, []Meeting) {
	g := graph.Ring(5)
	var recs []*peerRecorder
	var agents []Agent
	for _, off := range []int{0, 7, 19} {
		w := &peerRecorder{Walker: Walker{Stepper: &fuzzWalk{data: data, off: off, limit: 40}, Payload: new(int)}}
		recs = append(recs, w)
		agents = append(agents, w)
	}
	adv := &fuzzAdv{data: data}
	chk := &invariantChecker{t: t, g: g, agents: recs, adv: adv}
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
	return r.Run(), chk.stream
}

// FuzzAdversaryEvents feeds arbitrary event streams into Runner.apply
// through a synthetic adversary and asserts the half-step invariants of
// the package doc on every event, and at every meeting the peer list
// each participant was delivered. Each schedule runs twice: the second
// runner draws the first one's recycled scratch from the pool, and the
// two summaries and meeting streams must agree — no state may leak from
// one tenant into the next.
func FuzzAdversaryEvents(f *testing.F) {
	f.Add([]byte{1, 3, 0, 255, 17, 4, 4, 9, 2, 88, 13, 5})
	f.Add(bytes.Repeat([]byte{0}, 48))
	f.Add(bytes.Repeat([]byte{5, 1, 9}, 30))
	f.Add([]byte{250, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		first, firstMeetings := runFuzzSchedule(t, data)
		second, secondMeetings := runFuzzSchedule(t, data)
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("runs diverge on the same schedule:\nfirst  %+v\nsecond %+v", first, second)
		}
		if !reflect.DeepEqual(firstMeetings, secondMeetings) {
			t.Fatalf("meeting streams diverge on the same schedule:\nfirst  %+v\nsecond %+v",
				firstMeetings, secondMeetings)
		}
	})
}

// FuzzCertifyMatchesReference compares the certifier's word-parallel row
// fill, and WorstSchedule built on it, with the cell-by-cell reference.
// The input names a small graph, both start nodes and each route's
// length (up to 255 moves, so a row spans up to eight words); the exit
// ports come from the remaining bytes, read cyclically, so a short input
// still drives long routes across word boundaries.
func FuzzCertifyMatchesReference(f *testing.F) {
	graphs := []*graph.Graph{
		graph.Path(2), graph.Path(3), graph.Ring(4), graph.Star(4),
		graph.Complete(4), graph.ShufflePorts(graph.Ring(5), 5), graph.BinaryTree(6),
	}
	f.Add([]byte{0, 0, 1, 3, 3, 0})
	f.Add([]byte{2, 0, 2, 64, 64, 0})    // co-rotation on a ring: an escape
	f.Add([]byte{2, 1, 3, 32, 31, 0, 1}) // 65 and 63 cells per row
	f.Add([]byte{4, 0, 3, 63, 129, 2, 1, 0, 3, 1})
	f.Add([]byte{5, 1, 4, 128, 127, 7, 4, 9, 2, 88, 13, 5})
	f.Add([]byte{6, 0, 5, 200, 0, 1, 1, 0})   // B never moves
	f.Add([]byte{3, 1, 3, 0, 65, 3, 0, 2, 1}) // A never moves
	f.Add([]byte{1, 2, 2, 5, 5, 0})           // the same start
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		g := graphs[int(data[0])%len(graphs)]
		ports := data[5:]
		walk := func(start, moves, off int) []int {
			r := []int{start}
			for i := 0; i < moves; i++ {
				v := r[len(r)-1]
				to, _ := g.Succ(v, int(ports[(off+i)%len(ports)])%g.Degree(v))
				r = append(r, to)
			}
			return r
		}
		matchReference(t, walk(int(data[1])%g.N(), int(data[3]), 0),
			walk(int(data[2])%g.N(), int(data[4]), len(ports)/2))
	})
}
