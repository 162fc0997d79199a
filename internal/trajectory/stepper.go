// Package trajectory implements the trajectory algebra of §3.1 of the
// paper: the basic exploration trajectory R(k, v) and the derived
// trajectories X, Q, Y', Y, Z, A', A, B, K and Ω (Definitions 3.1-3.8),
// together with their exact lengths.
//
// Trajectories are represented as lazy Steppers: deterministic programs
// that emit one exit port per move, reacting only to the local
// observations the model grants an agent (current degree and entry port).
// Laziness matters because the outer trajectories are astronomically long
// — |Ω(k)| grows like the 11th power of k even for linear-length
// exploration sequences (DESIGN.md §2.3) — while executions only ever
// touch a prefix. Exact lengths are therefore computed symbolically with
// math/big by Lengths, never by materialization.
package trajectory

import (
	"math/big"

	"meetpoly/internal/graph"
)

// Stepper emits the moves of a trajectory one at a time.
//
// The caller must pass, on each call, the degree of the agent's current
// node and the port by which the stepper's previous move entered it. On
// the first call — and, inside composite steppers, whenever a fresh
// sub-trajectory starts — the entry port is 0 by convention, mirroring
// the paper's application of an exploration sequence "from scratch".
//
// Next returns ok == false when the trajectory is complete; port is then
// meaningless. A Stepper is single-use: create a fresh one per execution.
type Stepper interface {
	Next(deg, entry int) (port int, ok bool)
}

// uxsStepper follows an exploration sequence: exit = (entry + x_i) mod deg.
// This realizes R(k, v) when given the catalog's Seq(k).
type uxsStepper struct {
	seq []int
	i   int
}

// NewUXS returns a stepper following the given offset sequence.
func NewUXS(seq []int) Stepper { return &uxsStepper{seq: seq} }

func (u *uxsStepper) Next(deg, entry int) (int, bool) {
	if u.i >= len(u.seq) {
		return 0, false
	}
	x := u.seq[u.i]
	u.i++
	return (entry + x) % deg, true
}

// mirror runs its inner stepper to completion and then backtracks along
// the reverse path: the realization of the T T̄ pattern used by X, Y and A.
// The reverse of a move that exited by q and entered by p is a move that
// exits by p and enters by q, so backtracking replays recorded entry
// ports in reverse order.
type mirror struct {
	fwd Stepper
	rec [][2]int32 // (exit, entry) per completed forward move

	pendingExit int32
	havePending bool
	replaying   bool
	replayIdx   int
}

// Mirror returns a stepper that follows s and then retraces it backwards,
// ending at the start node after exactly twice as many moves as s makes.
func Mirror(s Stepper) Stepper { return &mirror{fwd: s} }

func (m *mirror) Next(deg, entry int) (int, bool) {
	if m.replaying {
		if m.replayIdx < 0 {
			return 0, false
		}
		p := int(m.rec[m.replayIdx][1])
		m.replayIdx--
		return p, true
	}
	if m.havePending {
		m.rec = append(m.rec, [2]int32{m.pendingExit, int32(entry)})
		m.havePending = false
	}
	port, ok := m.fwd.Next(deg, entry)
	if ok {
		m.pendingExit = int32(port)
		m.havePending = true
		return port, true
	}
	// Forward finished: begin replay with the most recent move's entry.
	m.replaying = true
	m.replayIdx = len(m.rec) - 1
	if m.replayIdx < 0 {
		return 0, false
	}
	p := int(m.rec[m.replayIdx][1])
	m.replayIdx--
	return p, true
}

// chain concatenates sub-steppers produced on demand by gen (nil ends the
// chain). Each sub-stepper starts with the fresh-start entry convention.
type chain struct {
	gen func(i int) Stepper
	idx int
	cur Stepper

	started  bool // cur has made at least one move
	curMoved bool // the previous move of the chain was made by cur
}

// Chain returns the lazy concatenation of gen(0), gen(1), ... until gen
// returns nil. Sub-steppers are only instantiated when reached.
func Chain(gen func(i int) Stepper) Stepper { return &chain{gen: gen} }

// Concat returns the concatenation of the given steppers.
func Concat(subs ...Stepper) Stepper {
	return Chain(func(i int) Stepper {
		if i >= len(subs) {
			return nil
		}
		return subs[i]
	})
}

func (c *chain) Next(deg, entry int) (int, bool) {
	for {
		if c.cur == nil {
			c.cur = c.gen(c.idx)
			c.idx++
			if c.cur == nil {
				return 0, false
			}
			c.curMoved = false
		}
		e := entry
		if !c.curMoved {
			e = 0 // fresh start for a new sub-trajectory
		}
		port, ok := c.cur.Next(deg, e)
		if ok {
			c.curMoved = true
			return port, true
		}
		c.cur = nil
		// The sub made no further move; the next sub starts fresh, so the
		// original entry value is irrelevant from here on.
		entry = 0
	}
}

// repeat runs count fresh instances of the stepper produced by mk.
// count may be astronomically large (big.Int); instances are created
// lazily, so only executions that actually reach a repetition pay for it.
type repeat struct {
	mk    func() Stepper
	left  *big.Int
	cur   Stepper
	moved bool
}

// Repeat returns a stepper that follows mk() count times in sequence.
// count must be non-negative; it is copied.
func Repeat(mk func() Stepper, count *big.Int) Stepper {
	if count.Sign() < 0 {
		panic("trajectory: Repeat needs count >= 0")
	}
	return &repeat{mk: mk, left: new(big.Int).Set(count)}
}

var bigOne = big.NewInt(1)

func (r *repeat) Next(deg, entry int) (int, bool) {
	for {
		if r.cur == nil {
			if r.left.Sign() <= 0 {
				return 0, false
			}
			r.left.Sub(r.left, bigOne)
			r.cur = r.mk()
			r.moved = false
		}
		e := entry
		if !r.moved {
			e = 0
		}
		port, ok := r.cur.Next(deg, e)
		if ok {
			r.moved = true
			return port, true
		}
		r.cur = nil
		entry = 0
	}
}

// interleave follows the trunk trajectory R(k, v1) = (v1 ... vs) but
// inserts ins() at every trunk node before moving on, and once more at the
// final node: ins(v1) step ins(v2) step ... step ins(vs). This is the
// common shape of Y'(k, v) (insertions Q(k, vi), Definition 3.3) and
// A'(k, v) (insertions Z(k, vi), Definition 3.5).
//
// The trunk's exploration-sequence state uses the trunk's own entry ports,
// unaffected by the excursions, so the trunk realizes exactly R(k, v1).
type interleave struct {
	trunk Stepper
	ins   func() Stepper

	cur        Stepper // active insertion, nil when exhausted
	curMoved   bool
	trunkEntry int  // entry context for the next trunk step
	trunkPrev  bool // previous move was a trunk step
	trunkDone  bool
}

// Interleave returns the trunk-with-insertions composite described above.
func Interleave(trunk Stepper, ins func() Stepper) Stepper {
	return &interleave{trunk: trunk, ins: ins, cur: ins()}
}

func (iv *interleave) Next(deg, entry int) (int, bool) {
	if iv.trunkPrev {
		// The previous move belonged to the trunk; its arrival port is the
		// trunk's entry context, and a new insertion begins here.
		iv.trunkEntry = entry
		iv.trunkPrev = false
		iv.cur = iv.ins()
		iv.curMoved = false
	}
	if iv.cur != nil {
		e := entry
		if !iv.curMoved {
			e = 0
		}
		if port, ok := iv.cur.Next(deg, e); ok {
			iv.curMoved = true
			return port, true
		}
		iv.cur = nil
	}
	if iv.trunkDone {
		return 0, false
	}
	port, ok := iv.trunk.Next(deg, iv.trunkEntry)
	if !ok {
		iv.trunkDone = true
		return 0, false
	}
	iv.trunkPrev = true
	return port, true
}

// Trace records an executed trajectory prefix for analysis.
type Trace struct {
	Start   int
	Nodes   []int // node after each move
	Exits   []int // exit port of each move
	Entries []int // entry port of each move at its destination
}

// Moves returns the number of edge traversals in the trace.
func (t *Trace) Moves() int { return len(t.Nodes) }

// At returns the node occupied after m moves (At(0) == Start).
func (t *Trace) At(m int) int {
	if m == 0 {
		return t.Start
	}
	return t.Nodes[m-1]
}

// CoversAllEdges reports whether the trace traverses every edge of g.
func (t *Trace) CoversAllEdges(g *graph.Graph) bool {
	covered := make(map[[2]int]bool, g.M())
	cur := t.Start
	for i, p := range t.Exits {
		covered[g.EdgeID(cur, p)] = true
		cur = t.Nodes[i]
	}
	return len(covered) == g.M()
}

// Run executes s in g from start for at most limit moves. completed is
// true when the stepper signalled the end of its trajectory within the
// limit. A start node of degree 0 yields an empty trace.
func Run(g *graph.Graph, start int, s Stepper, limit int) (trace *Trace, completed bool) {
	t := &Trace{Start: start}
	cur, entry := start, 0
	for len(t.Nodes) < limit {
		d := g.Degree(cur)
		if d == 0 {
			return t, false
		}
		port, ok := s.Next(d, entry)
		if !ok {
			return t, true
		}
		if port < 0 || port >= d {
			panic("trajectory: stepper emitted out-of-range port")
		}
		to, in := g.Succ(cur, port)
		t.Exits = append(t.Exits, port)
		t.Entries = append(t.Entries, in)
		t.Nodes = append(t.Nodes, to)
		cur, entry = to, in
	}
	return t, false
}
