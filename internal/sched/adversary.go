package sched

import (
	"fmt"
	"math/rand"

	"meetpoly/internal/lazyrand"
)

// RoundRobin wakes every agent immediately and then advances agents in
// cyclic index order, skipping those that cannot act. It is the
// synchronous-like baseline schedule.
type RoundRobin struct {
	next int
}

// Next implements Adversary.
//
//rvlint:hotpath
func (rr *RoundRobin) Next(v *View) (Event, bool) {
	n := v.K()
	if v.AnyDormant() {
		for i := 0; i < n; i++ {
			if v.CanWake(i) {
				return Event{Kind: EventWake, Agent: i}, true
			}
		}
	}
	// rr.next stays in [0, n); the wrap is a compare instead of a
	// modulo, which costs an integer division in this per-event loop.
	if rr.next >= n {
		rr.next = 0
	}
	i := rr.next
	for off := 0; off < n; off++ {
		if v.CanAdvance(i) {
			rr.next = i + 1
			return Event{Kind: EventAdvance, Agent: i}, true
		}
		i++
		if i >= n {
			i = 0
		}
	}
	return Event{}, false
}

// rotation implements rotator: while both agents of a two-walker run
// can advance, Next alternates them from rr.next.
func (rr *RoundRobin) rotation() *int { return &rr.next }

// forced implements forcer: Next picks the one agent that can act and
// prefers the agent after it next.
func (rr *RoundRobin) forced(agent, _ int) { rr.next = agent + 1 }

// Biased advances agent i Weights[i] half-steps per cycle, modelling
// persistently different agent speeds (e.g. 10:1). Zero-weight agents are
// frozen until everyone else is stuck, keeping the schedule valid.
type Biased struct {
	Weights []int

	cur  int
	left int
}

// Next implements Adversary.
//
//rvlint:hotpath
func (b *Biased) Next(v *View) (Event, bool) {
	n := v.K()
	if len(b.Weights) != n {
		badWeights(len(b.Weights), n)
	}
	if v.AnyDormant() {
		for i := 0; i < n; i++ {
			if v.CanWake(i) {
				return Event{Kind: EventWake, Agent: i}, true
			}
		}
	}
	for tries := 0; tries < 2*n+1; tries++ {
		if b.left > 0 && v.CanAdvance(b.cur) {
			b.left--
			return Event{Kind: EventAdvance, Agent: b.cur}, true
		}
		b.cur = (b.cur + 1) % n
		b.left = b.Weights[b.cur]
	}
	// All weighted agents stuck; advance anyone actionable (including
	// zero-weight agents) to preserve progress.
	for i := 0; i < n; i++ {
		if v.CanAdvance(i) {
			return Event{Kind: EventAdvance, Agent: i}, true
		}
	}
	return Event{}, false
}

// badWeights fails loudly on a mis-sized weight vector (Biased.Next's
// cold path, kept out of its hot body).
func badWeights(have, want int) {
	panic(fmt.Sprintf("sched: Biased has %d weights for %d agents", have, want))
}

// LateWake keeps every agent except Primary dormant for Hold events,
// modelling the adversary's freedom to start agents at different times,
// then falls back to round-robin. Dormant agents are still woken earlier
// if a travelling agent visits their start node (the runner enforces the
// model's wake-on-visit rule independently of the adversary).
type LateWake struct {
	Primary int
	Hold    int

	rr RoundRobin
}

// Next implements Adversary.
//
//rvlint:hotpath
func (l *LateWake) Next(v *View) (Event, bool) {
	if v.Steps < l.Hold {
		if v.CanWake(l.Primary) {
			return Event{Kind: EventWake, Agent: l.Primary}, true
		}
		if v.CanAdvance(l.Primary) {
			return Event{Kind: EventAdvance, Agent: l.Primary}, true
		}
		// Primary stuck (halted or mid-meeting): fall through to RR so
		// the run keeps progressing.
	}
	return l.rr.Next(v)
}

// Random issues uniformly random valid events from a seeded source:
// chaotic but reproducible speed variation.
type Random struct {
	rng *rand.Rand
	src *lazyrand.Source // rng's source, drawn directly by forced
	buf []Event          // candidate scratch, reused so Next allocates nothing
}

// NewRandom returns a Random adversary with the given seed. Its source
// draws rand.NewSource(seed)'s stream but seeds at the cost of the
// draws a run makes (internal/lazyrand).
func NewRandom(seed int64) *Random {
	src := lazyrand.New(seed)
	return &Random{rng: rand.New(src), src: src}
}

// Next implements Adversary.
//
//rvlint:hotpath
func (r *Random) Next(v *View) (Event, bool) {
	candidates := r.buf[:0]
	anyDormant := v.AnyDormant()
	for i, n := 0, v.K(); i < n; i++ {
		if anyDormant && v.CanWake(i) {
			// The append target is r.buf, which grows to 2k once and is
			// reused every event after; amortized cost is zero.
			candidates = append(candidates, Event{Kind: EventWake, Agent: i}) //lint:allow hotalloc
		}
		if v.CanAdvance(i) {
			candidates = append(candidates, Event{Kind: EventAdvance, Agent: i}) //lint:allow hotalloc
		}
	}
	r.buf = candidates
	if len(candidates) == 0 {
		return Event{}, false
	}
	return candidates[r.rng.Intn(len(candidates))], true
}

// forced implements forcer: with one candidate, each Next draws
// Intn(1), which consumes one Int63, and leaves that candidate in buf.
//
//rvlint:hotpath
func (r *Random) forced(agent, events int) {
	for range events {
		r.src.Int63()
	}
	// The append grows buf only where Next's first append would.
	r.buf = append(r.buf[:0], Event{Kind: EventAdvance, Agent: agent}) //lint:allow hotalloc
}

// Avoider is the meeting-dodging adversary: it wakes everyone (a mobile
// agent dodges better than a sitting one) and then advances, by rotating
// preference, only agents whose next half-step creates no contact. When
// every possible advance creates contact the meeting is locally
// unavoidable and the avoider concedes the least-bad event. This is the
// strongest online strategy; the lattice certifier (Certify) bounds what
// any strategy, online or not, could achieve for two agents.
type Avoider struct {
	next int
}

// Next implements Adversary.
//
//rvlint:hotpath
func (a *Avoider) Next(v *View) (Event, bool) {
	n := v.K()
	if v.AnyDormant() {
		for i := 0; i < n; i++ {
			if v.CanWake(i) {
				return Event{Kind: EventWake, Agent: i}, true
			}
		}
	}
	if a.next >= n {
		a.next = 0
	}
	// First pass: a contact-free advance. (Wrapping by compare, not
	// modulo: this loop runs every adversary event.)
	i := a.next
	for off := 0; off < n; off++ {
		if v.CanAdvance(i) && !v.advanceContact(i) {
			a.next = i + 1
			return Event{Kind: EventAdvance, Agent: i}, true
		}
		i++
		if i >= n {
			i = 0
		}
	}
	// Forced: concede with any valid advance.
	i = a.next
	for off := 0; off < n; off++ {
		if v.CanAdvance(i) {
			a.next = i + 1
			return Event{Kind: EventAdvance, Agent: i}, true
		}
		i++
		if i >= n {
			i = 0
		}
	}
	return Event{}, false
}

// rotation implements rotator: while both agents of a two-walker run
// can advance, Next alternates them from a.next until the preferred
// half-step would create contact.
func (a *Avoider) rotation() *int { return &a.next }

// forced implements forcer: Next picks the one agent that can act,
// dodging or conceding, and prefers the agent after it next.
func (a *Avoider) forced(agent, _ int) { a.next = agent + 1 }
