package sched

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"meetpoly/internal/graph"
	"meetpoly/internal/trajectory"
)

// phaseRecorder is a streamRecorder that also records phase
// announcements.
type phaseRecorder struct{ streamRecorder }

func (s *phaseRecorder) OnPhase(agent int, phase string) {
	s.recs = append(s.recs, obsRecord{kind: 'p', a: agent, b: len(phase)})
}

// phasedWalker is a Walker that announces its wake and its halt.
type phasedWalker struct{ Walker }

func (w *phasedWalker) Step(p *Proc, o Observation) Action {
	a := w.Walker.Step(p, o)
	switch {
	case a.Halt:
		p.Phase("halted")
	case o.Entry < 0:
		p.Phase("awake")
	}
	return a
}

// soloCase is one run of two to four walkers whose routes end, so the
// walkers halt one by one and the last mover may run alone.
type soloCase struct {
	g             *graph.Graph
	starts        []int
	lens          []int // route lengths in moves; 0 halts the walker at wake
	walkSeed      int64
	adv           int   // 0 round-robin, 1 avoider, 2 random
	advSeed       int64 // the random adversary's seed; the others' rotation
	awake         []int
	budget        int
	observe       bool
	stopAtMeeting bool // the walkers halt at their next decision after a meeting
	stopAtFirst   bool // the run ends at its first meeting
	stopAtCost    int  // > 0: a StopWhen ends the run once this many traversals are done
	cancelAtCost  bool // the StopWhen cancels the run's context instead, which the next poll sees
	phased        bool // walkers announce phases (and so never qualify for lockstep)
	book          bool // walkers replay route-book routes (two of them may take lockstep)
}

// soloOutcome is everything a run leaves behind that the solo and
// per-event paths must agree on.
type soloOutcome struct {
	Summary    Summary
	Stream     *phaseRecorder
	Adversary  Adversary
	MeetCounts []int
	StopCalls  []int // the step count at each StopWhen call
}

func (c soloCase) newAdversary() Adversary {
	switch c.adv {
	case 1:
		return &Avoider{next: int(c.advSeed % 3)}
	case 2:
		return NewRandom(c.advSeed)
	default:
		return &RoundRobin{next: int(c.advSeed % 3)}
	}
}

// run executes the case, with its adversary wrapped in perEvent when
// perEvt is set.
func (c soloCase) run(t *testing.T, perEvt bool) soloOutcome {
	t.Helper()
	book := trajectory.NewRouteBook(c.g)
	agents := make([]Agent, len(c.starts))
	walkers := make([]*Walker, len(c.starts))
	for i := range agents {
		n, seed := c.lens[i], c.walkSeed+int64(i)
		gen := func() trajectory.Stepper { return &randomWalk{rng: rand.New(rand.NewSource(seed)), left: n} }
		var st trajectory.Stepper = gen()
		if c.book {
			st = book.Stepper(trajectory.RouteKey{Start: c.starts[i], Kind: 'F', Param: uint64(i)}, gen)
		}
		w := Walker{Stepper: st, StopAtMeeting: c.stopAtMeeting, Payload: i}
		if c.phased {
			pw := &phasedWalker{Walker: w}
			agents[i], walkers[i] = pw, &pw.Walker
		} else {
			walkers[i] = &w
			agents[i] = walkers[i]
		}
	}
	adv := c.newAdversary()
	var sched Adversary = adv
	if perEvt {
		sched = perEvent{adv}
	}
	out := soloOutcome{Stream: &phaseRecorder{}, Adversary: adv}
	cfg := Config{
		Graph:              c.g,
		Starts:             c.starts,
		Agents:             agents,
		InitiallyAwake:     c.awake,
		MaxSteps:           c.budget,
		StopAtFirstMeeting: c.stopAtFirst,
	}
	if c.stopAtCost > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg.Context = ctx
		cfg.StopWhen = func(r *Runner) bool {
			out.StopCalls = append(out.StopCalls, r.Steps())
			if r.TotalCost() < c.stopAtCost {
				return false
			}
			if c.cancelAtCost {
				cancel()
				return false
			}
			return true
		}
	}
	if c.observe {
		cfg.Observer = out.Stream
	}
	r, err := NewRunner(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if (r.forcer != nil) == perEvt {
		t.Fatalf("%T: solo stretches enabled %v, want %v", sched, r.forcer != nil, !perEvt)
	}
	out.Summary = r.Run()
	for _, w := range walkers {
		out.MeetCounts = append(out.MeetCounts, w.MeetCount())
	}
	return out
}

// checkSolo runs the case on both paths and requires identical
// outcomes.
func checkSolo(t *testing.T, c soloCase) {
	t.Helper()
	got, want := c.run(t, false), c.run(t, true)
	if !reflect.DeepEqual(got.Summary, want.Summary) {
		t.Fatalf("%+v: summaries differ\nsolo      %+v\nper-event %+v", c, got.Summary, want.Summary)
	}
	if !reflect.DeepEqual(got.Stream, want.Stream) {
		t.Fatalf("%+v: observer streams differ (%d vs %d records)", c, len(got.Stream.recs), len(want.Stream.recs))
	}
	if !reflect.DeepEqual(got.StopCalls, want.StopCalls) {
		t.Fatalf("%+v: StopWhen called at steps %v, per event at %v", c, got.StopCalls, want.StopCalls)
	}
	if !reflect.DeepEqual(got.Adversary, want.Adversary) || !reflect.DeepEqual(got.MeetCounts, want.MeetCounts) {
		t.Fatalf("%+v: adversary %+v and meet counts %v, want %+v and %v",
			c, got.Adversary, got.MeetCounts, want.Adversary, want.MeetCounts)
	}
}

// FuzzSoloMatchesPerEvent pins solo stretches to the per-event path:
// two to four walkers on a small random connected graph, with routes
// short enough to end (an empty one halts its walker at wake), under
// round-robin, the avoider or a seeded random adversary, must leave the
// same Summary, observer stream (phases included), StopWhen calls,
// adversary state and meeting counts whether the runner applies solo
// stretches or asks the adversary for every event. A StopWhen may end
// the run, or cancel its context for the next poll to see. Agents left dormant
// keep the runner out of solo stretches until they wake, and route-book
// walkers let a two-agent run alternate in lockstep before one halts.
// Budgets straddle the context poll stride.
func FuzzSoloMatchesPerEvent(f *testing.F) {
	f.Add(int64(1155), uint8(6), uint8(0), uint32(0xe97cd828), int64(63), int64(34), uint16(1169), uint16(0xd1c4))
	f.Add(int64(386), uint8(1), uint8(1), uint32(0xe35a04fe), int64(3), int64(1), uint16(3782), uint16(0x0e44))
	f.Add(int64(2039), uint8(0), uint8(2), uint32(0x15fd4e2a), int64(87), int64(82), uint16(3880), uint16(0x8247))
	f.Add(int64(1592), uint8(2), uint8(2), uint32(0x0ee53d41), int64(95), int64(26), uint16(1160), uint16(0x9dc5))
	f.Add(int64(2596), uint8(4), uint8(0), uint32(0xb1112ef6), int64(21), int64(9), uint16(3242), uint16(0x5ec6))
	f.Add(int64(3033), uint8(0), uint8(1), uint32(0x075a09e5), int64(13), int64(18), uint16(2258), uint16(0xad46))
	f.Add(int64(1275), uint8(2), uint8(2), uint32(0xee1f1750), int64(23), int64(53), uint16(4984), uint16(0x5746))
	f.Add(int64(3692), uint8(1), uint8(0), uint32(0x5090da17), int64(55), int64(84), uint16(2154), uint16(0x6187))
	f.Add(int64(1868), uint8(5), uint8(0), uint32(0xf667c414), int64(62), int64(58), uint16(4414), uint16(0x3b81))
	f.Add(int64(3042), uint8(4), uint8(0), uint32(0xfa3ff60c), int64(20), int64(81), uint16(1615), uint16(0x6f82))
	f.Add(int64(1420), uint8(5), uint8(1), uint32(0x9462a800), int64(24), int64(57), uint16(2362), uint16(0x0f8c))
	f.Add(int64(2812), uint8(4), uint8(1), uint32(0x0efc0706), int64(95), int64(2387), uint16(2467), uint16(0x6867))
	f.Add(int64(3786), uint8(3), uint8(1), uint32(0xda13e909), int64(71), int64(3965), uint16(4181), uint16(0xece5))
	f.Add(int64(1684), uint8(1), uint8(0), uint32(0x4fba02f6), int64(37), int64(2200), uint16(1855), uint16(0xf3a6))
	f.Add(int64(2674), uint8(1), uint8(0), uint32(0x562bf418), int64(45), int64(6036), uint16(1901), uint16(0xb866))
	f.Add(int64(1844), uint8(6), uint8(1), uint32(0x730fd900), int64(68), int64(5844), uint16(1564), uint16(0x91e1))
	f.Add(int64(1575), uint8(6), uint8(0), uint32(0xcb3e06c7), int64(4), int64(1412), uint16(2634), uint16(0x6223))
	f.Add(int64(4), uint8(6), uint8(1), uint32(0x00002700), int64(5), int64(2), uint16(64), uint16(0x0b85))
	f.Add(int64(5), uint8(2), uint8(0), uint32(0x00000c27), int64(13), int64(5), uint16(65), uint16(0x0389))
	f.Fuzz(func(t *testing.T, graphSeed int64, n, k uint8, lens uint32, walkSeed, advSeed int64, budget, flags uint16) {
		agents := 2 + int(k)%3
		nodes := max(agents, 2+int(n)%7)
		c := soloCase{
			g:             graph.RandomConnected(nodes, 0.2+float64(flags>>12)/20, graphSeed),
			walkSeed:      walkSeed,
			adv:           int(flags&3) % 3,
			advSeed:       advSeed & (1<<62 - 1),
			budget:        1 + int(budget)%5000,
			observe:       flags&4 != 0,
			stopAtMeeting: flags&8 != 0,
			stopAtFirst:   flags&16 != 0,
			phased:        flags&64 != 0,
			book:          flags&128 != 0,
		}
		if flags&32 != 0 {
			c.stopAtCost = 1 + int(advSeed>>3&511)
			c.cancelAtCost = advSeed&4 != 0
		}
		c.starts = rand.New(rand.NewSource(graphSeed)).Perm(nodes)[:agents]
		for i := range agents {
			c.lens = append(c.lens, int(lens>>(8*i)&0xff))
			if flags>>(8+i)&1 != 0 {
				c.awake = append(c.awake, i)
			}
		}
		checkSolo(t, c)
	})
}
