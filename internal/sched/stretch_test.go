package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"meetpoly/internal/graph"
	"meetpoly/internal/trajectory"
)

// perEvent hides a rotator's rotation, so a run under it never
// qualifies for contact-free stretches and takes the per-event path for
// every event: the reference Runner.lockstep is pinned to. Next
// forwards explicitly; embedding the adversary would promote rotation.
type perEvent struct{ a Adversary }

func (p perEvent) Next(v *View) (Event, bool) { return p.a.Next(v) }

// obsRecord is one recorded observer callback.
type obsRecord struct {
	kind    byte // 'e' event, 't' traversal, 'm' meeting
	a, b, c int
}

// streamRecorder records an observer stream in order; meetings keep
// their full records.
type streamRecorder struct {
	recs     []obsRecord
	meetings []Meeting
}

func (s *streamRecorder) OnEvent(step int, ev Event) {
	s.recs = append(s.recs, obsRecord{kind: 'e', a: step, b: int(ev.Kind), c: ev.Agent})
}

func (s *streamRecorder) OnTraversal(agent, from, to int) {
	s.recs = append(s.recs, obsRecord{kind: 't', a: agent, b: from, c: to})
}

func (s *streamRecorder) OnMeeting(m Meeting) {
	s.recs = append(s.recs, obsRecord{kind: 'm', a: len(s.meetings)})
	s.meetings = append(s.meetings, m)
}

// OnPhase records nothing: walkers announce no phases.
func (s *streamRecorder) OnPhase(int, string) {}

// randomWalk is a route generator: moves uniformly random ports from a
// seeded source and ends after left moves.
type randomWalk struct {
	rng  *rand.Rand
	left int
}

func (w *randomWalk) Next(deg, _ int) (int, bool) {
	if w.left == 0 {
		return 0, false
	}
	w.left--
	return w.rng.Intn(deg), true
}

// stretchCase is one two-walker run on route-book replays.
type stretchCase struct {
	g              *graph.Graph
	starts         [2]int
	lens           [2]int   // route lengths (moves)
	seeds          [2]int64 // route generator seeds
	avoider        bool
	budget         int
	observe        bool
	stopAtMeeting  bool // the walkers halt at their next decision after a meeting
	stopAtFirst    bool // the run ends at its first meeting
	secondSleeping bool // agent 1 starts dormant
}

// stretchOutcome is everything a run leaves behind that the two paths
// must agree on.
type stretchOutcome struct {
	Summary    Summary
	Stream     *streamRecorder
	BookBytes  int64
	Adversary  Adversary
	MeetCounts [2]int
}

// run executes the case on a fresh route book, with its adversary
// wrapped in perEvent when perEvt is set. It also reports whether the
// runner qualified for stretches.
func (c stretchCase) run(t *testing.T, perEvt bool) (stretchOutcome, bool) {
	t.Helper()
	book := trajectory.NewRouteBook(c.g)
	var ws [2]*Walker
	for i := range ws {
		n, seed := c.lens[i], c.seeds[i]
		gen := func() trajectory.Stepper { return &randomWalk{rng: rand.New(rand.NewSource(seed)), left: n} }
		ws[i] = &Walker{
			Stepper:       book.Stepper(trajectory.RouteKey{Start: c.starts[i], Kind: 'F', Param: uint64(i)}, gen),
			StopAtMeeting: c.stopAtMeeting,
			Payload:       i,
		}
	}
	var adv Adversary = &RoundRobin{}
	if c.avoider {
		adv = &Avoider{}
	}
	var sched Adversary = adv
	if perEvt {
		sched = perEvent{adv}
	}
	cfg := Config{
		Graph:              c.g,
		Starts:             c.starts[:],
		Agents:             []Agent{ws[0], ws[1]},
		InitiallyAwake:     []int{0, 1},
		MaxSteps:           c.budget,
		StopAtFirstMeeting: c.stopAtFirst,
	}
	if c.secondSleeping {
		cfg.InitiallyAwake = []int{0}
	}
	rec := &streamRecorder{}
	if c.observe {
		cfg.Observer = rec
	}
	r, err := NewRunner(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	qualified := r.rot != nil
	out := stretchOutcome{Summary: r.Run(), Stream: rec, BookBytes: book.Bytes(), Adversary: adv}
	for i, w := range ws {
		out.MeetCounts[i] = w.MeetCount()
	}
	return out, qualified
}

// checkStretch runs the case on both paths and requires identical
// outcomes.
func checkStretch(t *testing.T, c stretchCase) {
	t.Helper()
	got, qualified := c.run(t, false)
	if !qualified {
		t.Fatalf("%+v: a route-replay pair under %T did not qualify for stretches", c, got.Adversary)
	}
	want, qualified := c.run(t, true)
	if qualified {
		t.Fatal("the perEvent wrapper qualified for stretches")
	}
	if !reflect.DeepEqual(got.Summary, want.Summary) {
		t.Fatalf("%+v: summaries differ\nstretch   %+v\nper-event %+v", c, got.Summary, want.Summary)
	}
	if !reflect.DeepEqual(got.Stream, want.Stream) {
		t.Fatalf("%+v: observer streams differ (%d vs %d records)", c, len(got.Stream.recs), len(want.Stream.recs))
	}
	if got.BookBytes != want.BookBytes {
		t.Fatalf("%+v: route books hold %d bytes after the stretch run, %d after the per-event run",
			c, got.BookBytes, want.BookBytes)
	}
	if !reflect.DeepEqual(got.Adversary, want.Adversary) || got.MeetCounts != want.MeetCounts {
		t.Fatalf("%+v: adversary %+v and meet counts %v, want %+v and %v",
			c, got.Adversary, got.MeetCounts, want.Adversary, want.MeetCounts)
	}
}

// FuzzStretchMatchesPerEvent pins contact-free stretches to the
// per-event path: two walkers replaying random-walk routes from a route
// book, on a small random connected graph, under round-robin or the
// avoider, must leave the same Summary, observer stream, route-book
// size, adversary rotation and meeting counts whether the runner
// applies stretches or asks the adversary for every event. Routes are
// short enough to end, so walkers halt; budgets straddle the context
// poll stride and the route-growth batches.
func FuzzStretchMatchesPerEvent(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0), uint8(2), uint16(300), uint16(300), int64(7), uint16(1000), uint8(0))
	f.Add(int64(2), uint8(6), uint8(1), uint8(5), uint16(1400), uint16(90), int64(3), uint16(5000), uint8(1))
	f.Add(int64(3), uint8(0), uint8(0), uint8(1), uint16(40), uint16(0), int64(11), uint16(129), uint8(2))
	f.Add(int64(4), uint8(3), uint8(2), uint8(4), uint16(1100), uint16(1100), int64(5), uint16(4500), uint8(3))
	f.Add(int64(5), uint8(5), uint8(0), uint8(3), uint16(64), uint16(65), int64(13), uint16(63), uint8(5))
	f.Add(int64(6), uint8(2), uint8(1), uint8(3), uint16(700), uint16(500), int64(17), uint16(2049), uint8(6))
	f.Add(int64(7), uint8(6), uint8(7), uint8(0), uint16(1500), uint16(1499), int64(19), uint16(5999), uint8(13))
	f.Add(int64(8), uint8(1), uint8(0), uint8(2), uint16(200), uint16(800), int64(23), uint16(3000), uint8(17))
	f.Fuzz(func(t *testing.T, graphSeed int64, n, s1, s2 uint8, len1, len2 uint16, walkSeed int64, budget uint16, flags uint8) {
		nodes := 2 + int(n)%7
		c := stretchCase{
			g:              graph.RandomConnected(nodes, 0.2+float64(flags>>5)/10, graphSeed),
			starts:         [2]int{int(s1) % nodes, int(s2) % nodes},
			lens:           [2]int{int(len1) % 1500, int(len2) % 1500},
			seeds:          [2]int64{walkSeed, walkSeed + 1},
			avoider:        flags&1 != 0,
			budget:         1 + int(budget)%6000,
			observe:        flags&2 != 0,
			stopAtMeeting:  flags&4 != 0,
			stopAtFirst:    flags&8 != 0,
			secondSleeping: flags&16 != 0,
		}
		if c.starts[0] == c.starts[1] {
			c.starts[1] = (c.starts[0] + 1) % nodes
		}
		checkStretch(t, c)
	})
}

// TestAlternationMatchesRun pins Alternation, the closed form of a
// contact-free alternation, to the per-event path: two walkers repeat
// the same ports on an oriented ring from distinct starts, so their
// positions stay rotations of each other and never touch, and every
// event of the run is an alternating half-step. For both adversaries,
// every starting rotation and budgets on both sides of each parity,
// the run's Summary and final rotation must equal the closed form's.
// Odd budgets hand the closed form a stale two-count buffer to reuse.
func TestAlternationMatchesRun(t *testing.T) {
	g := graph.Ring(6)
	var budgets []int
	for b := 1; b <= 130; b++ {
		budgets = append(budgets, b)
	}
	budgets = append(budgets, 1000, 1001, 4097)
	newAdv := func(avoider bool, rot int) Adversary {
		if avoider {
			return &Avoider{next: rot}
		}
		return &RoundRobin{next: rot}
	}
	for _, ports := range [][]int{{0}, {1}, {0, 0, 1}, {1, 0, 1, 1, 0}} {
		for _, starts := range [][]int{{0, 3}, {1, 2}, {5, 1}} {
			for _, avoider := range []bool{false, true} {
				for rot := 0; rot <= 2; rot++ {
					for _, budget := range budgets {
						ref := newAdv(avoider, rot)
						r, err := NewRunner(Config{
							Graph: g, Starts: starts,
							Agents: []Agent{
								&Walker{Stepper: &cycleWalk{ports: ports}, StopAtMeeting: true},
								&Walker{Stepper: &cycleWalk{ports: ports}, StopAtMeeting: true},
							},
							InitiallyAwake: []int{0, 1}, MaxSteps: budget, StopAtFirstMeeting: true,
						}, perEvent{ref})
						if err != nil {
							t.Fatal(err)
						}
						want := r.Run()
						r.Close()
						adv := newAdv(avoider, rot)
						if !Alternates(adv) || Alternates(perEvent{adv}) {
							t.Fatal("Alternates must hold for the rotators alone")
						}
						var trav []int
						if budget%2 == 1 {
							trav = []int{-1, -1}
						}
						if got := Alternation(adv, budget, trav); !reflect.DeepEqual(got, want) {
							t.Fatalf("ports %v starts %v avoider %v rotation %d budget %d: closed form %+v, run %+v",
								ports, starts, avoider, rot, budget, got, want)
						}
						if !reflect.DeepEqual(adv, ref) {
							t.Fatalf("ports %v starts %v avoider %v rotation %d budget %d: closed form leaves %+v, run %+v",
								ports, starts, avoider, rot, budget, adv, ref)
						}
					}
				}
			}
		}
	}
}
