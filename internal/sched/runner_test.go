package sched

import (
	"testing"

	"meetpoly/internal/graph"
	"meetpoly/internal/trajectory"
	"meetpoly/internal/uxs"
)

// portScript is a stepper following a fixed port list, ignoring entries.
type portScript struct {
	ports []int
	i     int
}

func (s *portScript) Next(deg, entry int) (int, bool) {
	if s.i >= len(s.ports) {
		return 0, false
	}
	p := s.ports[s.i]
	s.i++
	return p % deg, true
}

func script(ports ...int) trajectory.Stepper { return &portScript{ports: ports} }

func mustRunner(t *testing.T, cfg Config, adv Adversary) *Runner {
	t.Helper()
	r, err := NewRunner(cfg, adv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func TestNodeMeetingOnPath(t *testing.T) {
	// A walks from node 0 towards a parked (halted immediately) B at 2.
	g := graph.Path(3)
	// On a path, interior node i reaches i+1 via port 1; node 0 via port 0.
	a := &Walker{Stepper: script(0, 1), StopAtMeeting: true}
	b := &Walker{Stepper: script()} // halts at once
	r := mustRunner(t, Config{
		Graph: g, Starts: []int{0, 2}, Agents: []Agent{a, b},
		InitiallyAwake: []int{0, 1}, MaxSteps: 100,
		StopAtFirstMeeting: true,
	}, &RoundRobin{})
	sum := r.Run()
	if sum.FirstMeeting == nil {
		t.Fatal("no meeting on a 3-path with a parked target")
	}
	if sum.FirstMeeting.InEdge {
		t.Error("meeting should be at a node")
	}
	if sum.FirstMeeting.Node != 2 && sum.FirstMeeting.Node != 1 {
		t.Errorf("unexpected meeting node %d", sum.FirstMeeting.Node)
	}
	if !a.Met() || !b.Met() {
		t.Error("both agents should have been notified")
	}
	if sum.TotalCost < 1 || sum.TotalCost > 2 {
		t.Errorf("cost %d out of expected range", sum.TotalCost)
	}
}

func TestCrossingMeetingInsideEdge(t *testing.T) {
	// Two agents on a 2-path both enter the single edge from opposite
	// ends: the crossing is topologically forced.
	g := graph.Path(2)
	a := &Walker{Stepper: script(0), StopAtMeeting: true}
	b := &Walker{Stepper: script(0), StopAtMeeting: true}
	r := mustRunner(t, Config{
		Graph: g, Starts: []int{0, 1}, Agents: []Agent{a, b},
		InitiallyAwake: []int{0, 1}, MaxSteps: 100,
	}, &RoundRobin{})
	sum := r.Run()
	if sum.FirstMeeting == nil {
		t.Fatal("no meeting")
	}
	if !sum.FirstMeeting.InEdge {
		t.Error("meeting should be a crossing inside the edge")
	}
	if got := sum.FirstMeeting.Edge; got != [2]int{0, 1} {
		t.Errorf("meeting edge %v", got)
	}
}

func TestAvoiderCannotDodgeForcedCrossing(t *testing.T) {
	g := graph.Path(2)
	a := &Walker{Stepper: script(0), StopAtMeeting: true}
	b := &Walker{Stepper: script(0), StopAtMeeting: true}
	r := mustRunner(t, Config{
		Graph: g, Starts: []int{0, 1}, Agents: []Agent{a, b},
		InitiallyAwake: []int{0, 1}, MaxSteps: 100,
	}, &Avoider{})
	sum := r.Run()
	if sum.FirstMeeting == nil {
		t.Fatal("avoider escaped a forced meeting on the 2-path")
	}
}

func TestAvoiderDodgesCoRotation(t *testing.T) {
	// Two agents chasing each other clockwise around a ring never have to
	// meet; the avoider must keep them apart for the whole budget.
	g := graph.Ring(4)
	mk := func() trajectory.Stepper {
		return trajectory.Repeat(func() trajectory.Stepper { return script(0) }, bigInt(1000))
	}
	a := &Walker{Stepper: mk()}
	b := &Walker{Stepper: mk()}
	r := mustRunner(t, Config{
		Graph: g, Starts: []int{0, 2}, Agents: []Agent{a, b},
		InitiallyAwake: []int{0, 1}, MaxSteps: 500,
	}, &Avoider{})
	sum := r.Run()
	if sum.FirstMeeting != nil {
		t.Fatalf("avoider met at step %d while co-rotation escape exists", sum.FirstMeeting.Step)
	}
	if sum.TotalCost == 0 {
		t.Error("no progress made")
	}
}

func TestWakeOnVisit(t *testing.T) {
	// B is dormant at node 2; A walks there. B must wake and then move.
	g := graph.Path(4)
	a := &Walker{Stepper: script(0, 0)}
	b := &Walker{Stepper: script(0, 0, 0)} // wakes, then walks
	r := mustRunner(t, Config{
		Graph: g, Starts: []int{0, 2}, Agents: []Agent{a, b},
		InitiallyAwake: []int{0}, // B stays dormant
		MaxSteps:       200,
	}, &LateWake{Primary: 0, Hold: 1 << 30})
	sum := r.Run()
	if sum.FirstMeeting == nil {
		t.Fatal("A never reached the dormant B")
	}
	if sum.Traversals[1] == 0 {
		t.Error("B woke but never moved")
	}
}

func TestHaltedAgentRemainsMeetable(t *testing.T) {
	g := graph.Path(3)
	a := &Walker{Stepper: script()} // halts immediately at node 0
	b := &Walker{Stepper: script(0, 0)}
	// b's port 0 at node 2 leads towards node 1 then 0.
	r := mustRunner(t, Config{
		Graph: g, Starts: []int{0, 2}, Agents: []Agent{a, b},
		InitiallyAwake: []int{0, 1}, MaxSteps: 100,
	}, &RoundRobin{})
	sum := r.Run()
	if sum.FirstMeeting == nil {
		t.Fatal("halted agent was never met")
	}
	if !a.Met() {
		t.Error("halted agent did not receive the meeting")
	}
}

func TestStopWhenAndMaxSteps(t *testing.T) {
	g := graph.Ring(5)
	long := func() trajectory.Stepper {
		return trajectory.Repeat(func() trajectory.Stepper { return script(0) }, bigInt(100000))
	}
	a := &Walker{Stepper: long()}
	b := &Walker{Stepper: long()}
	r := mustRunner(t, Config{
		Graph: g, Starts: []int{0, 2}, Agents: []Agent{a, b},
		InitiallyAwake: []int{0, 1}, MaxSteps: 57,
	}, &RoundRobin{})
	sum := r.Run()
	if sum.Steps > 57 {
		t.Errorf("MaxSteps exceeded: %d", sum.Steps)
	}
	// StopWhen variant.
	a2 := &Walker{Stepper: long()}
	b2 := &Walker{Stepper: long()}
	stopAt := 0
	r2 := mustRunner(t, Config{
		Graph: g, Starts: []int{0, 2}, Agents: []Agent{a2, b2},
		InitiallyAwake: []int{0, 1}, MaxSteps: 10000,
		StopWhen: func(r *Runner) bool {
			stopAt++
			return r.TotalCost() >= 10
		},
	}, &RoundRobin{})
	sum2 := r2.Run()
	if sum2.TotalCost < 10 || sum2.TotalCost > 12 {
		t.Errorf("StopWhen cost = %d", sum2.TotalCost)
	}
	if stopAt == 0 {
		t.Error("StopWhen never evaluated")
	}
}

func TestBiasedSpeedSkew(t *testing.T) {
	g := graph.Ring(8)
	long := func() trajectory.Stepper {
		return trajectory.Repeat(func() trajectory.Stepper { return script(0) }, bigInt(100000))
	}
	a := &Walker{Stepper: long()}
	b := &Walker{Stepper: long()}
	r := mustRunner(t, Config{
		Graph: g, Starts: []int{0, 4}, Agents: []Agent{a, b},
		InitiallyAwake: []int{0, 1}, MaxSteps: 600,
		StopAtFirstMeeting: true,
	}, &Biased{Weights: []int{1, 9}})
	sum := r.Run()
	if sum.Traversals[1] < 4*sum.Traversals[0] {
		t.Errorf("biased schedule not skewed: %v", sum.Traversals)
	}
}

func TestRandomAdversaryReproducible(t *testing.T) {
	run := func() Summary {
		g := graph.Ring(6)
		long := func() trajectory.Stepper {
			return trajectory.Repeat(func() trajectory.Stepper { return script(0) }, bigInt(1000))
		}
		a := &Walker{Stepper: long()}
		b := &Walker{Stepper: long()}
		r := mustRunner(t, Config{
			Graph: g, Starts: []int{0, 3}, Agents: []Agent{a, b},
			InitiallyAwake: []int{0, 1}, MaxSteps: 300,
		}, NewRandom(7))
		return r.Run()
	}
	s1, s2 := run(), run()
	if s1.Steps != s2.Steps || s1.TotalCost != s2.TotalCost {
		t.Error("random adversary with fixed seed not reproducible")
	}
}

func TestConfigValidation(t *testing.T) {
	g := graph.Path(3)
	mk := func() []Agent { return []Agent{&Walker{Stepper: script()}, &Walker{Stepper: script()}} }
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil graph", Config{Starts: []int{0, 1}, Agents: mk(), MaxSteps: 1}},
		{"no agents", Config{Graph: g, MaxSteps: 1}},
		{"mismatch", Config{Graph: g, Starts: []int{0}, Agents: mk(), MaxSteps: 1}},
		{"dup starts", Config{Graph: g, Starts: []int{1, 1}, Agents: mk(), MaxSteps: 1}},
		{"oob start", Config{Graph: g, Starts: []int{0, 9}, Agents: mk(), MaxSteps: 1}},
		{"no budget", Config{Graph: g, Starts: []int{0, 1}, Agents: mk()}},
		{"bad wake", Config{Graph: g, Starts: []int{0, 1}, Agents: mk(), MaxSteps: 1, InitiallyAwake: []int{7}}},
	}
	for _, tc := range cases {
		if _, err := NewRunner(tc.cfg, &RoundRobin{}); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestUXSWalkerMatchesPureRun(t *testing.T) {
	// The Walker driving a trajectory through the runner must traverse
	// the same nodes as the pure executor.
	g := graph.Petersen()
	fam := []*graph.Graph{g}
	cat := uxs.NewVerified(fam, 1)
	env := trajectory.NewEnv(cat)
	pure, _ := trajectory.Run(g, 0, env.X(3), 10000)

	w := &Walker{Stepper: env.X(3)}
	sentinel := &Walker{Stepper: script()} // parked far away, never met
	r := mustRunner(t, Config{
		Graph: g, Starts: []int{0, 5}, Agents: []Agent{w, sentinel},
		InitiallyAwake: []int{0}, MaxSteps: 100000,
	}, &LateWake{Primary: 0, Hold: 1 << 30})
	sum := r.Run()
	_ = sum
	if got, want := r.Traversals(0), pure.Moves(); got < want {
		// The walker may have been interrupted by meeting the sentinel
		// (possible on Petersen from node 5); only compare when unmet.
		if !w.Met() {
			t.Errorf("walker made %d traversals, pure run %d", got, want)
		}
	}
}

func TestStatusString(t *testing.T) {
	if StatusDormant.String() != "dormant" || StatusActive.String() != "active" ||
		StatusHalted.String() != "halted" || Status(9).String() == "" {
		t.Error("Status.String broken")
	}
}
