package sgl

import (
	"fmt"
	"reflect"
	"testing"

	"meetpoly/internal/graph"
	"meetpoly/internal/labels"
	"meetpoly/internal/sched"
	"meetpoly/internal/trajectory"
	"meetpoly/internal/uxs"
)

func testEnv(t testing.TB) *trajectory.Env {
	t.Helper()
	return trajectory.NewEnv(uxs.NewVerified(uxs.DefaultFamily(6), 1))
}

func wantSet(labs []labels.Label) []labels.Label {
	out := append([]labels.Label(nil), labs...)
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func checkComplete(t *testing.T, name string, res *Result, labs []labels.Label) {
	t.Helper()
	want := wantSet(labs)
	for _, a := range res.Agents {
		if a.Failure != "" {
			t.Errorf("%s: agent %d failure: %s", name, a.Label, a.Failure)
		}
		if !a.HasOutput {
			t.Errorf("%s: agent %d produced no output", name, a.Label)
			continue
		}
		if len(a.Output) != len(want) {
			t.Errorf("%s: agent %d output %v, want %v", name, a.Label, a.Output, want)
			continue
		}
		for i := range want {
			if a.Output[i] != want[i] {
				t.Errorf("%s: agent %d output %v, want %v", name, a.Label, a.Output, want)
				break
			}
		}
		if a.TeamSize != len(want) {
			t.Errorf("%s: agent %d team size %d, want %d", name, a.Label, a.TeamSize, len(want))
		}
		if a.Leader != want[0] {
			t.Errorf("%s: agent %d leader %d, want %d", name, a.Label, a.Leader, want[0])
		}
	}
}

// TestSGLTwoAgents is the smallest team: the larger agent ghosts on first
// contact, the smaller explores, sweeps and broadcasts.
func TestSGLTwoAgents(t *testing.T) {
	env := testEnv(t)
	res, err := Run(Config{
		Graph:    graph.Path(4),
		Starts:   []int{0, 3},
		Labels:   []labels.Label{1, 5},
		Env:      env,
		MaxSteps: 20_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, "2-agents", res, []labels.Label{1, 5})
	if !res.AllOutput {
		t.Fatal("not all agents output")
	}
}

// TestSGLTheorem41 runs teams of growing size over several topologies and
// adversaries and verifies all four application outputs exactly.
func TestSGLTheorem41(t *testing.T) {
	env := testEnv(t)
	cases := []struct {
		g      *graph.Graph
		starts []int
		labs   []labels.Label
	}{
		{graph.Path(5), []int{0, 4}, []labels.Label{3, 9}},
		{graph.Star(5), []int{1, 2, 3}, []labels.Label{4, 2, 7}},
		{graph.Path(6), []int{0, 2, 5}, []labels.Label{6, 1, 3}},
		{graph.RandomTree(6, 2), []int{0, 3, 5, 1}, []labels.Label{8, 3, 5, 12}},
	}
	advs := map[string]func() sched.Adversary{
		"round-robin": func() sched.Adversary { return &sched.RoundRobin{} },
		"random":      func() sched.Adversary { return sched.NewRandom(9) },
	}
	for _, tc := range cases {
		for name, mk := range advs {
			cfg := Config{
				Graph:     tc.g,
				Starts:    tc.starts,
				Labels:    tc.labs,
				Env:       env,
				Adversary: mk(),
				MaxSteps:  40_000_000,
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkComplete(t, fmt.Sprintf("%s/%s", tc.g, name), res, tc.labs)
		}
	}
}

// TestSGLApplications checks the four derived solutions on one run:
// every agent outputs, all agents agree on the label set and the gossip
// values, and each agent's report carries the team size, the leader and
// its new name.
func TestSGLApplications(t *testing.T) {
	env := testEnv(t)
	res, err := Run(Config{
		Graph:    graph.Star(5),
		Starts:   []int{0, 2, 4},
		Labels:   []labels.Label{6, 2, 9},
		Values:   []string{"valA", "valB", "valC"},
		Env:      env,
		MaxSteps: 40_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllOutput {
		t.Fatal("not all agents output")
	}
	first := res.Agents[0]
	if first.Values[6] != "valA" || first.Values[2] != "valB" || first.Values[9] != "valC" {
		t.Errorf("gossip view 0 = %v", first.Values)
	}
	// labels 6,2,9 -> sorted 2,6,9 -> ranks: 6->2, 2->1, 9->3.
	wantNames := []int{2, 1, 3}
	for i, a := range res.Agents {
		if !reflect.DeepEqual(a.Output, first.Output) || !reflect.DeepEqual(a.Values, first.Values) {
			t.Errorf("agent %d disagrees with agent 0: output %v values %v, want %v %v",
				i, a.Output, a.Values, first.Output, first.Values)
		}
		if a.TeamSize != 3 {
			t.Errorf("agent %d: TeamSize = %d, want 3", i, a.TeamSize)
		}
		if a.Leader != 2 {
			t.Errorf("agent %d: Leader = %d, want 2", i, a.Leader)
		}
		if a.NewName != wantNames[i] {
			t.Errorf("agent %d: NewName = %d, want %d", i, a.NewName, wantNames[i])
		}
	}
}

// TestSGLDormantAgentsWakeOnVisit: only one agent is awake initially;
// the others must be woken by visits and still finish.
func TestSGLDormantAgentsWakeOnVisit(t *testing.T) {
	env := testEnv(t)
	labs := []labels.Label{4, 1, 11}
	res, err := Run(Config{
		Graph:          graph.Path(5),
		Starts:         []int{0, 2, 4},
		Labels:         labs,
		Env:            env,
		InitiallyAwake: []int{0},
		MaxSteps:       40_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, "dormant", res, labs)
}

// TestSGLNoFalseOutputs: under a tiny step budget the run is cut short;
// agents may fail to output, but any output produced must already be the
// exact full label set. This is the honesty guard for PracticalBudget.
func TestSGLNoFalseOutputs(t *testing.T) {
	env := testEnv(t)
	labs := []labels.Label{2, 7, 5}
	want := wantSet(labs)
	for _, maxSteps := range []int{500, 5_000, 50_000, 500_000} {
		res, err := Run(Config{
			Graph:    graph.Star(5),
			Starts:   []int{0, 1, 3},
			Labels:   labs,
			Env:      env,
			MaxSteps: maxSteps,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range res.Agents {
			if !a.HasOutput {
				continue
			}
			if len(a.Output) != len(want) {
				t.Fatalf("maxSteps=%d: agent %d output %v before knowing everyone",
					maxSteps, a.Label, a.Output)
			}
			for i := range want {
				if a.Output[i] != want[i] {
					t.Fatalf("maxSteps=%d: agent %d wrong output %v", maxSteps, a.Label, a.Output)
				}
			}
		}
	}
}

// TestSGLDeterministic: identical configuration, identical outcome.
func TestSGLDeterministic(t *testing.T) {
	env := testEnv(t)
	run := func() *Result {
		res, err := Run(Config{
			Graph:    graph.Path(4),
			Starts:   []int{0, 3},
			Labels:   []labels.Label{5, 2},
			Env:      env,
			MaxSteps: 20_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalCost != b.TotalCost || a.Summary.Steps != b.Summary.Steps {
		t.Errorf("nondeterministic SGL: cost %d/%d steps %d/%d",
			a.TotalCost, b.TotalCost, a.Summary.Steps, b.Summary.Steps)
	}
}

// TestSGLStateAccounting: exactly zero travellers remain, the smallest
// label finishes as explorer (it can never ghost), and at least one ghost
// exists for k >= 2.
func TestSGLStateAccounting(t *testing.T) {
	env := testEnv(t)
	labs := []labels.Label{3, 8}
	res, err := Run(Config{
		Graph:    graph.Path(4),
		Starts:   []int{1, 3},
		Labels:   labs,
		Env:      env,
		MaxSteps: 20_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	ghosts := 0
	for _, a := range res.Agents {
		if a.State == StateTraveller && a.HasOutput {
			t.Errorf("agent %d output while still a traveller", a.Label)
		}
		if a.State == StateGhost {
			ghosts++
		}
		if a.Label == 3 && a.State == StateGhost {
			t.Error("the smallest label became a ghost")
		}
	}
	if ghosts == 0 {
		t.Error("no ghosts in a completed 2-agent run")
	}
}

func TestSGLConfigValidation(t *testing.T) {
	env := testEnv(t)
	base := func() Config {
		return Config{
			Graph:    graph.Path(4),
			Starts:   []int{0, 3},
			Labels:   []labels.Label{1, 2},
			Env:      env,
			MaxSteps: 100,
		}
	}
	for name, mutate := range map[string]func(*Config){
		"one agent":  func(c *Config) { c.Labels = c.Labels[:1]; c.Starts = c.Starts[:1] },
		"mismatch":   func(c *Config) { c.Starts = c.Starts[:1] },
		"dup labels": func(c *Config) { c.Labels = []labels.Label{3, 3} },
		"zero label": func(c *Config) { c.Labels = []labels.Label{0, 2} },
		"nil env":    func(c *Config) { c.Env = nil },
		"bad values": func(c *Config) { c.Values = []string{"only-one"} },
	} {
		cfg := base()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestStateString(t *testing.T) {
	if StateTraveller.String() != "traveller" || StateExplorer.String() != "explorer" ||
		StateGhost.String() != "ghost" || State(9).String() == "" {
		t.Error("State.String broken")
	}
}

func TestPracticalBudgetValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for factor < 1")
		}
	}()
	PracticalBudget(0)
}

// TestFaithfulBudgetIsAstronomical documents the DESIGN.md §2.3
// substitution: the paper's Phase 2 horizon saturates the integer range
// for any realistic E, which is why PracticalBudget exists.
func TestFaithfulBudgetIsAstronomical(t *testing.T) {
	cat := uxs.NewVerified(uxs.DefaultFamily(4), 1)
	b := FaithfulBudget(cat)
	if got := b(50, 3); got < 1<<40 {
		t.Errorf("faithful Phase 2 budget for E=50 is %d; expected an unwalkable horizon", got)
	}
}
