package sgl

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"meetpoly/internal/core"
	"meetpoly/internal/graph"
	"meetpoly/internal/labels"
	"meetpoly/internal/sched"
	"meetpoly/internal/sched/schedtest"
	"meetpoly/internal/trajectory"
	"meetpoly/internal/uxs"
)

// stepMatrix is the team instance family of TestStepMatchesRun: the
// graph shapes a sweep draws (path 3-5, ring 3-5, star 4-5, clique 4,
// random tree 4-5, random graph 5), each with a two-agent and a
// three-agent placement.
func stepMatrix() []stepCase {
	graphs := []*graph.Graph{
		graph.Path(3), graph.Path(4), graph.Path(5),
		graph.Ring(3), graph.Ring(4), graph.Ring(5),
		graph.Star(4), graph.Star(5),
		graph.Complete(4),
		graph.RandomTree(4, uxs.DefaultTreeSeed(4)),
		graph.RandomTree(5, uxs.DefaultTreeSeed(5)),
		graph.RandomConnected(5, uxs.DefaultRandomP, uxs.DefaultRandomSeed(5)),
	}
	var cases []stepCase
	for _, g := range graphs {
		n := g.N()
		cases = append(cases,
			stepCase{g: g, starts: []int{0, n - 1}, labs: []labels.Label{2, 5}},
			stepCase{g: g, starts: []int{n - 1, (n - 1) / 2, 0}, labs: []labels.Label{6, 3, 9}})
	}
	return cases
}

type stepCase struct {
	g      *graph.Graph
	starts []int
	labs   []labels.Label
}

// TestStepMatchesRun is the package-level differential proof that the
// state-machine program (agent.Step) and the blocking reference program
// (agent.Run in program_test.go) are the same algorithm, and that a
// traveller replaying its route is the traveller deriving its
// trajectory tree. Every instance runs three times: Step and the
// reference on fresh core.NewStepper trees, and Step again with
// Config.Trajectory replaying the master route ('R', start, label)
// from one trajectory.RouteBook per graph, shared across the whole
// matrix, so later runs replay prefixes earlier runs published. All
// three must produce identical reports, scheduler summaries (including
// traversal counts) and meeting streams. A replay keyed by the wrong
// label is not caught here: every label's trajectory opens with the
// same Y(2) walk until traversal H = 2.75×10^10 (core.Opening), far
// past any run. Every instance runs under three adversaries with a
// 200,000-event budget, which every instance completes within except
// the oriented rings under the deterministic adversaries (the agents
// co-rotate forever: the symmetry phenomenon of examples/ringmeet),
// and again cut off by a 3,000-event budget mid-program.
func TestStepMatchesRun(t *testing.T) {
	env := testEnv(t)
	advs := map[string]func() sched.Adversary{
		"round-robin": func() sched.Adversary { return &sched.RoundRobin{} },
		"avoider":     func() sched.Adversary { return &sched.Avoider{} },
		"random":      func() sched.Adversary { return sched.NewRandom(5) },
	}
	reference := func(a *agent) sched.Agent {
		return blockingAgent{agent: a, step: schedtest.Blocking(t, a.Run)}
	}
	books := make(map[*graph.Graph]*trajectory.RouteBook)
	replay := func(cfg Config) func(i int) trajectory.Stepper {
		book := books[cfg.Graph]
		if book == nil {
			book = trajectory.NewRouteBook(cfg.Graph)
			books[cfg.Graph] = book
		}
		return func(i int) trajectory.Stepper {
			l := cfg.Labels[i]
			return book.Stepper(trajectory.RouteKey{Start: cfg.Starts[i], Kind: 'R', Param: uint64(l)},
				func() trajectory.Stepper { return core.NewStepper(l, env) })
		}
	}
	check := func(id string, cfg Config, adv func() sched.Adversary, complete bool) {
		t.Helper()
		run := func(program func(*agent) sched.Agent) (*Result, []sched.Meeting) {
			var meetings []sched.Meeting
			cfg.Adversary = adv()
			cfg.Observer = &sched.FuncObserver{Meeting: func(m sched.Meeting) { meetings = append(meetings, m) }}
			res, err := run(cfg, program)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			return res, meetings
		}
		step, stepMeetings := run(nil)
		ref, refMeetings := run(reference)
		cfg.Trajectory = replay(cfg)
		replayed, replayedMeetings := run(nil)
		for _, other := range []struct {
			name     string
			res      *Result
			meetings []sched.Meeting
		}{{"run", ref, refMeetings}, {"replay", replayed, replayedMeetings}} {
			if !reflect.DeepEqual(step.Summary, other.res.Summary) {
				t.Fatalf("%s: summaries diverge:\nstep   %+v\n%-6s %+v", id, step.Summary, other.name, other.res.Summary)
			}
			if !reflect.DeepEqual(stepMeetings, other.meetings) {
				t.Fatalf("%s: meeting streams diverge: step %d meetings, %s %d", id, len(stepMeetings), other.name, len(other.meetings))
			}
			if !reflect.DeepEqual(step.Agents, other.res.Agents) {
				t.Fatalf("%s: agent reports diverge:\nstep   %+v\n%-6s %+v", id, step.Agents, other.name, other.res.Agents)
			}
			if step.AllOutput != other.res.AllOutput || step.TotalCost != other.res.TotalCost {
				t.Fatalf("%s: outcomes diverge: step (%v, %d) %s (%v, %d)",
					id, step.AllOutput, step.TotalCost, other.name, other.res.AllOutput, other.res.TotalCost)
			}
		}
		if complete && !step.AllOutput {
			t.Fatalf("%s: SGL incomplete with every program", id)
		}
	}
	for _, tc := range stepMatrix() {
		for name, mk := range advs {
			symmetric := strings.HasPrefix(tc.g.String(), "ring") && name != "random"
			for _, budget := range []int{200_000, 3_000} {
				cfg := Config{Graph: tc.g, Starts: tc.starts, Labels: tc.labs, Env: env, MaxSteps: budget}
				check(fmt.Sprintf("%s/starts%v/%s/budget%d", tc.g, tc.starts, name, budget), cfg, mk,
					budget > 3_000 && !symmetric)
			}
		}
	}
	// Skewed speeds and a four-agent clique.
	check("star5/biased", Config{Graph: graph.Star(5), Starts: []int{1, 2, 3}, Labels: []labels.Label{7, 4, 2},
		Env: env, MaxSteps: 20_000_000}, func() sched.Adversary { return &sched.Biased{Weights: []int{1, 5, 9}} }, true)
	check("clique4/avoider", Config{Graph: graph.Complete(4), Starts: []int{0, 1, 2, 3}, Labels: []labels.Label{9, 3, 5, 1},
		Env: env, MaxSteps: 20_000_000}, advs["avoider"], true)
}
