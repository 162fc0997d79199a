package esst

import (
	"fmt"
	"reflect"
	"testing"

	"meetpoly/internal/graph"
	"meetpoly/internal/sched"
	"meetpoly/internal/sched/schedtest"
	"meetpoly/internal/uxs"
)

// machineMatrix is the graph family of the runner-level differential:
// the shapes a sweep draws (path 3-5, ring 3-5, star 4-5, clique 4,
// random tree 4-5, random graph 5) plus larger and higher-degree
// members.
func machineMatrix() []*graph.Graph {
	return []*graph.Graph{
		graph.Path(2), graph.Path(3), graph.Path(4), graph.Path(5),
		graph.Ring(3), graph.Ring(4), graph.Ring(5), graph.Ring(7),
		graph.Star(4), graph.Star(5), graph.Star(6),
		graph.Complete(4), graph.Complete(5),
		graph.BinaryTree(7),
		graph.RandomTree(4, uxs.DefaultTreeSeed(4)),
		graph.RandomTree(5, uxs.DefaultTreeSeed(5)),
		graph.RandomConnected(5, uxs.DefaultRandomP, uxs.DefaultRandomSeed(5)),
	}
}

// TestMachineMatchesProcedure is the runner-level differential proof
// that the pull-based Machine (Explorer.Step) and the blocking
// Procedure realize the same ESST program: the same instance run with
// either program must produce identical results, scheduler summaries
// and meeting streams. The matrix spans the graph family, four adversaries, two
// start placements, and both a full budget and a 3,000-event budget
// that cuts most explorations off mid-walk.
func TestMachineMatchesProcedure(t *testing.T) {
	cat := uxs.NewVerified(uxs.DefaultFamily(7), 1)
	advs := map[string]func() sched.Adversary{
		"round-robin": func() sched.Adversary { return &sched.RoundRobin{} },
		"avoider":     func() sched.Adversary { return &sched.Avoider{} },
		"random":      func() sched.Adversary { return sched.NewRandom(11) },
		"biased":      func() sched.Adversary { return &sched.Biased{Weights: []int{1, 5}} },
	}
	reference := func(ex *Explorer) sched.Agent {
		return procedureExplorer{Explorer: ex, step: schedtest.Blocking(t, ex.runProcedure)}
	}
	for _, g := range machineMatrix() {
		if !cat.Covers(g) {
			cat.Extend(g)
		}
		n := g.N()
		for _, starts := range [][2]int{{1 % n, 0}, {n - 1, (n - 1) / 2}} {
			for name, mk := range advs {
				for _, budget := range []int{5_000_000, 3_000} {
					id := fmt.Sprintf("%s/starts%v/%s/budget%d", g, starts, name, budget)
					run := func(program func(*Explorer) sched.Agent) (*Result, []sched.Meeting) {
						var meetings []sched.Meeting
						opts := sched.RunOpts{Observer: &sched.FuncObserver{
							Meeting: func(m sched.Meeting) { meetings = append(meetings, m) },
						}}
						res, err := explore(opts, g, starts[0], starts[1], cat, mk(), budget, program)
						if err != nil {
							t.Fatal(err)
						}
						return res, meetings
					}
					mach, machMeetings := run(nil)
					ref, refMeetings := run(reference)
					if mach.Done != ref.Done || mach.Phase != ref.Phase || mach.Cost != ref.Cost ||
						mach.EUpper != ref.EUpper || mach.Covered != ref.Covered {
						t.Fatalf("%s: programs diverge: machine %+v, procedure %+v", id, mach, ref)
					}
					if !reflect.DeepEqual(mach.Summary, ref.Summary) {
						t.Fatalf("%s: summaries diverge:\nmachine   %+v\nprocedure %+v", id, mach.Summary, ref.Summary)
					}
					if !reflect.DeepEqual(machMeetings, refMeetings) {
						t.Fatalf("%s: meeting streams diverge:\nmachine   %+v\nprocedure %+v", id, machMeetings, refMeetings)
					}
					if budget > 3_000 && !mach.Done {
						t.Fatalf("%s: ESST did not terminate", id)
					}
				}
			}
		}
	}
}

// TestMachineTraceMatchesProcedureTrace drives Machine and Procedure
// directly (no scheduler) over the same synchronous walk and compares
// the recorded traces move for move, including a MaxPhase abort.
func TestMachineTraceMatchesProcedureTrace(t *testing.T) {
	cat := uxs.NewVerified(uxs.DefaultFamily(6), 1)
	for _, tc := range []struct {
		g        *graph.Graph
		maxPhase int
	}{
		{graph.Ring(5), 0},
		{graph.Path(4), 0},
		{graph.Star(5), 0},
		{graph.Ring(6), 3}, // forced MaxPhase abort
	} {
		if !cat.Covers(tc.g) {
			cat.Extend(tc.g)
		}
		tokenAt := 0
		// Synchronous single-agent walk: the token is parked at a node,
		// sightings happen exactly on arrival there.
		pr := &Procedure{Cat: cat, MaxPhase: tc.maxPhase}
		cur := 1
		pr.Hooks = Hooks{
			Move: func(port int) (sched.Observation, bool) {
				to, entry := tc.g.Succ(cur, port)
				cur = to
				return sched.Observation{Degree: tc.g.Degree(to), Entry: entry}, to == tokenAt
			},
			Degree:    func() int { return tc.g.Degree(cur) },
			WithToken: func() bool { return cur == tokenAt },
		}
		prDone := pr.Run()

		m := &Machine{Cat: cat, MaxPhase: tc.maxPhase}
		mcur := 1
		deg, entry, sighted := tc.g.Degree(mcur), -1, false
		for {
			port, running := m.Step(deg, entry, sighted, mcur == tokenAt)
			if !running {
				break
			}
			to, in := tc.g.Succ(mcur, port)
			mcur = to
			deg, entry, sighted = tc.g.Degree(to), in, to == tokenAt
		}
		if m.Done != prDone || m.Done != pr.Done || m.Phase != pr.Phase || m.Cost != pr.Cost {
			t.Fatalf("%s: machine (done=%v phase=%d cost=%d) vs procedure (done=%v phase=%d cost=%d)",
				tc.g, m.Done, m.Phase, m.Cost, pr.Done, pr.Phase, pr.Cost)
		}
		if !reflect.DeepEqual(m.Trace, pr.Trace) {
			t.Fatalf("%s: traces diverge after %d vs %d moves", tc.g, len(m.Trace), len(pr.Trace))
		}
	}
}
