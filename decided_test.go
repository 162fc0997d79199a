package meetpoly

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"testing"

	"meetpoly/internal/baseline"
	"meetpoly/internal/core"
	"meetpoly/internal/graph"
	"meetpoly/internal/sched"
)

// counterSum sums the samples of one counter family in reg.
func counterSum(reg *Metrics, name string) float64 {
	var sum float64
	for _, p := range reg.Snapshot() {
		if p.Name == name {
			sum += p.Value
		}
	}
	return sum
}

// fourD returns 4D for a walker run of kind on an n-node graph under
// env: the budget up to which a clean-symmetric run is decided.
func fourD(env *Env, kind ScenarioKind, n int, l1, l2 Label) *big.Int {
	var d *big.Int
	if kind == ScenarioBaseline {
		d = baseline.CostBound(env, n, min(l1, l2))
	} else {
		d = core.SymmetryHorizon(l1, l2, env)
	}
	return d.Lsh(d, 2)
}

// clockwise walks port 0 forever.
type clockwise struct{}

func (clockwise) Next(int, int) (int, bool) { return 0, true }

// withRotation returns a fresh round-robin or avoider instance at
// rotation rot (0, 1 or 2): a two-agent run of rot events from rotation
// 0 leaves it there, and two walkers circling an oriented ring from
// opposite nodes never touch, so every event is an alternating advance.
// The walkers are not route replays, so the run is the per-event path.
func withRotation(t *testing.T, adv Adversary, rot int) Adversary {
	t.Helper()
	if rot == 0 {
		return adv
	}
	r, err := sched.NewRunner(sched.Config{
		Graph: graph.Ring(4), Starts: []int{0, 2},
		Agents:         []sched.Agent{&sched.Walker{Stepper: clockwise{}}, &sched.Walker{Stepper: clockwise{}}},
		InitiallyAwake: []int{0, 1}, MaxSteps: rot,
	}, adv)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if sum := r.Run(); sum.Steps != rot || sum.FirstMeeting != nil {
		t.Fatalf("rotation set-up ran %d events (meeting %v), want %d", sum.Steps, sum.FirstMeeting, rot)
	}
	return adv
}

// alternators builds the two adversaries the engine decides under, at a
// starting rotation.
func alternators(t *testing.T) map[string]func(rot int) Adversary {
	return map[string]func(rot int) Adversary{
		"roundrobin": func(rot int) Adversary { return withRotation(t, &sched.RoundRobin{}, rot) },
		"avoider":    func(rot int) Adversary { return withRotation(t, &sched.Avoider{}, rot) },
	}
}

// decidedOutcome returns the part of a run's result a decision
// answers: the SGL result, or the walkers'.
func decidedOutcome(res *Result) any {
	if res != nil && res.SGL != nil {
		return res.SGL
	}
	return walkerOutcome(res)
}

// TestDecidedMatchesSimulated pins the decided path to the simulation,
// run by run, through Engine.Run. Every scenario runs on one engine
// under a round-robin or avoider instance, from starting rotation 0, 1
// or 2, and on a second engine built alike under the same adversary
// wrapped in perEvent, which hides the rotation and so is never decided
// (nor stretched). The matrix holds every ordered start pair of ring
// 3–6 and three of ring 7 and 8 (all clean-symmetric) and path 5 and
// petersen placements (never clean) as controls; the two walker kinds
// and SGL, whose two travellers are walkers until they meet; five
// label pairs; budgets that straddle the context poll and the route
// batches, plus 4D−1, 4D and 4D+1 where the baseline's 4D is small
// enough to simulate (the race build drops the 60,000 budget and keeps
// the ring 3–6 pairs that start at node 0). SGL also runs three-agent
// ring placements, a third label added to each pair, which are never
// decided. No simulation reaches the master trajectory's 4D
// (core.SymmetryHorizon), so no rendezvous or SGL run straddles it.
// The two engines must agree on the whole result, the error text and
// the adversary's final state. The decided counters must count
// exactly the two-agent ring runs whose budget is at most 4D, and the
// decided engine's route books may hold no more than the simulating
// engine's.
func TestDecidedMatchesSimulated(t *testing.T) {
	type placement struct {
		spec   GraphSpec
		starts [][]int
		ring   bool
	}
	var placements []placement
	for n := 3; n <= 6; n++ {
		var starts [][]int
		for s1 := 0; s1 < n; s1++ {
			for s2 := 0; s2 < n; s2++ {
				// Under the race build, one start per rotation class.
				if s1 != s2 && (!raceEnabled || s1 == 0) {
					starts = append(starts, []int{s1, s2})
				}
			}
		}
		placements = append(placements, placement{GraphSpec{Kind: "ring", N: n}, starts, true})
	}
	placements = append(placements,
		placement{GraphSpec{Kind: "ring", N: 7}, [][]int{{0, 1}, {2, 6}, {5, 3}}, true},
		placement{GraphSpec{Kind: "ring", N: 8}, [][]int{{0, 4}, {1, 3}, {7, 2}}, true},
		placement{GraphSpec{Kind: "path", N: 5}, [][]int{{0, 4}, {1, 3}, {2, 0}}, false},
		placement{GraphSpec{Kind: "petersen"}, [][]int{{0, 5}, {0, 1}, {2, 8}}, false},
		// Three agents, SGL only: the first two starts are clean-symmetric.
		placement{GraphSpec{Kind: "ring", N: 3}, [][]int{{0, 1, 2}}, true},
		placement{GraphSpec{Kind: "ring", N: 4}, [][]int{{0, 2, 1}}, true},
		placement{GraphSpec{Kind: "ring", N: 6}, [][]int{{0, 2, 4}, {5, 1, 2}}, true},
	)
	labelPairs := [][]Label{{1, 2}, {1, 3}, {2, 5}, {3, 12}, {7, 6}}
	budgets := []int{1, 2, 3, 63, 64, 65, 1023, 1024, 1025, 5000, 60000}
	if raceEnabled {
		// The race detector slows the per-event reference about twenty
		// times, and the 60,000-event runs hold 88% of the matrix's
		// simulated events: the plain build runs them, and every start
		// pair of ring 3–6 rather than one per rotation class.
		budgets = budgets[:len(budgets)-1]
	}
	adversaries := alternators(t)

	reg, refReg := NewMetrics(), NewMetrics()
	eng, ref := NewEngine(WithTelemetry(reg)), NewEngine(WithTelemetry(refReg))
	ctx := context.Background()
	// Cover every graph first, so no catalog extension lands mid-matrix
	// and 4D is computed under the catalog state every run executes in.
	for _, p := range placements {
		sc := Scenario{Kind: ScenarioRendezvous, Graph: p.spec, Starts: p.starts[0][:2], Labels: labelPairs[0],
			Budget: 1, AdversaryInstance: perEvent{&sched.RoundRobin{}}}
		for _, e := range []*Engine{eng, ref} {
			if _, err := e.Run(ctx, sc); err != nil && !errors.Is(err, ErrBudgetExhausted) {
				t.Fatal(err)
			}
		}
	}

	runs, decided, decidedEvents, boundary := 0, 0, 0, 0
	for _, p := range placements {
		g, err := p.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, starts := range p.starts {
			for _, pair := range labelPairs {
				kinds, labels := []ScenarioKind{ScenarioRendezvous, ScenarioBaseline, ScenarioSGL}, pair
				if len(starts) == 3 {
					kinds, labels = []ScenarioKind{ScenarioSGL}, []Label{pair[0], pair[1], pair[0] + pair[1]}
				}
				for _, kind := range kinds {
					limit := fourD(eng.Env(), kind, g.N(), labels[0], labels[1])
					bs := budgets
					if kind == ScenarioBaseline && limit.IsInt64() && limit.Int64() <= 60000 {
						l := int(limit.Int64())
						bs = append(append([]int(nil), budgets...), l-1, l, l+1)
						boundary++
					}
					for advName, newAdv := range adversaries {
						for rot := 0; rot <= 2; rot++ {
							for _, budget := range bs {
								sc := Scenario{
									Name: fmt.Sprintf("%s/%v/%v/%s/%s:%d/%d",
										p.spec, starts, labels, kind, advName, rot, budget),
									Kind: kind, Graph: p.spec, Starts: starts, Labels: labels, Budget: budget,
								}
								adv, refAdv := newAdv(rot), newAdv(rot)
								sc.AdversaryInstance = adv
								res, err := eng.Run(ctx, sc)
								sc.AdversaryInstance = perEvent{refAdv}
								refRes, refErr := ref.Run(ctx, sc)
								if got, want := decidedOutcome(res), decidedOutcome(refRes); !reflect.DeepEqual(got, want) {
									t.Fatalf("%s: result %+v, simulated %+v", sc.Name, got, want)
								}
								if errText(err) != errText(refErr) {
									t.Fatalf("%s: error %q, simulated %q", sc.Name, errText(err), errText(refErr))
								}
								if !reflect.DeepEqual(adv, refAdv) {
									t.Fatalf("%s: adversary ends as %+v, simulated %+v", sc.Name, adv, refAdv)
								}
								runs++
								if p.ring && len(starts) == 2 && big.NewInt(int64(budget)).Cmp(limit) <= 0 {
									decided++
									decidedEvents += budget
								}
							}
						}
					}
				}
			}
		}
	}
	if got := counterSum(reg, "meetpoly_engine_cells_decided_total"); got != float64(decided) || decided == 0 {
		t.Errorf("decided counter reads %v, want the %d qualifying runs (of %d)", got, decided, runs)
	}
	if got := counterSum(reg, "meetpoly_engine_events_decided_total"); got != float64(decidedEvents) {
		t.Errorf("decided events counter reads %v, want %d", got, decidedEvents)
	}
	if got := counterSum(refReg, "meetpoly_engine_cells_decided_total"); got != 0 {
		t.Errorf("the perEvent engine decided %v runs", got)
	}
	if boundary == 0 {
		t.Error("no baseline run straddles 4D: the matrix misses the boundary")
	}
	bytes, refBytes := routeBytesGauge(t, reg), routeBytesGauge(t, refReg)
	if bytes > refBytes {
		t.Errorf("route books hold %d bytes with decided runs, %d simulated", bytes, refBytes)
	}
	t.Logf("%d runs, %d decided (%d events), %d baseline boundaries; route bytes %d decided, %d simulated",
		runs, decided, decidedEvents, boundary, bytes, refBytes)
}

// TestDecidedRunAllocatesNoMoreThanStretch pins the decided path's
// allocations: on a warm engine, a baseline run on ring 4 whose budget
// is exactly 4D is decided, and the same run one event longer is
// simulated through contact-free stretches; the decided run must
// allocate no more than the simulated one.
func TestDecidedRunAllocatesNoMoreThanStretch(t *testing.T) {
	decidedAllocs(t, GraphSpec{Kind: "ring", N: 4}, []int{0, 2})
}

// decidedAllocs runs a label (1, 2) baseline scenario on spec from
// starts on a warm engine, at budget 4D, which the engine must decide,
// and at 4D + 1, which it simulates through contact-free stretches, and
// fails if the decided run allocates more. The baseline's 4D is also
// its 4H, where a periodic decision ends.
func decidedAllocs(t *testing.T, spec GraphSpec, starts []int) {
	if raceEnabled {
		t.Skip("sync.Pool drops the run scratch at random under -race")
	}
	reg := NewMetrics()
	eng := NewEngine(WithTelemetry(reg))
	ctx := context.Background()
	sc := Scenario{Kind: ScenarioBaseline, Graph: spec, Starts: starts, Labels: []Label{1, 2}}
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	limit := eng.fourTimes(lengthKey{kind: 'B', n: g.N(), lo: 1})
	run := func(budget int) func() {
		return func() {
			sc.Budget, sc.AdversaryInstance = budget, &sched.RoundRobin{}
			if _, err := eng.Run(ctx, sc); err != nil && !errors.Is(err, ErrBudgetExhausted) {
				t.Fatal(err)
			}
		}
	}
	run(limit + 1)() // grow the routes the simulated run walks
	before := counterSum(reg, "meetpoly_engine_cells_decided_total")
	decided := testing.AllocsPerRun(20, run(limit))
	if n := counterSum(reg, "meetpoly_engine_cells_decided_total") - before; n != 21 {
		t.Fatalf("%v of 21 runs at budget 4D = %d were decided", n, limit)
	}
	simulated := testing.AllocsPerRun(20, run(limit+1))
	if decided > simulated {
		t.Errorf("a decided run allocates %v times, the simulated run one event longer %v", decided, simulated)
	}
	t.Logf("%s from %v, budget %d: %v allocations decided, %v simulated", spec, starts, limit, decided, simulated)
}

// TestCertifierNeverForcesCleanSymmetricPairs cross-checks the
// certifier against the symmetry argument: two agents on a
// clean-symmetric placement emit the same ports until D, far beyond
// any certifiable prefix, so some schedule keeps them apart for the
// whole prefix and the certifier must never report the meeting forced.
// It runs every clean pair of ring 3–8 (all 166 ordered pairs of
// distinct starts) with labels (1, 2) and (3, 12) at 600 moves.
func TestCertifierNeverForcesCleanSymmetricPairs(t *testing.T) {
	var scs []Scenario
	pairs := 0
	for n := 3; n <= 8; n++ {
		spec := GraphSpec{Kind: "ring", N: n}
		g, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		for s1 := 0; s1 < n; s1++ {
			for s2 := 0; s2 < n; s2++ {
				if !g.CleanSymmetric(s1, s2) {
					continue
				}
				pairs++
				for _, labels := range [][]Label{{1, 2}, {3, 12}} {
					scs = append(scs, Scenario{Name: fmt.Sprintf("%s/%d-%d/%v", spec, s1, s2, labels),
						Kind: ScenarioCertify, Graph: spec, Starts: []int{s1, s2}, Labels: labels, Moves: 600})
				}
			}
		}
	}
	if pairs != 166 {
		t.Fatalf("%d clean pairs on ring 3–8, want 166", pairs)
	}
	for _, br := range NewEngine().RunBatch(context.Background(), scs) {
		if br.Err != nil {
			t.Fatalf("%s: %v", br.Scenario.Name, br.Err)
		}
		if br.Result.Cert.Forced {
			t.Errorf("%s: certified forced at cost %d on a clean-symmetric placement",
				br.Scenario.Name, br.Result.Cert.WorstCompleted)
		}
	}
}
