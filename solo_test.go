package meetpoly

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"meetpoly/internal/sched"
	"meetpoly/internal/sgl"
)

// phaseRecorder is a callRecorder that records phase announcements too.
type phaseRecorder struct {
	callRecorder
	phases []string
}

func (r *phaseRecorder) OnPhase(agent int, phase string) {
	r.calls = append(r.calls, observedCall{kind: 'p', a: agent, b: len(r.phases)})
	r.phases = append(r.phases, phase)
}

// soloOutcome returns the kind-specific part of a result, which holds
// everything the run produced (the Scenario carries the adversary
// instance, which differs between the two sides).
func soloOutcome(res *Result) any {
	switch {
	case res == nil:
		return nil
	case res.ESST != nil:
		return res.ESST
	case res.SGL != nil:
		return res.SGL
	default:
		return res.Baseline
	}
}

// TestSoloMatchesPerEvent pins the runner's solo stretches to the
// per-event path through Engine.Run. In these runs every agent but one
// parks while the run goes on: ESST's token halts at wake, SGL's ghosts
// and finished explorers halt, and a baseline pair's shorter walker
// halts after its cost bound, which the budgets around 4D reach on the
// symmetric ring placements. Every scenario runs under a round-robin,
// avoider or random instance, whose schedule there is forced, and under
// the same adversary wrapped in perEvent, which asks it for every
// event. The two sides run on two engines built alike, with an
// observer, and must agree on the whole result, the error text, the
// observer stream (phases included) and the adversary's final state; a
// third, unobserved engine must agree on the result, error and
// adversary. The budgets straddle the 64-event context poll.
func TestSoloMatchesPerEvent(t *testing.T) {
	graphs := []struct {
		spec   GraphSpec
		starts [][]int
	}{
		{GraphSpec{Kind: "path", N: 3}, [][]int{{0, 2}, {1, 0}, {0, 1, 2}}},
		{GraphSpec{Kind: "ring", N: 3}, [][]int{{0, 1}, {2, 0}, {0, 1, 2}}},
		{GraphSpec{Kind: "ring", N: 4}, [][]int{{0, 2}, {0, 1}, {0, 1, 3}}},
		{GraphSpec{Kind: "star", N: 4}, [][]int{{0, 1}, {1, 3}, {1, 2, 3}}},
		{GraphSpec{Kind: "clique", N: 4}, [][]int{{0, 1}, {3, 2}, {0, 2, 3}}},
		{GraphSpec{Kind: "path", N: 5}, [][]int{{0, 4}, {1, 3}, {0, 2, 4}}},
		{GraphSpec{Kind: "ring", N: 5, Seed: 4, Shuffle: true}, [][]int{{0, 2}, {1, 4}, {3, 0, 1}}},
	}
	small := []int{1, 2, 63, 64, 65, 129, 1000}
	kinds := []struct {
		kind    ScenarioKind
		labels  [][]Label
		budgets []int
	}{
		{ScenarioESST, [][]Label{nil}, append(small[:len(small):len(small)], 5000, 200_000)},
		{ScenarioSGL, [][]Label{{1, 2}, {5, 3}, {2, 7, 4}}, append(small[:len(small):len(small)], 5000, 40_000)},
		{ScenarioBaseline, [][]Label{{1, 2}, {2, 1}}, append(small[:len(small):len(small)], 2465, 4289, 12_000)},
	}
	adversaries := []struct {
		name string
		new  func(seed int64) Adversary
	}{
		{"roundrobin", func(int64) Adversary { return &sched.RoundRobin{} }},
		{"avoider", func(int64) Adversary { return &sched.Avoider{} }},
		{"random", func(seed int64) Adversary { return sched.NewRandom(seed) }},
	}

	soloRec, perEventRec := &phaseRecorder{}, &phaseRecorder{}
	soloEng := NewEngine(WithObserver(soloRec))
	perEventEng := NewEngine(WithObserver(perEventRec))
	plainEng := NewEngine()
	ctx := context.Background()

	scenarios, esstRuns, sglParked, baselineHalted := 0, 0, 0, 0
	for _, gr := range graphs {
		for _, starts := range gr.starts {
			for _, k := range kinds {
				for _, labels := range k.labels {
					if k.kind == ScenarioESST {
						if len(starts) != 2 {
							continue
						}
					} else if len(labels) != len(starts) {
						continue
					}
					for _, adv := range adversaries {
						for _, budget := range k.budgets {
							scenarios++
							sc := Scenario{
								Name: fmt.Sprintf("%s/%v/%s/%v/%s/%d",
									gr.spec.Kind, starts, k.kind, labels, adv.name, budget),
								Kind: k.kind, Graph: gr.spec, Starts: starts, Labels: labels, Budget: budget,
							}
							seed := int64(scenarios)
							soloAdv, plainAdv, perEventAdv := adv.new(seed), adv.new(seed), adv.new(seed)
							sc.AdversaryInstance = soloAdv
							soloRes, soloErr := soloEng.Run(ctx, sc)
							sc.AdversaryInstance = plainAdv
							plainRes, plainErr := plainEng.Run(ctx, sc)
							sc.AdversaryInstance = perEvent{perEventAdv}
							perEventRes, perEventErr := perEventEng.Run(ctx, sc)

							want := soloOutcome(perEventRes)
							if got := soloOutcome(soloRes); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: solo result %+v, per-event %+v", sc.Name, got, want)
							}
							if got := soloOutcome(plainRes); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: unobserved solo result %+v, per-event %+v", sc.Name, got, want)
							}
							if errText(soloErr) != errText(perEventErr) || errText(plainErr) != errText(perEventErr) {
								t.Fatalf("%s: errors %q (solo), %q (unobserved solo), %q (per-event)",
									sc.Name, errText(soloErr), errText(plainErr), errText(perEventErr))
							}
							if !reflect.DeepEqual(soloRec, perEventRec) {
								t.Fatalf("%s: observer streams differ: %d calls and %d phases with solo stretches, %d and %d per event",
									sc.Name, len(soloRec.calls), len(soloRec.phases), len(perEventRec.calls), len(perEventRec.phases))
							}
							if !reflect.DeepEqual(soloAdv, perEventAdv) || !reflect.DeepEqual(plainAdv, perEventAdv) {
								t.Fatalf("%s: adversary ends as %+v with solo stretches (%+v unobserved), %+v per event",
									sc.Name, soloAdv, plainAdv, perEventAdv)
							}
							soloRec.calls, perEventRec.calls = soloRec.calls[:0], perEventRec.calls[:0]
							soloRec.phases, perEventRec.phases = soloRec.phases[:0], perEventRec.phases[:0]
							switch r := want.(type) {
							case *ESSTResult:
								esstRuns++
							case *SGLResult:
								if slices.ContainsFunc(r.Agents, func(a sgl.AgentReport) bool { return a.State == sgl.StateGhost }) {
									sglParked++
								}
							case *BaselineResult:
								if tr := r.Summary.Traversals; adv.name != "random" && (tr[0]-tr[1] > 1 || tr[1]-tr[0] > 1) {
									baselineHalted++
								}
							}
						}
					}
				}
			}
		}
	}
	// ESST's token halts at wake, so each ESST run is one solo stretch;
	// an SGL run that parked a ghost, and an alternating baseline pair
	// whose counts drifted apart, ran solo too.
	if esstRuns == 0 || sglParked == 0 || baselineHalted == 0 {
		t.Errorf("solo runs: %d ESST, %d SGL with a ghost, %d baseline with a halted walker; the matrix must hold each",
			esstRuns, sglParked, baselineHalted)
	}
	t.Logf("%d scenarios: %d ESST, %d SGL with a ghost, %d baseline with a halted walker",
		scenarios, esstRuns, sglParked, baselineHalted)
}
