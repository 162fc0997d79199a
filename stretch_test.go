package meetpoly

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"meetpoly/internal/sched"
)

// perEvent hides a built-in adversary's rotation, so the runner never
// applies a contact-free stretch under it and asks the adversary for
// every event: the per-event reference. Next forwards explicitly;
// embedding the adversary would promote its unexported rotation and
// keep the stretch.
type perEvent struct{ a Adversary }

func (p perEvent) Next(v *View) (Event, bool) { return p.a.Next(v) }

// walkerOutcome returns a rendezvous or baseline run's result.
func walkerOutcome(res *Result) *RendezvousResult {
	if res == nil {
		return nil
	}
	if res.Rendezvous != nil {
		return res.Rendezvous
	}
	return res.Baseline
}

// errText returns err's text, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// observedCall is one recorded observer callback.
type observedCall struct {
	kind    byte // 'e' event, 't' traversal, 'm' meeting
	a, b, c int
	meeting *Meeting
}

// callRecorder records the observer stream of the current scenario.
type callRecorder struct{ calls []observedCall }

func (r *callRecorder) OnEvent(step int, ev Event) {
	r.calls = append(r.calls, observedCall{kind: 'e', a: step, b: int(ev.Kind), c: ev.Agent})
}

func (r *callRecorder) OnTraversal(agent, from, to int) {
	r.calls = append(r.calls, observedCall{kind: 't', a: agent, b: from, c: to})
}

func (r *callRecorder) OnMeeting(m Meeting) {
	r.calls = append(r.calls, observedCall{kind: 'm', meeting: &m})
}

func (r *callRecorder) OnPhase(int, string) {}

// TestStretchMatchesPerEvent pins the runner's contact-free stretches
// to the per-event path, cell by cell, through Engine.Run: every
// scenario runs under a round-robin or avoider instance, which
// qualifies a two-walker route replay for stretches, and under the same
// adversary wrapped in perEvent, which does not. The two sides run on
// two engines built alike, with telemetry and an observer, and must
// agree on the whole result (the Summary with its FirstMeeting,
// Traversals, Account and Exhausted, the bound), the error text, the
// observer stream and the adversary's final rotation; a third,
// unobserved engine must agree on the result, error and rotation. That
// engine decides the symmetric ring runs whose budget ends before 4D
// (TestDecidedMatchesSimulated) and stretches the rest. After the
// matrix the observed engines' route books must hold the same bytes:
// stretches grow routes exactly as the per-event path does; the
// unobserved engine's may hold fewer, because decided runs grow none.
// The budgets straddle the 64-event context poll and the 64- and
// 1,024-move route batches.
func TestStretchMatchesPerEvent(t *testing.T) {
	graphs := []struct {
		spec   GraphSpec
		starts [][]int
	}{
		{GraphSpec{Kind: "path", N: 5}, [][]int{{0, 4}, {0, 2}, {1, 3}}},
		{GraphSpec{Kind: "ring", N: 6}, [][]int{{0, 3}, {0, 2}, {1, 4}}},
		{GraphSpec{Kind: "star", N: 5}, [][]int{{0, 1}, {1, 4}, {3, 2}}},
		{GraphSpec{Kind: "clique", N: 5}, [][]int{{0, 1}, {1, 4}, {3, 2}}},
		{GraphSpec{Kind: "tree", N: 6}, [][]int{{0, 5}, {1, 3}, {4, 2}}},
		{GraphSpec{Kind: "grid", Rows: 2, Cols: 4}, [][]int{{0, 7}, {0, 3}, {5, 2}}},
		{GraphSpec{Kind: "hypercube", N: 3}, [][]int{{0, 7}, {0, 1}, {3, 5}}},
		{GraphSpec{Kind: "petersen"}, [][]int{{0, 5}, {0, 1}, {2, 8}}},
		{GraphSpec{Kind: "ring", N: 5, Seed: 4, Shuffle: true}, [][]int{{0, 2}, {1, 4}, {3, 0}}},
		{GraphSpec{Kind: "random", N: 7, P: 0.3, Seed: 57}, [][]int{{0, 6}, {1, 2}, {5, 3}}},
	}
	labelPairs := [][]Label{{1, 2}, {2, 5}, {3, 12}, {7, 6}}
	budgets := []int{1, 2, 3, 63, 64, 65, 129, 1023, 1025, 5000, 60000}
	adversaries := map[string]func() Adversary{
		"roundrobin": func() Adversary { return &sched.RoundRobin{} },
		"avoider":    func() Adversary { return &sched.Avoider{} },
	}

	stretchReg, perEventReg, plainReg := NewMetrics(), NewMetrics(), NewMetrics()
	stretchRec, perEventRec := &callRecorder{}, &callRecorder{}
	stretchEng := NewEngine(WithTelemetry(stretchReg), WithObserver(stretchRec))
	perEventEng := NewEngine(WithTelemetry(perEventReg), WithObserver(perEventRec))
	plainEng := NewEngine(WithTelemetry(plainReg))
	ctx := context.Background()

	// Cover every graph first: a catalog extension starts a new route
	// epoch, and the gauge counts the current epoch's books only.
	for _, gr := range graphs {
		sc := Scenario{Kind: ScenarioRendezvous, Graph: gr.spec, Starts: gr.starts[0], Labels: labelPairs[0], Budget: 1}
		for _, eng := range []*Engine{stretchEng, perEventEng, plainEng} {
			if _, err := eng.Run(ctx, sc); err != nil && !errors.Is(err, ErrBudgetExhausted) {
				t.Fatal(err)
			}
		}
	}
	stretchRec.calls, perEventRec.calls = nil, nil
	scenarios, meetings := 0, 0
	for _, gr := range graphs {
		for _, starts := range gr.starts {
			for _, labels := range labelPairs {
				for _, kind := range []ScenarioKind{ScenarioRendezvous, ScenarioBaseline} {
					for advName, newAdv := range adversaries {
						for _, budget := range budgets {
							sc := Scenario{
								Name: fmt.Sprintf("%s/%v/%v/%s/%s/%d",
									gr.spec.Kind, starts, labels, kind, advName, budget),
								Kind: kind, Graph: gr.spec, Starts: starts, Labels: labels, Budget: budget,
							}
							stretchAdv, plainAdv, perEventAdv := newAdv(), newAdv(), newAdv()
							sc.AdversaryInstance = stretchAdv
							stretchRes, stretchErr := stretchEng.Run(ctx, sc)
							sc.AdversaryInstance = plainAdv
							plainRes, plainErr := plainEng.Run(ctx, sc)
							sc.AdversaryInstance = perEvent{perEventAdv}
							perEventRes, perEventErr := perEventEng.Run(ctx, sc)

							want := walkerOutcome(perEventRes)
							if got := walkerOutcome(stretchRes); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: stretch result %+v, per-event %+v", sc.Name, got, want)
							}
							if got := walkerOutcome(plainRes); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: unobserved stretch result %+v, per-event %+v", sc.Name, got, want)
							}
							if errText(stretchErr) != errText(perEventErr) || errText(plainErr) != errText(perEventErr) {
								t.Fatalf("%s: errors %q (stretch), %q (unobserved stretch), %q (per-event)",
									sc.Name, errText(stretchErr), errText(plainErr), errText(perEventErr))
							}
							if !reflect.DeepEqual(stretchRec.calls, perEventRec.calls) {
								t.Fatalf("%s: observer streams differ: %d calls with stretches, %d per event",
									sc.Name, len(stretchRec.calls), len(perEventRec.calls))
							}
							if !reflect.DeepEqual(stretchAdv, perEventAdv) || !reflect.DeepEqual(plainAdv, perEventAdv) {
								t.Fatalf("%s: adversary ends as %+v with stretches (%+v unobserved), %+v per event",
									sc.Name, stretchAdv, plainAdv, perEventAdv)
							}
							stretchRec.calls, perEventRec.calls = stretchRec.calls[:0], perEventRec.calls[:0]
							scenarios++
							if want != nil && want.Met {
								meetings++
							}
						}
					}
				}
			}
		}
	}
	stretchBytes, perEventBytes := routeBytesGauge(t, stretchReg), routeBytesGauge(t, perEventReg)
	if plainBytes := routeBytesGauge(t, plainReg); stretchBytes != perEventBytes || plainBytes > perEventBytes {
		t.Errorf("route books hold %d bytes with stretches (%d unobserved), %d per event",
			stretchBytes, plainBytes, perEventBytes)
	}
	if meetings == 0 || meetings == scenarios {
		t.Errorf("%d of %d scenarios met: the matrix must hold both outcomes", meetings, scenarios)
	}
	t.Logf("%d scenarios, %d meetings, %d route bytes", scenarios, meetings, perEventBytes)
}
