package meetpoly

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"meetpoly/internal/sched"
)

// TestEngineRunKinds drives Engine.Run over every scenario kind through
// one shared engine.
func TestEngineRunKinds(t *testing.T) {
	eng := NewEngine(WithMaxN(5), WithSeed(1))
	cases := []struct {
		name  string
		sc    Scenario
		check func(t *testing.T, res *Result)
	}{
		{
			name: "rendezvous",
			sc: Scenario{
				Kind:   ScenarioRendezvous,
				Graph:  GraphSpec{Kind: "path", N: 4},
				Starts: []int{0, 3}, Labels: []Label{2, 5},
				Budget: 2_000_000,
			},
			check: func(t *testing.T, res *Result) {
				if res.Rendezvous == nil || !res.Rendezvous.Met {
					t.Fatal("rendezvous did not meet")
				}
				if res.Rendezvous.Bound.Sign() <= 0 {
					t.Error("non-positive bound")
				}
			},
		},
		{
			name: "baseline",
			sc: Scenario{
				Kind:   ScenarioBaseline,
				Graph:  GraphSpec{Kind: "path", N: 2},
				Starts: []int{0, 1}, Labels: []Label{1, 2},
				Budget: 1_000_000,
			},
			check: func(t *testing.T, res *Result) {
				if res.Baseline == nil || !res.Baseline.Met {
					t.Fatal("baseline did not meet")
				}
			},
		},
		{
			name: "esst",
			sc: Scenario{
				Kind:   ScenarioESST,
				Graph:  GraphSpec{Kind: "ring", N: 5},
				Starts: []int{0, 2},
				Budget: 10_000_000,
			},
			check: func(t *testing.T, res *Result) {
				if res.ESST == nil || !res.ESST.Done || !res.ESST.Covered {
					t.Fatalf("esst done/covered: %+v", res.ESST)
				}
			},
		},
		{
			name: "sgl",
			sc: Scenario{
				Kind:   ScenarioSGL,
				Graph:  GraphSpec{Kind: "path", N: 4},
				Starts: []int{0, 3}, Labels: []Label{1, 5},
				Budget: 20_000_000,
			},
			check: func(t *testing.T, res *Result) {
				if res.SGL == nil || !res.SGL.AllOutput {
					t.Fatal("sgl incomplete")
				}
				if res.SGL.Agents[0].Leader != 1 {
					t.Errorf("leader = %d", res.SGL.Agents[0].Leader)
				}
			},
		},
		{
			name: "certify",
			sc: Scenario{
				Kind:   ScenarioCertify,
				Graph:  GraphSpec{Kind: "path", N: 2},
				Starts: []int{0, 1}, Labels: []Label{1, 2},
				Moves: 2000,
			},
			check: func(t *testing.T, res *Result) {
				if res.Cert == nil || !res.Cert.Forced {
					t.Fatal("2-path rendezvous should be certified forced")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := eng.Run(context.Background(), tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, res)
		})
	}
}

// TestRunBatchSharedCatalog fans >=8 mixed-kind scenarios out
// concurrently over one engine (and therefore one verified catalog).
// Run under -race this is the acceptance test for the engine's
// concurrency story.
func TestRunBatchSharedCatalog(t *testing.T) {
	eng := NewEngine(WithMaxN(5), WithSeed(1), WithParallelism(8))
	scs := []Scenario{
		{Name: "rv-path", Kind: ScenarioRendezvous, Graph: GraphSpec{Kind: "path", N: 4},
			Starts: []int{0, 3}, Labels: []Label{2, 5}, Budget: 2_000_000},
		{Name: "rv-star", Kind: ScenarioRendezvous, Graph: GraphSpec{Kind: "star", N: 4},
			Starts: []int{1, 2}, Labels: []Label{2, 3}, Adversary: "avoider", Budget: 2_000_000},
		{Name: "rv-clique", Kind: ScenarioRendezvous, Graph: GraphSpec{Kind: "clique", N: 4},
			Starts: []int{0, 2}, Labels: []Label{1, 6}, Adversary: "random:7", Budget: 2_000_000},
		{Name: "baseline", Kind: ScenarioBaseline, Graph: GraphSpec{Kind: "path", N: 2},
			Starts: []int{0, 1}, Labels: []Label{1, 2}, Budget: 1_000_000},
		{Name: "esst-ring", Kind: ScenarioESST, Graph: GraphSpec{Kind: "ring", N: 5},
			Starts: []int{0, 2}, Budget: 10_000_000},
		{Name: "esst-star", Kind: ScenarioESST, Graph: GraphSpec{Kind: "star", N: 5},
			Starts: []int{1, 3}, Budget: 10_000_000},
		{Name: "certify-path", Kind: ScenarioCertify, Graph: GraphSpec{Kind: "path", N: 3},
			Starts: []int{0, 2}, Labels: []Label{1, 2}, Moves: 2000},
		{Name: "certify-star", Kind: ScenarioCertify, Graph: GraphSpec{Kind: "star", N: 4},
			Starts: []int{1, 2}, Labels: []Label{2, 3}, Moves: 2000},
		{Name: "sgl-path", Kind: ScenarioSGL, Graph: GraphSpec{Kind: "path", N: 4},
			Starts: []int{0, 3}, Labels: []Label{1, 5}, Budget: 20_000_000},
		{Name: "rv-shuffled", Kind: ScenarioRendezvous, Graph: GraphSpec{Kind: "ring", N: 4, Seed: 4, Shuffle: true},
			Starts: []int{0, 2}, Labels: []Label{1, 3}, Budget: 500_000},
	}
	if len(scs) < 8 {
		t.Fatalf("batch must hold >= 8 scenarios, got %d", len(scs))
	}
	out := eng.RunBatch(context.Background(), scs)
	if len(out) != len(scs) {
		t.Fatalf("got %d results for %d scenarios", len(out), len(scs))
	}
	for i, br := range out {
		if br.Index != i {
			t.Errorf("result %d carries index %d", i, br.Index)
		}
		if br.Err != nil {
			t.Errorf("scenario %q failed: %v", br.Scenario.Name, br.Err)
			continue
		}
		if br.Result == nil {
			t.Errorf("scenario %q: nil result", br.Scenario.Name)
		}
	}
}

// TestRunBatchCancelMidBatch cancels a batch right after its first
// scenario produces a result: the first result must stand (its goal was
// reached before the cancellation), every remaining BatchResult must
// carry ErrCanceled, and the worker pool must drain without leaking
// goroutines.
func TestRunBatchCancelMidBatch(t *testing.T) {
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	// The observer fires at the first meeting of the batch; with
	// parallelism 1 that is deterministically scenario 0's meeting.
	obs := &FuncObserver{Meeting: func(Meeting) { once.Do(cancel) }}
	eng := NewEngine(WithMaxN(4), WithSeed(1), WithParallelism(1), WithObserver(obs))

	scs := []Scenario{{
		Name: "fast-meeting", Kind: ScenarioRendezvous,
		Graph:  GraphSpec{Kind: "path", N: 4},
		Starts: []int{0, 3}, Labels: []Label{2, 5}, Budget: 2_000_000,
	}}
	for i := 0; i < 7; i++ {
		// Symmetric oriented-ring instances: without the cancellation
		// these would churn through an effectively unbounded budget, so
		// the test only terminates if mid-batch cancellation works.
		scs = append(scs, Scenario{
			Name: "doomed", Kind: ScenarioRendezvous,
			Graph:  GraphSpec{Kind: "ring", N: 4},
			Starts: []int{0, 2}, Labels: []Label{1, 3}, Budget: 1 << 40,
		})
	}

	out := eng.RunBatch(ctx, scs)
	if len(out) != len(scs) {
		t.Fatalf("got %d results for %d scenarios", len(out), len(scs))
	}
	first := out[0]
	if first.Err != nil {
		t.Fatalf("first scenario met before the cancel and must not error: %v", first.Err)
	}
	if first.Result == nil || first.Result.Rendezvous == nil || !first.Result.Rendezvous.Met {
		t.Fatal("first scenario should have met")
	}
	for _, br := range out[1:] {
		if !errors.Is(br.Err, ErrCanceled) {
			t.Fatalf("scenario %d (%s): want ErrCanceled, got %v", br.Index, br.Scenario.Name, br.Err)
		}
		if !errors.Is(br.Err, context.Canceled) {
			t.Fatalf("scenario %d: error should wrap context.Canceled, got %v", br.Index, br.Err)
		}
	}

	// The pool and every agent goroutine must drain. Goroutine counts
	// are noisy (test runner, GC), so poll with a tolerance.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("worker pool leaked goroutines: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelCertifierMidRun aborts an exhaustive certification whose
// lattice is far too large to finish within the deadline; the typed
// error must wrap both ErrCanceled and the context's own error.
func TestCancelCertifierMidRun(t *testing.T) {
	eng := NewEngine(WithMaxN(4), WithSeed(1))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := eng.Run(ctx, Scenario{
		Name:   "certify-huge",
		Kind:   ScenarioCertify,
		Graph:  GraphSpec{Kind: "ring", N: 4},
		Starts: []int{0, 2}, Labels: []Label{1, 3},
		// An oriented-ring instance certifies nothing quickly: the
		// 2*moves x 2*moves lattice takes far longer than the deadline.
		Moves: 50_000,
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error should also wrap the context error, got %v", err)
	}
}

// TestCancelRendezvousMidRun cancels a symmetric rendezvous that would
// otherwise churn until its (huge) budget.
func TestCancelRendezvousMidRun(t *testing.T) {
	eng := NewEngine(WithMaxN(4), WithSeed(1))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	res, err := eng.Run(ctx, Scenario{
		Name: "rv-symmetric",
		Kind: ScenarioRendezvous,
		// Oriented ring, rotation-equivalent starts: no meeting for
		// ~1e11 traversals, so only cancellation ends this run early.
		Graph:  GraphSpec{Kind: "ring", N: 4},
		Starts: []int{0, 2}, Labels: []Label{1, 3},
		Budget: 1 << 40,
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if res == nil || res.Rendezvous == nil {
		t.Fatal("canceled run should still return the partial result")
	}
	if !res.Rendezvous.Summary.Canceled {
		t.Error("summary should record cancellation")
	}
	if res.Rendezvous.Met {
		t.Error("symmetric instance cannot have met")
	}
}

// TestSentinelErrors exercises errors.Is for all four public sentinels.
func TestSentinelErrors(t *testing.T) {
	t.Run("budget-exhausted", func(t *testing.T) {
		eng := NewEngine(WithMaxN(4), WithSeed(1))
		res, err := eng.Run(context.Background(), Scenario{
			Kind:   ScenarioRendezvous,
			Graph:  GraphSpec{Kind: "ring", N: 4},
			Starts: []int{0, 2}, Labels: []Label{1, 3},
			Budget: 10_000, // symmetric: cannot meet this early
		})
		if !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("want ErrBudgetExhausted, got %v", err)
		}
		if res == nil || res.Rendezvous == nil || res.Rendezvous.Met {
			t.Fatalf("partial result expected alongside the error: %+v", res)
		}
		if !res.Rendezvous.Summary.Exhausted {
			t.Error("summary should record exhaustion")
		}
	})
	t.Run("invalid-scenario", func(t *testing.T) {
		eng := NewEngine(WithMaxN(4), WithSeed(1))
		for name, sc := range map[string]Scenario{
			"duplicate starts": {Kind: ScenarioRendezvous, Graph: GraphSpec{Kind: "path", N: 4},
				Starts: []int{1, 1}, Labels: []Label{1, 2}, Budget: 100},
			"equal labels": {Kind: ScenarioRendezvous, Graph: GraphSpec{Kind: "path", N: 4},
				Starts: []int{0, 3}, Labels: []Label{2, 2}, Budget: 100},
			"zero label": {Kind: ScenarioRendezvous, Graph: GraphSpec{Kind: "path", N: 4},
				Starts: []int{0, 3}, Labels: []Label{0, 2}, Budget: 100},
			"unknown kind": {Kind: "teleport", Graph: GraphSpec{Kind: "path", N: 4},
				Starts: []int{0, 3}, Labels: []Label{1, 2}, Budget: 100},
			"unknown graph": {Kind: ScenarioRendezvous, Graph: GraphSpec{Kind: "moebius", N: 4},
				Starts: []int{0, 3}, Labels: []Label{1, 2}, Budget: 100},
			"bad adversary": {Kind: ScenarioRendezvous, Graph: GraphSpec{Kind: "path", N: 4},
				Starts: []int{0, 3}, Labels: []Label{1, 2}, Adversary: "chaos", Budget: 100},
			"biased weight mismatch": {Kind: ScenarioRendezvous, Graph: GraphSpec{Kind: "path", N: 4},
				Starts: []int{0, 3}, Labels: []Label{1, 2}, Adversary: "biased:1,5,9", Budget: 100},
			"no budget": {Kind: ScenarioRendezvous, Graph: GraphSpec{Kind: "path", N: 4},
				Starts: []int{0, 3}, Labels: []Label{1, 2}},
			"sgl label mismatch": {Kind: ScenarioSGL, Graph: GraphSpec{Kind: "path", N: 4},
				Starts: []int{0, 3}, Labels: []Label{1}, Budget: 100},
		} {
			if _, err := eng.Run(context.Background(), sc); !errors.Is(err, ErrInvalidScenario) {
				t.Errorf("%s: want ErrInvalidScenario, got %v", name, err)
			}
		}
	})
	t.Run("catalog-uncovered", func(t *testing.T) {
		eng := NewEngine(WithMaxN(4), WithSeed(1), WithAutoExtend(false))
		_, err := eng.Run(context.Background(), Scenario{
			Kind:   ScenarioRendezvous,
			Graph:  GraphSpec{Kind: "path", N: 6}, // outside the <=4 family
			Starts: []int{0, 5}, Labels: []Label{1, 2}, Budget: 100,
		})
		if !errors.Is(err, ErrCatalogUncovered) {
			t.Fatalf("want ErrCatalogUncovered, got %v", err)
		}
		// A structural family member must pass WITHOUT extension.
		if _, err := eng.Run(context.Background(), Scenario{
			Kind:   ScenarioRendezvous,
			Graph:  GraphSpec{Kind: "path", N: 4},
			Starts: []int{0, 3}, Labels: []Label{2, 5}, Budget: 2_000_000,
		}); err != nil {
			t.Fatalf("family member should be covered structurally: %v", err)
		}
	})
	t.Run("canceled", func(t *testing.T) {
		eng := NewEngine(WithMaxN(4), WithSeed(1))
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := eng.Run(ctx, Scenario{
			Kind:   ScenarioRendezvous,
			Graph:  GraphSpec{Kind: "path", N: 4},
			Starts: []int{0, 3}, Labels: []Label{1, 2}, Budget: 100,
		})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("want ErrCanceled, got %v", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error should also wrap context.Canceled, got %v", err)
		}
	})
}

// restingAdversary issues no events at all: the run ends immediately
// without consuming its budget.
type restingAdversary struct{}

func (restingAdversary) Next(*sched.View) (sched.Event, bool) { return sched.Event{}, false }

// TestAdversaryRestedIsNotBudgetExhausted: a goal missed because the
// adversary rested is not cured by a larger budget, so it must not
// match ErrBudgetExhausted.
func TestAdversaryRestedIsNotBudgetExhausted(t *testing.T) {
	eng := NewEngine(WithMaxN(4), WithSeed(1))
	res, err := eng.Run(context.Background(), Scenario{
		Name:              "rested",
		Kind:              ScenarioRendezvous,
		Graph:             GraphSpec{Kind: "path", N: 4},
		Starts:            []int{0, 3},
		Labels:            []Label{2, 5},
		AdversaryInstance: restingAdversary{},
		Budget:            1_000_000,
	})
	if err == nil {
		t.Fatal("goal miss must be reported")
	}
	if errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("rested adversary must not report budget exhaustion: %v", err)
	}
	if res == nil || res.Rendezvous == nil || res.Rendezvous.Met {
		t.Fatalf("partial result expected: %+v", res)
	}
}

// TestBareBiasedAdversary: the pre-redesign CLI accepted a bare
// "biased" spec with default skew weights; a scenario must too.
func TestBareBiasedAdversary(t *testing.T) {
	eng := NewEngine(WithMaxN(4), WithSeed(1))
	res, err := eng.Run(context.Background(), Scenario{
		Kind:      ScenarioRendezvous,
		Graph:     GraphSpec{Kind: "path", N: 4},
		Starts:    []int{0, 3},
		Labels:    []Label{2, 5},
		Adversary: "biased",
		Budget:    2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rendezvous.Met {
		t.Error("biased schedule should still meet on the path")
	}
}

// TestObserverEvents checks that an attached observer sees a consistent
// event stream: one traversal per completed move, the meeting, and (for
// ESST) phase-change announcements.
func TestObserverEvents(t *testing.T) {
	var traversals, meetings, events int
	var phases []string
	obs := &FuncObserver{
		Event:     func(int, Event) { events++ },
		Traversal: func(int, int, int) { traversals++ },
		Meeting:   func(Meeting) { meetings++ },
		Phase:     func(_ int, p string) { phases = append(phases, p) },
	}
	eng := NewEngine(WithMaxN(5), WithSeed(1), WithObserver(obs))

	res, err := eng.Run(context.Background(), Scenario{
		Kind:   ScenarioRendezvous,
		Graph:  GraphSpec{Kind: "path", N: 4},
		Starts: []int{0, 3}, Labels: []Label{2, 5}, Budget: 2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Rendezvous.Summary
	wantTrav := 0
	for _, tr := range sum.Traversals {
		wantTrav += tr
	}
	if traversals != wantTrav {
		t.Errorf("observer saw %d traversals, summary says %d", traversals, wantTrav)
	}
	if meetings == 0 {
		t.Error("observer missed the meeting")
	}
	if events != sum.Steps {
		t.Errorf("observer saw %d events, summary says %d steps", events, sum.Steps)
	}

	if _, err := eng.Run(context.Background(), Scenario{
		Kind:   ScenarioESST,
		Graph:  GraphSpec{Kind: "ring", N: 5},
		Starts: []int{0, 2}, Budget: 10_000_000,
	}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range phases {
		if p == "esst: phase 3" {
			found = true
		}
	}
	if !found {
		t.Errorf("observer missed ESST phase announcements; saw %v", phases)
	}
}
