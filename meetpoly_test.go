package meetpoly

import (
	"context"
	"math/big"
	"testing"

	"meetpoly/internal/labels"
)

// runFacade executes sc on eng and fails the test on any error.
func runFacade(t *testing.T, eng *Engine, sc Scenario) *Result {
	t.Helper()
	res, err := eng.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFacadeRendezvous(t *testing.T) {
	res := runFacade(t, NewEngine(WithMaxN(5)), Scenario{
		Kind: ScenarioRendezvous, GraphInstance: Path(4),
		Starts: []int{0, 3}, Labels: []Label{2, 5}, Budget: 2_000_000,
	}).Rendezvous
	if !res.Met {
		t.Fatal("facade rendezvous did not meet")
	}
	if res.Bound.Sign() <= 0 {
		t.Error("non-positive bound")
	}
}

func TestFacadeBaseline(t *testing.T) {
	res := runFacade(t, NewEngine(WithMaxN(4)), Scenario{
		Kind: ScenarioBaseline, GraphInstance: Path(2),
		Starts: []int{0, 1}, Labels: []Label{1, 2}, Budget: 1_000_000,
	}).Baseline
	if !res.Met {
		t.Fatal("baseline did not meet")
	}
}

func TestFacadeCertify(t *testing.T) {
	res := runFacade(t, NewEngine(WithMaxN(4)), Scenario{
		Kind: ScenarioCertify, GraphInstance: Path(2),
		Starts: []int{0, 1}, Labels: []Label{1, 2}, Moves: 2000,
	}).Cert
	if !res.Forced {
		t.Error("2-path rendezvous should be certified forced")
	}
}

func TestFacadeESST(t *testing.T) {
	res := runFacade(t, NewEngine(WithMaxN(5)), Scenario{
		Kind: ScenarioESST, GraphInstance: Ring(5),
		Starts: []int{0, 2}, Budget: 10_000_000,
	}).ESST
	if !res.Done || !res.Covered {
		t.Errorf("ESST done=%v covered=%v", res.Done, res.Covered)
	}
}

func TestFacadeSGL(t *testing.T) {
	res := runFacade(t, NewEngine(WithMaxN(5)), Scenario{
		Kind: ScenarioSGL, GraphInstance: Path(4),
		Starts: []int{0, 3}, Labels: []Label{1, 5}, Budget: 20_000_000,
	}).SGL
	if !res.AllOutput {
		t.Error("SGL incomplete")
	}
	if res.Agents[0].Leader != 1 {
		t.Errorf("leader = %d", res.Agents[0].Leader)
	}
}

func TestFacadePiBoundAndCostModel(t *testing.T) {
	env := NewEnv(4, 1)
	b := PiBound(env, 3, 2, 9)
	if b.Sign() <= 0 {
		t.Error("PiBound non-positive")
	}
	m := CostModel(1, 3)
	if m.Pi(4, 2).Cmp(big.NewInt(0)) <= 0 {
		t.Error("CostModel Pi non-positive")
	}
}

// TestFacadeEnsureFor runs on an engine that may not extend the
// catalog itself, so the shuffled star is covered only because
// EnsureFor extended env's catalog first.
func TestFacadeEnsureFor(t *testing.T) {
	env := NewEnv(4, 1)
	g := Complete(4)
	EnsureFor(env, g) // Complete(4) is already in the family: no-op
	shuffled := ShufflePorts(Star(4), 99)
	EnsureFor(env, shuffled)
	eng := NewEngine(WithCatalog(env.Catalog()), WithAutoExtend(false))
	res := runFacade(t, eng, Scenario{
		Kind: ScenarioRendezvous, GraphInstance: shuffled, AdversaryInstance: RandomAdversary(5),
		Starts: []int{0, 2}, Labels: []Label{1, 2}, Budget: 2_000_000,
	}).Rendezvous
	if !res.Met {
		t.Error("no meeting on extended-family graph")
	}
}

func TestFacadeAdversaries(t *testing.T) {
	if RoundRobin() == nil || Avoider() == nil || RandomAdversary(1) == nil {
		t.Error("nil adversary constructors")
	}
}

func TestFacadeTypesAlias(t *testing.T) {
	var l Label = 5
	if l.Len() != labels.Label(5).Len() {
		t.Error("Label alias broken")
	}
	if Version == "" {
		t.Error("empty version")
	}
}
