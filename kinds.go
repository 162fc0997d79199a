package meetpoly

import (
	"context"
	"fmt"
	"sync"

	"meetpoly/internal/baseline"
	"meetpoly/internal/core"
	"meetpoly/internal/esst"
	"meetpoly/internal/registry"
	"meetpoly/internal/sched"
	"meetpoly/internal/sgl"
	"meetpoly/internal/trajectory"
)

// ScenarioRunContext is the prepared execution state the engine hands a
// ScenarioRunner: the validated scenario, its built (and cache-shared)
// graph, the resolved adversary, and the engine it runs under — which
// gives a runner the exploration-sequence environment (Engine.Env), the
// paper's cost model (Engine.BoundModel) and the serialized observer
// (Observer). Runners for deterministic kinds additionally replay
// cached trajectories through the context's route book; that plumbing
// is internal, so custom kinds simply pay the derivation each run.
type ScenarioRunContext struct {
	// Context carries cancellation; runners should poll it between
	// units of work and report interruption through Finish (or by
	// wrapping ErrCanceled alongside the context's error).
	Context context.Context
	// Engine is the engine executing the scenario.
	Engine *Engine
	// Scenario is the validated descriptor being executed.
	Scenario Scenario
	// Graph is the prepared graph instance. For declarative specs it
	// comes from the engine's prepared-scenario cache and is shared
	// across runs: runners must treat it as immutable.
	Graph *Graph
	// Adversary is the resolved schedule strategy. It is per-run
	// mutable state; runners own it for the duration of the run.
	Adversary Adversary

	// routes is the graph's route book (nil for cache-bypassing runs):
	// the built-in deterministic kinds replay materialized trajectories
	// from it instead of re-deriving them.
	routes *trajectory.RouteBook
}

// Observer returns the engine's execution observer (nil when none is
// attached). Callbacks on it are serialized engine-wide, so runners may
// invoke it directly from their event loops.
func (rc *ScenarioRunContext) Observer() Observer { return rc.Engine.obs }

// schedOpts bundles the run options the internal scheduler consumes.
func (rc *ScenarioRunContext) schedOpts() sched.RunOpts {
	return sched.RunOpts{Ctx: rc.Context, Observer: rc.Engine.obs, ForceBlocking: rc.Engine.forceBlocking}
}

// Finish maps a scheduler-level outcome to the engine's typed
// sentinels, the way every built-in kind reports: a run that reached
// its goal succeeds even if the context fired just afterwards (the
// result is complete; cancellation only matters for work cut short),
// a canceled run wraps ErrCanceled plus the context's error, and only
// a run that actually consumed its budget reports ErrBudgetExhausted —
// a goal missed because the adversary rested or every agent halted
// would not be cured by a larger budget, so it gets a distinct error.
// miss names the unreached goal ("no meeting", "not all agents
// output", ...).
func (rc *ScenarioRunContext) Finish(sum Summary, goalMet bool, miss string) error {
	sc := rc.Scenario
	if goalMet {
		return nil
	}
	if sum.Canceled {
		return fmt.Errorf("scenario %q: %w (%w)", sc.Name, ErrCanceled, rc.Context.Err())
	}
	if sum.Exhausted {
		return fmt.Errorf("scenario %q: %s within %d events: %w",
			sc.Name, miss, sc.Budget, ErrBudgetExhausted)
	}
	return fmt.Errorf("scenario %q: %s after %d of %d events: run ended early (adversary rested or agents halted)",
		sc.Name, miss, sum.Steps, sc.Budget)
}

// ScenarioRunner executes one prepared scenario and returns its Result.
// The returned error follows the engine's conventions: nil for a run
// that reached its goal, a typed sentinel wrap otherwise (Finish
// produces both from a scheduler Summary). A runner may return a
// partial Result alongside a non-nil error.
type ScenarioRunner func(rc *ScenarioRunContext) (*Result, error)

// ScenarioKindDef describes one scenario kind for RegisterScenarioKind:
// the campaign-facing axis metadata, the kind-specific validator, the
// runner, and the sweep outcome classifier.
type ScenarioKindDef struct {
	// Kind is the ScenarioKind string scenarios select the runner by.
	Kind ScenarioKind
	// Labeled kinds take agent labels; the campaign label axis applies
	// to their cells.
	Labeled bool
	// UsesAdversary kinds run under a schedule; the campaign adversary
	// axis applies. (The certifier ranges over all schedules instead.)
	UsesAdversary bool
	// UsesBudget kinds bound adversary events: Scenario.Budget must be
	// positive and sweep cells carry Spec.Budget.
	UsesBudget bool
	// UsesMoves kinds consume a route-prefix length: sweep cells carry
	// Spec.Moves.
	UsesMoves bool
	// Validate checks kind-specific scenario shape against the built
	// graph (agent counts, label arity, budgets). Errors must wrap
	// ErrInvalidScenario. nil applies a generic default derived from
	// the flags above.
	Validate func(sc Scenario, g *Graph) error
	// Run executes the prepared scenario.
	Run ScenarioRunner
	// Outcome classifies an executed result into the engine-agnostic
	// record sweep oracles judge. nil applies the generic default: a
	// run that returned without error met its goal. Built-in kinds use
	// it to surface goal costs and scheduler accounting.
	Outcome func(res *Result, runErr error, o *SweepOutcome)
}

// scenarioKinds maps ScenarioKind -> *ScenarioKindDef.
var scenarioKinds sync.Map

// RegisterScenarioKind adds a scenario kind to the open world: the
// engine dispatches Run/RunBatch/Sweep/ReplayCell to registered kinds
// by name, scenario validation applies the kind's validator, and the
// campaign expander consumes its axis metadata — a registered kind
// sweeps, caches and replays exactly like a built-in (its cells flow
// through the same prepared-scenario cache and seed-string derivation).
// The built-ins are registered through this exact path at package init.
// Duplicate kinds (or kinds whose metadata conflicts with an existing
// campaign registration) are rejected.
func RegisterScenarioKind(def ScenarioKindDef) error {
	if def.Kind == "" {
		return fmt.Errorf("meetpoly: scenario kind needs a name")
	}
	if def.Run == nil {
		return fmt.Errorf("meetpoly: scenario kind %q needs a Run function", def.Kind)
	}
	meta := registry.KindMeta{
		Name:          string(def.Kind),
		Labeled:       def.Labeled,
		UsesAdversary: def.UsesAdversary,
		UsesBudget:    def.UsesBudget,
		UsesMoves:     def.UsesMoves,
	}
	if err := registry.RegisterKindMeta(meta); err != nil {
		return fmt.Errorf("meetpoly: %v", err)
	}
	if _, dup := scenarioKinds.LoadOrStore(def.Kind, &def); dup {
		return fmt.Errorf("meetpoly: scenario kind %q is already registered", def.Kind)
	}
	return nil
}

// lookupScenarioKind resolves a kind to its registered definition.
func lookupScenarioKind(k ScenarioKind) (*ScenarioKindDef, bool) {
	v, ok := scenarioKinds.Load(k)
	if !ok {
		return nil, false
	}
	return v.(*ScenarioKindDef), true
}

// defaultKindValidate is the generic validator applied to kinds
// registered without one, derived from the def's axis flags.
func defaultKindValidate(def *ScenarioKindDef, s Scenario) error {
	if def.Labeled {
		if len(s.Labels) != len(s.Starts) {
			return scenarioFail(s, "%s needs one label per start (%d vs %d)", s.Kind, len(s.Labels), len(s.Starts))
		}
		if err := distinctPositiveLabels(s, s.Labels); err != nil {
			return err
		}
	}
	if def.UsesBudget && s.Budget <= 0 {
		return scenarioFail(s, "budget must be positive")
	}
	if def.UsesMoves && s.Moves <= 0 {
		return scenarioFail(s, "%s needs positive moves", s.Kind)
	}
	return nil
}

// scenarioFail builds the conventional validation error: it names the
// scenario and wraps ErrInvalidScenario, like every built-in validator.
func scenarioFail(s Scenario, format string, args ...any) error {
	return fmt.Errorf("scenario %q: %s: %w", s.Name, fmt.Sprintf(format, args...), ErrInvalidScenario)
}

// distinctPositiveLabels rejects zero or duplicate agent labels.
func distinctPositiveLabels(s Scenario, ls []Label) error {
	got := make(map[Label]bool, len(ls))
	for _, l := range ls {
		if l == 0 {
			return scenarioFail(s, "labels must be positive")
		}
		if got[l] {
			return scenarioFail(s, "duplicate label %d", l)
		}
		got[l] = true
	}
	return nil
}

// The built-in scenario kinds, registered through the public
// RegisterScenarioKind — the same path a third party uses. Their
// campaign metadata matches what internal/registry self-registered for
// the expander (registration is idempotent over identical metadata).
func init() {
	mustRegisterKind := func(def ScenarioKindDef) {
		if err := RegisterScenarioKind(def); err != nil {
			panic(err)
		}
	}
	mustRegisterKind(ScenarioKindDef{
		Kind: ScenarioRendezvous, Labeled: true, UsesAdversary: true, UsesBudget: true,
		Validate: validateTwoAgentBudgeted,
		Run:      runRendezvousKind,
		Outcome:  outcomeRendezvous,
	})
	mustRegisterKind(ScenarioKindDef{
		Kind: ScenarioBaseline, Labeled: true, UsesAdversary: true, UsesBudget: true,
		Validate: validateTwoAgentBudgeted,
		Run:      runBaselineKind,
		Outcome:  outcomeBaseline,
	})
	mustRegisterKind(ScenarioKindDef{
		Kind: ScenarioESST, Labeled: false, UsesAdversary: true, UsesBudget: true,
		Validate: validateESST,
		Run:      runESSTKind,
		Outcome:  outcomeESST,
	})
	mustRegisterKind(ScenarioKindDef{
		Kind: ScenarioSGL, Labeled: true, UsesAdversary: true, UsesBudget: true,
		Validate: validateSGL,
		Run:      runSGLKind,
		Outcome:  outcomeSGL,
	})
	mustRegisterKind(ScenarioKindDef{
		Kind: ScenarioCertify, Labeled: true, UsesAdversary: false, UsesMoves: true,
		Validate: validateCertify,
		Run:      runCertifyKind,
		Outcome:  outcomeCertify,
	})
}

// --- built-in validators (the arms of the former Validate switch) ---

func validateTwoAgentBudgeted(s Scenario, g *Graph) error {
	if len(s.Starts) != 2 || len(s.Labels) != 2 {
		return scenarioFail(s, "%s needs exactly 2 starts and 2 labels", s.Kind)
	}
	if err := distinctPositiveLabels(s, s.Labels); err != nil {
		return err
	}
	if s.Budget <= 0 {
		return scenarioFail(s, "budget must be positive")
	}
	return nil
}

func validateCertify(s Scenario, g *Graph) error {
	if len(s.Starts) != 2 || len(s.Labels) != 2 {
		return scenarioFail(s, "certify needs exactly 2 starts and 2 labels")
	}
	if err := distinctPositiveLabels(s, s.Labels); err != nil {
		return err
	}
	if s.Moves <= 0 {
		return scenarioFail(s, "certify needs positive moves")
	}
	return nil
}

func validateESST(s Scenario, g *Graph) error {
	if len(s.Starts) != 2 {
		return scenarioFail(s, "esst needs exactly 2 starts (explorer, token)")
	}
	if s.Budget <= 0 {
		return scenarioFail(s, "budget must be positive")
	}
	return nil
}

func validateSGL(s Scenario, g *Graph) error {
	if len(s.Starts) < 2 {
		return scenarioFail(s, "sgl needs at least 2 agents")
	}
	if len(s.Labels) != len(s.Starts) {
		return scenarioFail(s, "sgl needs one label per start (%d vs %d)", len(s.Labels), len(s.Starts))
	}
	if err := distinctPositiveLabels(s, s.Labels); err != nil {
		return err
	}
	if s.Values != nil && len(s.Values) != len(s.Labels) {
		return scenarioFail(s, "sgl values must match labels (%d vs %d)", len(s.Values), len(s.Labels))
	}
	if s.Budget <= 0 {
		return scenarioFail(s, "budget must be positive")
	}
	return nil
}

// --- built-in runners (the arms of the former runPrepared switch) ---

func runRendezvousKind(rc *ScenarioRunContext) (*Result, error) {
	e, sc, g := rc.Engine, rc.Scenario, rc.Graph
	s1 := e.masterStepper(rc.routes, g, sc.Starts[0], sc.Labels[0])
	s2 := e.masterStepper(rc.routes, g, sc.Starts[1], sc.Labels[1])
	r, err := core.RendezvousSteppers(rc.schedOpts(), g, sc.Starts[0], sc.Starts[1],
		sc.Labels[0], sc.Labels[1], e.env, rc.Adversary, sc.Budget, s1, s2,
		e.piBound(g.N(), sc.Labels[0], sc.Labels[1]))
	if err != nil {
		return nil, err
	}
	res := &Result{Scenario: sc, Rendezvous: r}
	return res, rc.Finish(r.Summary, r.Met, "no meeting")
}

func runBaselineKind(rc *ScenarioRunContext) (*Result, error) {
	e, sc, g := rc.Engine, rc.Scenario, rc.Graph
	s1 := e.baselineStepper(rc.routes, g, sc.Starts[0], sc.Labels[0])
	s2 := e.baselineStepper(rc.routes, g, sc.Starts[1], sc.Labels[1])
	r, err := baseline.RendezvousSteppers(rc.schedOpts(), g, sc.Starts[0], sc.Starts[1],
		sc.Labels[0], sc.Labels[1], e.env, rc.Adversary, sc.Budget, s1, s2)
	if err != nil {
		return nil, err
	}
	res := &Result{Scenario: sc, Baseline: r}
	return res, rc.Finish(r.Summary, r.Met, "no meeting")
}

func runESSTKind(rc *ScenarioRunContext) (*Result, error) {
	e, sc := rc.Engine, rc.Scenario
	r, err := esst.ExploreWith(rc.schedOpts(), rc.Graph, sc.Starts[0], sc.Starts[1],
		e.env.Catalog(), rc.Adversary, sc.Budget)
	if err != nil {
		return nil, err
	}
	res := &Result{Scenario: sc, ESST: r}
	return res, rc.Finish(r.Summary, r.Done, "exploration did not terminate")
}

func runSGLKind(rc *ScenarioRunContext) (*Result, error) {
	e, sc := rc.Engine, rc.Scenario
	r, err := sgl.Run(sgl.Config{
		Graph:         rc.Graph,
		Starts:        sc.Starts,
		Labels:        sc.Labels,
		Values:        sc.Values,
		Env:           e.env,
		Adversary:     rc.Adversary,
		MaxSteps:      sc.Budget,
		Context:       rc.Context,
		Observer:      e.obs,
		ForceBlocking: e.forceBlocking,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Scenario: sc, SGL: r}
	return res, rc.Finish(r.Summary, r.AllOutput, "not all agents output")
}

func runCertifyKind(rc *ScenarioRunContext) (*Result, error) {
	e, sc := rc.Engine, rc.Scenario
	if rc.routes != nil {
		// The certifier consumes the same master trajectories the
		// rendezvous agents walk, as node-route prefixes; the cached
		// routes serve both.
		ra := e.masterRoute(rc.routes, sc.Starts[0], sc.Labels[0], sc.Moves)
		rb := e.masterRoute(rc.routes, sc.Starts[1], sc.Labels[1], sc.Moves)
		r, err := core.CertifyRoutes(rc.schedOpts(), ra, rb, sc.Labels[0], sc.Labels[1])
		if err != nil {
			return nil, err
		}
		return &Result{Scenario: sc, Cert: &r}, nil
	}
	r, err := core.CertifyInstanceWith(rc.schedOpts(), rc.Graph, sc.Starts[0], sc.Starts[1],
		sc.Labels[0], sc.Labels[1], e.env, sc.Moves)
	if err != nil {
		return nil, err
	}
	return &Result{Scenario: sc, Cert: &r}, nil
}

// --- built-in outcome classifiers (the former sweepOutcome switch) ---

// fillOutcomeSummary copies the scheduler accounting every built-in
// kind reports into the sweep outcome.
func fillOutcomeSummary(o *SweepOutcome, sum Summary) {
	o.Cost = sum.TotalCost
	o.Steps = sum.Steps
	o.MaxPerAgent = sum.Account.MaxPerAgent
	o.Committed = sum.Account.Committed
}

func outcomeRendezvous(res *Result, runErr error, o *SweepOutcome) {
	r := res.Rendezvous
	if r == nil {
		return
	}
	fillOutcomeSummary(o, r.Summary)
	if r.Met && runErr == nil {
		o.Met = true
		o.Cost = r.Meeting.Cost
	}
}

func outcomeBaseline(res *Result, runErr error, o *SweepOutcome) {
	r := res.Baseline
	if r == nil {
		return
	}
	fillOutcomeSummary(o, r.Summary)
	if r.Met && runErr == nil {
		o.Met = true
		o.Cost = r.Meeting.Cost
	}
}

func outcomeESST(res *Result, runErr error, o *SweepOutcome) {
	r := res.ESST
	if r == nil {
		return
	}
	fillOutcomeSummary(o, r.Summary)
	if r.Done && runErr == nil {
		o.Met = true
		o.Cost = r.Cost
		if !r.Covered {
			o.Consistent = false
			o.Detail = "esst reported done without covering every edge"
		}
	}
}

func outcomeSGL(res *Result, runErr error, o *SweepOutcome) {
	r := res.SGL
	if r == nil {
		return
	}
	fillOutcomeSummary(o, r.Summary)
	if r.AllOutput && runErr == nil {
		o.Met = true
		o.Cost = r.TotalCost
		if detail := sglInconsistency(r); detail != "" {
			o.Consistent = false
			o.Detail = detail
		}
	}
}

func outcomeCertify(res *Result, runErr error, o *SweepOutcome) {
	r := res.Cert
	if r == nil || runErr != nil {
		return
	}
	o.Met = true
	o.Cost = r.WorstCompleted
	if r.Forced && r.WorstCommitted < r.WorstCompleted {
		o.Consistent = false
		o.Detail = "certifier committed cost below completed cost"
	}
}
