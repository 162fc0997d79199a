package meetpoly

import (
	"context"
	"fmt"
	"math/big"
	"sync"

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
	return sched.RunOpts{Ctx: rc.Context, Observer: rc.Engine.obs}
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
		Outcome:  outcomeWalkers,
	})
	mustRegisterKind(ScenarioKindDef{
		Kind: ScenarioBaseline, Labeled: true, UsesAdversary: true, UsesBudget: true,
		Validate: validateTwoAgentBudgeted,
		Run:      runBaselineKind,
		Outcome:  outcomeWalkers,
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
	sc := rc.Scenario
	r, err := rc.runWalkers('R', rc.Engine.piBound(rc.Graph.N(), sc.Labels[0], sc.Labels[1]))
	if err != nil {
		return nil, err
	}
	return &Result{Scenario: sc, Rendezvous: r}, rc.Finish(r.Summary, r.Met, "no meeting")
}

func runBaselineKind(rc *ScenarioRunContext) (*Result, error) {
	e, n, sc := rc.Engine, rc.Graph.N(), rc.Scenario
	// A fresh sum: Result.Bound is public, and the addends are memoized.
	r, err := rc.runWalkers('B', new(big.Int).Add(e.baselineBound(n, sc.Labels[0]), e.baselineBound(n, sc.Labels[1])))
	if err != nil {
		return nil, err
	}
	return &Result{Scenario: sc, Baseline: r}, rc.Finish(r.Summary, r.Met, "no meeting")
}

// runWalkers runs the scenario's two agents through core.Rendezvous on
// the trajectories of the given route kind ('R' master, 'B' baseline),
// reporting bound as the instance's guarantee. A run the engine can
// decide is answered in closed form instead (decide).
func (rc *ScenarioRunContext) runWalkers(kind byte, bound *big.Int) (*core.Result, error) {
	if r, ok, err := rc.decide(kind, bound); ok {
		return r, err
	}
	return rc.walk(kind, bound, rc.Adversary, rc.Scenario.Budget)
}

// walk simulates the scenario's walkers under adv for budget events.
func (rc *ScenarioRunContext) walk(kind byte, bound *big.Int, adv Adversary, budget int) (*core.Result, error) {
	e, sc, n := rc.Engine, rc.Scenario, rc.Graph.N()
	s1 := e.routeStepper(rc.routes, n, kind, sc.Starts[0], sc.Labels[0])
	s2 := e.routeStepper(rc.routes, n, kind, sc.Starts[1], sc.Labels[1])
	return core.Rendezvous(rc.schedOpts(), rc.Graph, sc.Starts[0], sc.Starts[1], sc.Labels[0], sc.Labels[1],
		s1, s2, bound, adv, budget)
}

// decide answers a walker run whose every event is provably a
// contact-free alternation (DESIGN.md §2.2, "Decided symmetric cells"
// and "Decided periodic cells"). The run must pass decidable. Two
// proofs qualify it:
//   - symmetric: its starts are related by a clean automorphism σ and
//     its budget is at most 4D. This proof simulates nothing and
//     reaches furthest, so it runs first.
//   - 4L < budget ≤ 4H and its first period of 4L events is a
//     contact-free alternation (decidePeriodic).
//
// A decided run is sched.Alternation's closed form, with the
// adversary's rotation left where the simulation would leave it. ok
// reports that r and err are the run's outcome; every other run is
// simulated.
func (rc *ScenarioRunContext) decide(kind byte, bound *big.Int) (r *core.Result, ok bool, err error) {
	if !rc.decidable() {
		return nil, false, nil
	}
	if rc.symmetric(kind) {
		return &core.Result{Summary: rc.decided(rc.Scenario.Budget, nil), Bound: bound}, true, nil
	}
	return rc.decidePeriodic(kind, bound)
}

// decidable reports whether a run may be answered in closed form at
// all: it replays a route book and runs under a round-robin or avoider
// instance, with no observer and a live context.
func (rc *ScenarioRunContext) decidable() bool {
	return rc.routes != nil && rc.Engine.obs == nil && rc.Context.Err() == nil && sched.Alternates(rc.Adversary)
}

// symmetric reports whether the run has exactly two agents, walking
// route kind's trajectories from starts related by a clean automorphism
// σ, with a budget of at most 4D. The agents then emit the same ports
// for their first D traversals, stay σ-images of each other and never
// touch, so every event of the run is a contact-free alternation.
func (rc *ScenarioRunContext) symmetric(kind byte) bool {
	sc := rc.Scenario
	return len(sc.Starts) == 2 && rc.Graph.CleanSymmetric(sc.Starts[0], sc.Starts[1]) &&
		rc.Engine.withinHorizon(kind, rc.Graph.N(), sc.Labels[0], sc.Labels[1], sc.Budget)
}

// decided returns a decided run's summary, sched.Alternation from the
// adversary's rotation (trav as its Traversals buffer), and counts the
// run and its events unsimulated.
func (rc *ScenarioRunContext) decided(unsimulated int, trav []int) Summary {
	if e := rc.Engine; e.tele != nil {
		e.tele.observeDecided(rc.Scenario.Kind, unsimulated)
	}
	return sched.Alternation(rc.Adversary, rc.Scenario.Budget, trav)
}

// decidePeriodic decides a run whose budget B has 4L < B ≤ 4H by
// simulating its first period of 4L events. Each agent opens by
// repeating a closed walk of L moves from its own start, a fresh
// stepper each time, until traversal H (Engine.opening). Under
// alternation each agent makes 2L half-steps per 4L events, so at event
// 4L the positions, route phases and rotation are those at event 0, and
// a contact-free first period is contact-free up to 4H. The avoider
// never meets a contact to dodge there, so it alternates exactly as
// round-robin does. The first period runs under the run's own
// adversary:
//   - a meeting at event s ≤ 4L < B, a run that ended early and a
//     canceled run are the whole run's outcome;
//   - an unmet round-robin period decides the run;
//   - an unmet avoider period may hold dodges, so a round-robin from the
//     same rotation confirms it for 4L events. If that one meets, the
//     avoider's rotation is set back and the whole run is simulated.
//
// Decided runs count their B − 4L unsimulated events.
func (rc *ScenarioRunContext) decidePeriodic(kind byte, bound *big.Int) (*core.Result, bool, error) {
	sc := rc.Scenario
	fourL, fourH := rc.Engine.opening(kind, rc.Graph.N(), sc.Labels[0], sc.Labels[1])
	if sc.Budget <= fourL || sc.Budget > fourH {
		return nil, false, nil
	}
	rot := sched.Rotation(rc.Adversary)
	start := *rot
	r, err := rc.walk(kind, bound, rc.Adversary, fourL)
	if err != nil {
		return nil, true, err
	}
	if r.Met || !r.Summary.Exhausted {
		r.Summary.Exhausted = false // it stopped by event 4L < B, even meeting at 4L
		return r, true, nil
	}
	if _, avoider := rc.Adversary.(*sched.Avoider); avoider {
		rr := &sched.RoundRobin{}
		*sched.Rotation(rr) = start
		check, err := rc.walk(kind, bound, rr, fourL)
		if err != nil {
			return nil, true, err
		}
		if !check.Summary.Exhausted || check.Met {
			*rot = start
			return nil, false, nil
		}
	}
	*rot = start
	r.Summary = rc.decided(sc.Budget-fourL, r.Summary.Traversals)
	return r, true, nil
}

func runESSTKind(rc *ScenarioRunContext) (*Result, error) {
	e, sc := rc.Engine, rc.Scenario
	r, err := esst.Explore(rc.schedOpts(), rc.Graph, sc.Starts[0], sc.Starts[1],
		e.env.Catalog(), rc.Adversary, sc.Budget)
	if err != nil {
		return nil, err
	}
	res := &Result{Scenario: sc, ESST: r}
	return res, rc.Finish(r.Summary, r.Done, "exploration did not terminate")
}

// runSGLKind runs Algorithm SGL. Every agent starts as a traveller that
// walks its master trajectory and decides nothing else before its first
// meeting, so two travellers are walkers until they meet: a
// clean-symmetric pair is decided exactly like a rendezvous run
// (DESIGN.md §2.2), and every traveller replays its 'R' route.
func runSGLKind(rc *ScenarioRunContext) (*Result, error) {
	e, sc, n := rc.Engine, rc.Scenario, rc.Graph.N()
	if rc.decidable() && rc.symmetric('R') {
		sum := rc.decided(sc.Budget, nil)
		return &Result{Scenario: sc, SGL: sgl.Unmet(sc.Labels, sum)}, rc.Finish(sum, false, "not all agents output")
	}
	r, err := sgl.Run(sgl.Config{
		Graph:     rc.Graph,
		Starts:    sc.Starts,
		Labels:    sc.Labels,
		Values:    sc.Values,
		Env:       e.env,
		Adversary: rc.Adversary,
		MaxSteps:  sc.Budget,
		Context:   rc.Context,
		Observer:  e.obs,
		Trajectory: func(i int) trajectory.Stepper {
			return e.routeStepper(rc.routes, n, 'R', sc.Starts[i], sc.Labels[i])
		},
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Scenario: sc, SGL: r}
	return res, rc.Finish(r.Summary, r.AllOutput, "not all agents output")
}

func runCertifyKind(rc *ScenarioRunContext) (*Result, error) {
	e, sc := rc.Engine, rc.Scenario
	// The certifier consumes the same master trajectories the
	// rendezvous agents walk, as node-route prefixes.
	r, err := sched.CertifyCtx(rc.Context,
		e.masterRoute(rc.routes, rc.Graph, sc.Starts[0], sc.Labels[0], sc.Moves),
		e.masterRoute(rc.routes, rc.Graph, sc.Starts[1], sc.Labels[1], sc.Moves))
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

// outcomeWalkers classifies the walker-pair kinds (rendezvous and
// baseline), whichever of the two results the run filled.
func outcomeWalkers(res *Result, runErr error, o *SweepOutcome) {
	r := res.Rendezvous
	if r == nil {
		r = res.Baseline
	}
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
