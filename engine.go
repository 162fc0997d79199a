package meetpoly

import (
	"context"
	"fmt"
	"iter"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"

	"meetpoly/internal/baseline"
	"meetpoly/internal/campaign"
	"meetpoly/internal/core"
	"meetpoly/internal/costmodel"
	"meetpoly/internal/registry"
	"meetpoly/internal/telemetry"
	"meetpoly/internal/trajectory"
	"meetpoly/internal/uxs"
)

// Catalog supplies exploration sequences per size parameter (the
// paper's R(k, v)); see internal/uxs for the contract and the provided
// implementations (family-verified compact catalogs, pseudorandom
// cubic-length formulas).
type Catalog = uxs.Catalog

// Engine executes Scenarios. Build one with NewEngine and share it: the
// engine owns a single verified exploration-sequence catalog (lock-free
// snapshot reads, so concurrent runs reuse verified sequences without
// contending) and a prepared-scenario cache that amortizes graph
// builds, coverage checks and deterministic agent routes across every
// run that shares a declarative spec (DESIGN.md §3.1). The zero value
// is not usable.
type Engine struct {
	env           *trajectory.Env
	obs           Observer
	parallelism   int
	autoExtend    bool
	forceBlocking bool
	usePrepCache  bool

	// mu guards catalog coverage checks and extensions; sequence reads
	// are internally synchronized by the catalog itself.
	mu sync.Mutex

	// The prepared-scenario cache (DESIGN.md, "preparation & caching
	// layers"): a content-addressed map from a graph fingerprint — the
	// GraphSpec struct itself (builders are deterministic functions of
	// it) plus the registered kind's builder fingerprint — to one
	// immutable built graph with its edge index pre-built, its catalog
	// coverage verdict memoized, and a route book amortizing the
	// deterministic walks of rendezvous/baseline/certify instances. A
	// 10k-cell sweep builds and coverage-checks each unique graph exactly
	// once, and derives each (start, label) trajectory once. Custom
	// registered kinds participate on the same terms; their Fingerprint
	// is how a builder that closes over configuration keys its variants.
	prepCache sync.Map // prepKey -> *preparedGraph
	// cacheStats packs the cache's hit and miss counters into one word —
	// hits in the high 32 bits, misses in the low 32 — so a preparation
	// is one atomic add and CacheStats reads a consistent (hits, misses)
	// pair with one load. Two separate counters could tear between their
	// loads: a snapshot whose sum disagrees with the preparations any
	// observer counted. 32 bits of headroom per counter bounds an engine
	// to ~4.3e9 preparations before wrap, far beyond what the campaign
	// expansion caps admit in one engine's lifetime.
	cacheStats   atomic.Uint64
	catalogEpoch atomic.Int64 // bumped on catalog extension: route books expire
	boundModel   atomic.Pointer[boundModelEpoch]

	// tele holds the engine's pre-resolved metric handles (nil without
	// WithTelemetry: the nil check is the whole disabled cost, and the
	// telemetry differential test pins reports byte-identical either
	// way). cellTrace, when set, receives serialized begin/end span
	// events per sweep cell (WithCellTrace).
	tele      *engineMetrics
	cellTrace func(CellTraceEvent)
}

// preparedGraph is one cache entry of the engine's prepared-scenario
// cache. The build (graph construction plus edge-index prebuild) and
// the catalog coverage verdict each run exactly once per fingerprint —
// as two stages, so scenario validation keeps its place between them
// and error precedence matches the uncached path. The route book is
// replaced when the catalog epoch moves (an extension changes sequence
// lengths, and with them every master trajectory).
type preparedGraph struct {
	buildOnce sync.Once
	g         *Graph
	buildErr  error

	coverOnce sync.Once
	coverErr  error

	routes atomic.Pointer[routeEpoch]
}

// routeEpoch pins a route book to the catalog epoch its trajectories
// were derived under.
type routeEpoch struct {
	epoch int64
	book  *trajectory.RouteBook
}

// build constructs the entry's graph and eagerly builds its edge index
// (every downstream consumer — meeting detection, coverage bitsets —
// wants it, and building it here keeps it off the runs' critical path).
func (pg *preparedGraph) build(spec GraphSpec) {
	g, err := spec.Build()
	if err != nil {
		pg.buildErr = err
		return
	}
	if g.M() > 0 {
		g.EdgeIndex(0, 0)
	}
	pg.g = g
}

// cover memoizes the catalog coverage verdict (including any family
// extension the engine's policy allows). The spec is only rendered
// into the failure message, inside the once, so the hot (hit) path
// never formats it.
func (pg *preparedGraph) cover(e *Engine, spec GraphSpec) error {
	pg.coverOnce.Do(func() { pg.coverErr = e.ensureCovered(pg.g, spec.String()) })
	return pg.coverErr
}

// book returns the entry's route book for the current catalog epoch,
// discarding books whose trajectories were derived under a smaller
// family.
func (pg *preparedGraph) book(e *Engine) *trajectory.RouteBook {
	epoch := e.catalogEpoch.Load()
	for {
		re := pg.routes.Load()
		if re != nil && re.epoch == epoch {
			return re.book
		}
		next := &routeEpoch{epoch: epoch, book: trajectory.NewRouteBook(pg.g)}
		if pg.routes.CompareAndSwap(re, next) {
			return next.book
		}
	}
}

// prepKey is the content address of one prepared-scenario cache entry:
// the declarative spec plus the registered kind's builder fingerprint,
// so two builder revisions that accept the same spec fields can never
// alias each other's cached graphs.
type prepKey struct {
	spec GraphSpec
	fp   string
}

// preparedFor returns the cache entry for spec, building it on first
// use. Concurrent callers for the same fingerprint share one build.
func (e *Engine) preparedFor(spec GraphSpec) *preparedGraph {
	key := prepKey{spec: spec}
	if k, ok := registry.LookupGraph(spec.Kind); ok {
		key.fp = k.Fingerprint
	}
	v, loaded := e.prepCache.Load(key)
	if !loaded {
		v, loaded = e.prepCache.LoadOrStore(key, &preparedGraph{})
	}
	if loaded {
		e.cacheStats.Add(cacheHitInc)
	} else {
		e.cacheStats.Add(cacheMissInc)
	}
	pg := v.(*preparedGraph)
	pg.buildOnce.Do(func() { pg.build(spec) })
	return pg
}

// CacheStats reports the engine's prepared-scenario cache traffic. A
// miss is a fingerprint's first preparation (graph build + coverage
// check); every other preparation of the same spec is a hit.
type CacheStats struct {
	Hits   int64
	Misses int64
}

// Increments of the packed cache-stat word: hits live in the high 32
// bits, misses in the low 32.
const (
	cacheHitInc  = uint64(1) << 32
	cacheMissInc = uint64(1)
)

// CacheStats returns a consistent snapshot of the prepared-scenario
// cache counters: both are decoded from one atomic load of the packed
// word, so Hits+Misses always equals the number of preparations that
// had completed their count at some single instant.
func (e *Engine) CacheStats() CacheStats {
	s := e.cacheStats.Load()
	return CacheStats{Hits: int64(s >> 32), Misses: int64(s & (cacheHitInc - 1))}
}

// engineConfig collects option state before construction.
type engineConfig struct {
	catalog        Catalog
	maxN           int
	seed           int64
	obs            Observer
	parallelism    int
	autoExtend     bool
	directDispatch bool
	preparedCache  bool
	metrics        *Metrics
	cellTrace      func(CellTraceEvent)
}

// Option configures NewEngine.
type Option func(*engineConfig)

// WithCatalog supplies an explicit exploration-sequence catalog,
// overriding WithMaxN/WithSeed.
func WithCatalog(cat Catalog) Option { return func(c *engineConfig) { c.catalog = cat } }

// WithMaxN sets the size ceiling of the default verified catalog's
// graph family (default 6).
func WithMaxN(n int) Option { return func(c *engineConfig) { c.maxN = n } }

// WithSeed sets the seed of the default verified catalog (default 1).
func WithSeed(seed int64) Option { return func(c *engineConfig) { c.seed = seed } }

// WithObserver attaches an execution observer. The engine serializes
// the callbacks, so one observer value may watch a whole RunBatch.
func WithObserver(obs Observer) Option { return func(c *engineConfig) { c.obs = obs } }

// WithParallelism caps the worker pool RunBatch fans out over
// (default: GOMAXPROCS).
func WithParallelism(n int) Option { return func(c *engineConfig) { c.parallelism = n } }

// WithAutoExtend controls what happens when a scenario's graph is
// outside the verified catalog's family: extend the family and
// re-verify (true, the default), or fail the run with
// ErrCatalogUncovered (false) — the right choice for engines shared by
// many concurrent workloads, where an extension invalidates cached
// sequences for everyone.
func WithAutoExtend(on bool) Option { return func(c *engineConfig) { c.autoExtend = on } }

// WithDirectDispatch selects the scheduler's execution core (DESIGN.md
// §2.2, "execution model"). On (the default), agents implementing the
// scheduler's state-machine interface are dispatched inline on the
// runner's goroutine — the zero-handoff fast path every built-in
// algorithm uses. Off forces the blocking goroutine core for every
// agent. The two cores are observationally identical (the differential
// test suite and the sweep cross-check oracle enforce it); turning the
// fast path off exists for exactly those comparisons.
func WithDirectDispatch(on bool) Option { return func(c *engineConfig) { c.directDispatch = on } }

// WithPreparedCache controls the engine's prepared-scenario cache (on
// by default): declaratively specified graphs are built, edge-indexed
// and coverage-checked once per unique GraphSpec, and the deterministic
// agent routes of rendezvous, baseline and certify scenarios are
// materialized once per (graph, start, label) and replayed thereafter.
// Cached and uncached execution are observationally identical (the
// differential sweep test enforces byte-identical reports); turning the
// cache off exists for exactly that comparison, and for engines fed
// unbounded streams of distinct specs where the cache could only grow.
func WithPreparedCache(on bool) Option { return func(c *engineConfig) { c.preparedCache = on } }

// WithBatchedExecution has no effect: every sweep cell runs through the
// same per-cell path.
//
// Deprecated: drop the option.
func WithBatchedExecution(bool) Option { return func(*engineConfig) {} }

// NewEngine builds an engine. With no options it verifies a compact
// exploration catalog on the standard graph families up to 6 nodes,
// exactly like NewEnv(6, 1).
func NewEngine(opts ...Option) *Engine {
	cfg := engineConfig{maxN: 6, seed: 1, parallelism: runtime.GOMAXPROCS(0), autoExtend: true,
		directDispatch: true, preparedCache: true}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.catalog == nil {
		cfg.catalog = uxs.NewVerified(uxs.DefaultFamily(cfg.maxN), cfg.seed)
	}
	if cfg.parallelism < 1 {
		cfg.parallelism = 1
	}
	e := &Engine{
		env:           trajectory.NewEnv(cfg.catalog),
		parallelism:   cfg.parallelism,
		autoExtend:    cfg.autoExtend,
		forceBlocking: !cfg.directDispatch,
		usePrepCache:  cfg.preparedCache,
	}
	if cfg.obs != nil {
		e.obs = &lockedObserver{inner: cfg.obs}
	}
	if cfg.metrics != nil {
		e.tele = newEngineMetrics(e, cfg.metrics)
	}
	if cfg.cellTrace != nil {
		// Serialized for the same reason observers are: one tracer value
		// watches every sweep worker.
		var mu sync.Mutex
		fn := cfg.cellTrace
		e.cellTrace = func(ev CellTraceEvent) {
			mu.Lock()
			defer mu.Unlock()
			fn(ev)
		}
	}
	return e
}

// Env returns the engine's trajectory environment, for interoperating
// with cost-model queries such as PiBound.
func (e *Engine) Env() *Env { return e.env }

// ensureCovered makes sure the catalog's integrality guarantee applies
// to g; desc names the graph in the failure (the compact GraphSpec
// string for declarative scenarios, the graph's own name for
// instances). Verified catalogs recognize structurally identical family
// members (so scenario-rebuilt graphs cost nothing); genuinely new
// graphs either extend the family or fail, per WithAutoExtend. Formula
// catalogs cover probabilistically and always pass.
func (e *Engine) ensureCovered(g *Graph, desc string) error {
	v, ok := e.env.Catalog().(*uxs.Verified)
	if !ok {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if v.Covers(g) || v.CoversEqual(g) {
		return nil
	}
	if !e.autoExtend {
		return fmt.Errorf("graph %s (n=%d, family max %d): %w",
			desc, g.N(), v.MaxN(), ErrCatalogUncovered)
	}
	v.Extend(g)
	// Extension re-verifies sequences over the grown family, which can
	// change their lengths — and with them every derived trajectory.
	// Moving the epoch expires the cached route books so no run replays
	// a route from the previous catalog state.
	e.catalogEpoch.Add(1)
	return nil
}

// Result is the outcome of one scenario execution. For the built-in
// kinds exactly one of the typed per-kind fields is non-nil, matching
// Scenario.Kind; custom registered kinds report through Custom.
type Result struct {
	Scenario   Scenario
	Rendezvous *RendezvousResult
	Baseline   *BaselineResult
	ESST       *ESSTResult
	SGL        *SGLResult
	Cert       *CertResult
	// Custom carries the result of a kind registered with
	// RegisterScenarioKind; its concrete type is whatever the kind's
	// runner chose to return.
	Custom any
}

// prepare builds, validates and catalog-covers a scenario, returning
// the resolved graph, adversary and (for cached declarative specs) the
// graph's route book. Declarative graphs go through the prepared-
// scenario cache: the build and coverage check run once per unique
// GraphSpec, and repeated preparations are two lock-free map reads.
// Pre-built GraphInstance scenarios bypass the cache — the engine
// cannot fingerprint an arbitrary caller-owned graph.
func (e *Engine) prepare(sc Scenario) (*Graph, Adversary, *trajectory.RouteBook, error) {
	if sc.GraphInstance == nil && e.usePrepCache {
		pg := e.preparedFor(sc.Graph)
		if pg.buildErr != nil {
			return nil, nil, nil, pg.buildErr
		}
		if err := sc.validateWith(pg.g); err != nil {
			return nil, nil, nil, err
		}
		if err := pg.cover(e, sc.Graph); err != nil {
			return nil, nil, nil, err
		}
		adv, err := sc.resolveAdversary()
		if err != nil {
			return nil, nil, nil, err
		}
		return pg.g, adv, pg.book(e), nil
	}
	g, err := sc.BuildGraph()
	if err != nil {
		return nil, nil, nil, err
	}
	if err := sc.validateWith(g); err != nil {
		return nil, nil, nil, err
	}
	desc := g.String()
	if sc.GraphInstance == nil {
		desc = sc.Graph.String()
	}
	if err := e.ensureCovered(g, desc); err != nil {
		return nil, nil, nil, err
	}
	adv, err := sc.resolveAdversary()
	if err != nil {
		return nil, nil, nil, err
	}
	return g, adv, nil, nil
}

// Run validates and executes one scenario. The context cancels the run
// between scheduler events (and between certifier lattice rows); the
// returned error then wraps both ErrCanceled and ctx.Err(). A run that
// consumes its whole budget before reaching its goal returns the
// partial result alongside an error wrapping ErrBudgetExhausted.
func (e *Engine) Run(ctx context.Context, sc Scenario) (*Result, error) {
	g, adv, routes, err := e.prepare(sc)
	if err != nil {
		return nil, err
	}
	return e.runPrepared(ctx, sc, g, adv, routes)
}

// runPrepared executes a scenario whose graph, validity and catalog
// coverage prepare has already resolved, by dispatching to the kind's
// registered runner. A non-nil routes book (cached declarative specs)
// makes the deterministic built-in kinds — rendezvous, baseline,
// certify — replay materialized routes instead of re-deriving their
// trajectories.
func (e *Engine) runPrepared(ctx context.Context, sc Scenario, g *Graph, adv Adversary, routes *trajectory.RouteBook) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w (%w)", sc.Name, ErrCanceled, err)
	}
	def, ok := lookupScenarioKind(sc.Kind)
	if !ok {
		// Unreachable through prepare: Validate rejects unregistered
		// kinds.
		return nil, fmt.Errorf("scenario %q: unknown kind %q: %w", sc.Name, sc.Kind, ErrInvalidScenario)
	}
	return def.Run(&ScenarioRunContext{
		Context:   ctx,
		Engine:    e,
		Scenario:  sc,
		Graph:     g,
		Adversary: adv,
		routes:    routes,
	})
}

// masterStepper returns the rendezvous master trajectory for (start,
// label): a cached route replay when the graph has a route book, a
// fresh composite stepper otherwise.
func (e *Engine) masterStepper(routes *trajectory.RouteBook, g *Graph, start int, l Label) trajectory.Stepper {
	if routes == nil {
		if e.tele != nil {
			e.tele.routeFresh.Inc()
		}
		return core.NewStepper(l, e.env)
	}
	if e.tele != nil {
		e.tele.routeReplay.Inc()
	}
	return routes.Stepper(trajectory.RouteKey{Start: start, Kind: 'R', Param: uint64(l)},
		func() trajectory.Stepper { return core.NewStepper(l, e.env) })
}

// baselineStepper is masterStepper for the exponential baseline
// trajectory (which additionally depends on the graph size — fixed per
// route book, so the same key shape works).
func (e *Engine) baselineStepper(routes *trajectory.RouteBook, g *Graph, start int, l Label) trajectory.Stepper {
	if routes == nil {
		if e.tele != nil {
			e.tele.routeFresh.Inc()
		}
		return baseline.NewStepper(e.env, g.N(), l)
	}
	if e.tele != nil {
		e.tele.routeReplay.Inc()
	}
	n := g.N()
	return routes.Stepper(trajectory.RouteKey{Start: start, Kind: 'B', Param: uint64(l)},
		func() trajectory.Stepper { return baseline.NewStepper(e.env, n, l) })
}

// masterRoute materializes the first moves of the cached master
// trajectory as a node route for the certifier.
func (e *Engine) masterRoute(routes *trajectory.RouteBook, start int, l Label, moves int) []int {
	return routes.NodeRoute(trajectory.RouteKey{Start: start, Kind: 'R', Param: uint64(l)},
		func() trajectory.Stepper { return core.NewStepper(l, e.env) }, moves)
}

// BatchResult pairs one scenario of a RunBatch with its outcome.
type BatchResult struct {
	Index    int
	Scenario Scenario
	// Graph is the built graph the run executed (nil when the build or
	// validation failed). Consumers that need graph facts — campaign
	// oracles read N and M — use it instead of rebuilding the spec.
	Graph  *Graph
	Result *Result
	Err    error
}

// RunBatch executes the scenarios concurrently over a worker pool of
// WithParallelism size and returns one BatchResult per scenario, in
// input order. All runs share the engine's verified catalog; graphs
// outside the family are resolved (extended or rejected, per
// WithAutoExtend) up front, so no extension invalidates sequences while
// other scenarios are in flight. Cancellation of ctx aborts the
// not-yet-finished runs, each reporting ErrCanceled.
func (e *Engine) RunBatch(ctx context.Context, scs []Scenario) []BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]BatchResult, len(scs))
	// Pre-flight sequentially: validation, graph builds and catalog
	// coverage happen once per scenario, before any run is in flight.
	type prepared struct {
		idx    int
		g      *Graph
		adv    Adversary
		routes *trajectory.RouteBook
	}
	runnable := make([]prepared, 0, len(scs))
	for i, sc := range scs {
		out[i] = BatchResult{Index: i, Scenario: sc}
		g, adv, routes, err := e.prepare(sc)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Graph = g
		runnable = append(runnable, prepared{idx: i, g: g, adv: adv, routes: routes})
	}
	workers := e.parallelism
	if workers > len(runnable) {
		workers = len(runnable)
	}
	if workers < 1 {
		return out
	}
	jobs := make(chan prepared)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for p := range jobs {
				res, err := e.runPrepared(ctx, scs[p.idx], p.g, p.adv, p.routes)
				out[p.idx].Result = res
				out[p.idx].Err = err
			}
		}()
	}
	for _, p := range runnable {
		jobs <- p
	}
	close(jobs)
	wg.Wait()
	return out
}

// BoundModel returns the paper's cost model bound to the concrete
// exploration-sequence lengths of the engine's catalog: the Π(n, ℓ) this
// model evaluates is the exact guarantee for scenarios this engine runs.
// Campaign oracles are parameterized by it. The model is memoized per
// catalog epoch — its internal recurrence tables amortize across every
// run and oracle of the engine's lifetime, and a catalog extension
// (which changes sequence lengths) swaps in a fresh one.
func (e *Engine) BoundModel() *costmodel.Model {
	epoch := e.catalogEpoch.Load()
	for {
		bm := e.boundModel.Load()
		if bm != nil && bm.epoch == epoch {
			return bm.m
		}
		next := &boundModelEpoch{epoch: epoch,
			m: costmodel.NewFromLengths(func(k int) int { return e.env.Catalog().P(k) })}
		if e.boundModel.CompareAndSwap(bm, next) {
			return next.m
		}
	}
}

// boundModelEpoch pins a memoized cost model to a catalog epoch.
type boundModelEpoch struct {
	epoch int64
	m     *costmodel.Model
}

// piBound returns Π(n, min(|l1|, |l2|)) for an instance, as a copy:
// the memoized model hands out its internal big.Ints by pointer, and
// the value ends up in the public Result.Bound, where a caller's
// in-place big.Int arithmetic must not corrupt the engine-wide memo.
func (e *Engine) piBound(n int, l1, l2 Label) *big.Int {
	mLen := l1.Len()
	if l := l2.Len(); l < mLen {
		mLen = l
	}
	return new(big.Int).Set(e.BoundModel().Pi(n, mLen))
}

// Sweep expands a campaign spec into scenarios, executes them over the
// engine's worker pool, checks every run against the default paper-bound
// oracle suite (termination, result consistency, Π/baseline/ESST cost
// bounds, lemma inequalities), and aggregates the results. The returned
// report is complete even when oracles fail — check Report.OK, and
// replay any failure with ReplayCell and its reported seed string.
//
// Sweep is a fold over SweepStream: it consumes the same per-cell
// results the streaming primitive yields and aggregates them
// order-independently, so the two views of a campaign can never
// disagree.
//
// The error is non-nil only for a malformed spec; per-run failures are
// data, not errors.
func (e *Engine) Sweep(ctx context.Context, spec SweepSpec) (*SweepReport, error) {
	// The default suite is resolved lazily, after the sweep's graph
	// pre-pass: a pre-pass that extends the catalog changes sequence
	// lengths, and the bound oracles must judge against the catalog
	// state the cells actually run under.
	return e.sweepReport(ctx, spec, e.defaultOracles)
}

// SweepWithOracles is Sweep with an explicit oracle suite, for callers
// that add domain-specific predicates (or inject failing ones to test
// the replay loop).
func (e *Engine) SweepWithOracles(ctx context.Context, spec SweepSpec, oracles ...SweepOracle) (*SweepReport, error) {
	return e.sweepReport(ctx, spec, func() []SweepOracle { return oracles })
}

// SweepStream executes a campaign and yields each cell's judged result
// as it completes — the streaming primitive Sweep folds over. Use it to
// consume, checkpoint, forward or abort a large campaign incrementally
// instead of holding a full SweepReport's failure list in memory:
//
//	for cr, err := range eng.SweepStream(ctx, spec) {
//		if err != nil {
//			return err // malformed spec; nothing was executed
//		}
//		if cr.Failed() {
//			log.Printf("cell %s failed: replay with %q", cr.Cell.ID, cr.Cell.Seed)
//		}
//	}
//
// Results arrive in completion order, not expansion order (cells carry
// their Index for re-ordering); an order-independent fold over the
// stream — campaign.Aggregator is one — reproduces Engine.Sweep's
// report exactly. Breaking out of the range stops the sweep: in-flight
// cells finish and are discarded, queued cells are never executed.
// Cells are judged with the default paper-bound oracle suite; use
// SweepStreamWithOracles to substitute another.
//
// The error is non-nil (and the stream ends) only for a malformed
// spec; per-cell failures are data on the SweepCellResult.
func (e *Engine) SweepStream(ctx context.Context, spec SweepSpec) iter.Seq2[SweepCellResult, error] {
	return e.sweepSeq(ctx, spec, 0, sweepToEnd, e.defaultOracles)
}

// SweepStreamWithOracles is SweepStream with an explicit oracle suite.
func (e *Engine) SweepStreamWithOracles(ctx context.Context, spec SweepSpec, oracles ...SweepOracle) iter.Seq2[SweepCellResult, error] {
	return e.sweepSeq(ctx, spec, 0, sweepToEnd, func() []SweepOracle { return oracles })
}

// SweepStreamRange is SweepStream restricted to the cells whose index
// falls in the half-open range [lo, hi) — the primitive a sharded or
// checkpoint-resuming campaign service executes its index slices with.
// A hi beyond the expansion is clamped to it.
//
// Two invariants make ranges composable back into whole campaigns:
//
//   - cell i's result is identical no matter which range executes it
//     (range expansion derives cells from keyed draws, and the graph
//     pre-pass always warms the FULL spec's graphs, so the catalog —
//     and with it every oracle bound — reaches the same state whichever
//     slice runs first);
//   - folding any partition of disjoint ranges through one
//     order-independent aggregator reproduces Engine.Sweep's report
//     byte-identically.
func (e *Engine) SweepStreamRange(ctx context.Context, spec SweepSpec, lo, hi int) iter.Seq2[SweepCellResult, error] {
	return e.sweepSeq(ctx, spec, lo, hi, e.defaultOracles)
}

// SweepStreamRangeWithOracles is SweepStreamRange with an explicit
// oracle suite.
func (e *Engine) SweepStreamRangeWithOracles(ctx context.Context, spec SweepSpec, lo, hi int, oracles ...SweepOracle) iter.Seq2[SweepCellResult, error] {
	return e.sweepSeq(ctx, spec, lo, hi, func() []SweepOracle { return oracles })
}

// sweepToEnd marks an unbounded upper range limit: sweepSeq clamps it
// to the spec's cell count.
const sweepToEnd = int(^uint(0) >> 1)

// defaultOracles builds the paper-bound suite against the engine's
// current catalog state — always called after the sweep pre-pass, so
// the bounds judge the sequence lengths the cells actually ran under.
func (e *Engine) defaultOracles() []SweepOracle {
	return campaign.DefaultOracles(e.BoundModel())
}

// sweepReport folds the streaming sweep into an aggregate report (the
// order-independent fold that makes Sweep and SweepStream agree).
func (e *Engine) sweepReport(ctx context.Context, spec SweepSpec, mkOracles func() []SweepOracle) (*SweepReport, error) {
	agg := campaign.NewAggregator(spec, nil)
	for cr, err := range e.sweepSeq(ctx, spec, 0, sweepToEnd, mkOracles) {
		if err != nil {
			return nil, err
		}
		agg.Add(cr)
	}
	return agg.Report(), nil
}

// sweepPrepass warms build + coverage for each unique graph of the
// spec, in axis order, before any run is in flight — so no catalog
// extension lands mid-sweep (the invariant RunBatch establishes with
// its sequential pre-flight). Build failures are not errors here: the
// cells of a broken axis each report Invalid, judged by the
// termination oracle.
func (e *Engine) sweepPrepass(spec SweepSpec) {
	gspecs, err := sweepGraphSpecs(spec)
	if err != nil {
		return
	}
	for _, gs := range gspecs {
		if e.usePrepCache {
			if pg := e.preparedFor(gs); pg.buildErr == nil {
				pg.cover(e, gs) //nolint:errcheck // memoized; cells report it
			}
		} else if g, err := gs.Build(); err == nil {
			e.ensureCovered(g, gs.String()) //nolint:errcheck // re-derived per cell
		}
	}
}

// sweepSeq is the streaming sweep pipeline behind Sweep, SweepStream,
// SweepStreamRange and their WithOracles variants: cells of [lo, hi)
// are expanded one at a time into a bounded channel, each worker
// prepares (through the prepared-scenario cache), executes and
// oracle-judges its cell inline, and the judged results are yielded to
// the consumer as they complete — a million-cell campaign runs in
// memory proportional to the worker pool, not the cell count. mkOracles
// runs after the graph pre-pass, so suites derived from the engine's
// catalog (the default) bind to the catalog state every cell executes
// under — and the pre-pass deliberately covers the WHOLE spec even for
// a partial range, so shards and resumed slices all judge against the
// same catalog state.
func (e *Engine) sweepSeq(ctx context.Context, spec SweepSpec, lo, hi int, mkOracles func() []SweepOracle) iter.Seq2[SweepCellResult, error] {
	return func(yield func(SweepCellResult, error) bool) {
		runCtx := ctx
		if runCtx == nil {
			runCtx = context.Background()
		}
		total, err := CountSweep(spec)
		if err != nil {
			yield(SweepCellResult{}, err)
			return
		}
		if lo < 0 || hi < lo {
			yield(SweepCellResult{}, fmt.Errorf("sweep: invalid cell range [%d, %d): %w", lo, hi, ErrInvalidScenario))
			return
		}
		if hi > total {
			hi = total
		}
		if lo > total {
			lo = total
		}
		e.sweepPrepass(spec)
		oracles := mkOracles()
		workers := e.parallelism
		if workers > hi-lo {
			workers = hi - lo
		}
		if workers < 1 {
			workers = 1
		}
		// stop tears the pipeline down when the consumer breaks out of
		// the range early: the producer quits, and workers abandon
		// results nobody will read.
		stop := make(chan struct{})
		defer close(stop)
		// Two slots per worker on each side keep workers busy while the
		// producer expands and the consumer drains, with memory still
		// proportional to the pool.
		workCh := make(chan SweepCell, 2*workers)
		resCh := make(chan SweepCellResult, 2*workers)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for cell := range workCh {
					cr := e.runCell(runCtx, cell, oracles)
					select {
					case resCh <- cr:
					case <-stop:
						return
					}
				}
			}()
		}
		go func() {
			defer close(workCh)
			// The walk only fails on validation errors, which CountSweep
			// and the range check ruled out above.
			WalkSweepRange(spec, lo, hi, func(c SweepCell) bool { //nolint:errcheck // validated above
				select {
				case workCh <- c:
					return true
				case <-stop:
					return false
				}
			})
		}()
		go func() {
			wg.Wait()
			close(resCh)
		}()
		for cr := range resCh {
			if !yield(cr, nil) {
				return
			}
		}
	}
}

// runCell prepares, executes and oracle-judges one sweep cell — the
// worker body of the streaming pipeline, and exactly the sequence
// ReplayCell performs for one seed string.
func (e *Engine) runCell(ctx context.Context, cell SweepCell, oracles []SweepOracle) SweepCellResult {
	// Telemetry brackets the cell (wall-time histogram, begin/end trace
	// spans); the timestamps live on the telemetry clock and annotate
	// the run without ever entering its result.
	var start int64
	if e.tele != nil || e.cellTrace != nil {
		start = telemetry.Now()
	}
	if e.cellTrace != nil {
		e.cellTrace(CellTraceEvent{Phase: "begin", Index: cell.Index, ID: cell.ID,
			Seed: cell.Seed, Kind: cell.Kind, Graph: cellGraphSpec(cell).String(), AtNs: start})
	}
	sc := CellScenario(cell)
	br := BatchResult{Index: cell.Index, Scenario: sc}
	g, adv, routes, err := e.prepare(sc)
	if err != nil {
		br.Err = err
	} else {
		br.Graph = g
		br.Result, br.Err = e.runPrepared(ctx, sc, g, adv, routes)
	}
	cr := e.judge(cell, br, oracles)
	if e.tele != nil {
		e.tele.cellWall.ObserveSince(start)
	}
	if e.cellTrace != nil {
		e.cellTrace(CellTraceEvent{Phase: "end", Index: cell.Index, ID: cell.ID,
			Seed: cell.Seed, Kind: cell.Kind, Graph: cellGraphSpec(cell).String(),
			AtNs: telemetry.Now(), WallNs: telemetry.Since(start),
			Met: cr.Outcome.Met, Failed: len(cr.Failures) > 0})
	}
	return cr
}

// judge classifies one batch result and runs the oracle suite over it.
func (e *Engine) judge(cell SweepCell, br BatchResult, oracles []SweepOracle) SweepCellResult {
	out := sweepOutcome(cell, br)
	cr := SweepCellResult{Cell: cell, Outcome: out}
	for _, o := range oracles {
		if err := o.Check(cell, out); err != nil {
			cr.Failures = append(cr.Failures, campaign.OracleFailure{Oracle: o.Name(), Err: err.Error()})
		}
	}
	if e.tele != nil {
		e.tele.observeJudge(cell, cr)
	}
	return cr
}

// ReplayCell re-derives the single cell a replay seed string identifies
// (spec must be the campaign it came from), executes it, and re-checks
// the default oracle suite — the one-seed-string reproduction loop for
// sweep failures. Use ReplayCellWithOracles to reproduce a failure of a
// custom suite.
func (e *Engine) ReplayCell(ctx context.Context, spec SweepSpec, seed string) (*SweepCellResult, error) {
	// Like Sweep, the default suite binds after the run's preparation:
	// replaying a cell whose graph extends the catalog must judge
	// against the post-extension sequence lengths the run used.
	return e.replayCell(ctx, spec, seed, e.defaultOracles)
}

// ReplayCellWithOracles is ReplayCell with an explicit oracle suite.
func (e *Engine) ReplayCellWithOracles(ctx context.Context, spec SweepSpec, seed string, oracles ...SweepOracle) (*SweepCellResult, error) {
	return e.replayCell(ctx, spec, seed, func() []SweepOracle { return oracles })
}

func (e *Engine) replayCell(ctx context.Context, spec SweepSpec, seed string, mkOracles func() []SweepOracle) (*SweepCellResult, error) {
	cell, err := campaign.Replay(spec, seed)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrInvalidScenario)
	}
	sc := CellScenario(cell)
	res, runErr := e.Run(ctx, sc)
	cr := e.judge(cell, BatchResult{Index: cell.Index, Scenario: sc, Result: res, Err: runErr}, mkOracles())
	return &cr, nil
}
