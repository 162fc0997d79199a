package meetpoly

import (
	"sync"

	"meetpoly/internal/telemetry"
)

// Metrics is the named-metric registry the engine (and the layers above
// it — serve, coord, client) records into: lock-free counters, gauges
// and power-of-two-bucket histograms with a zero-allocation record
// path, immutable snapshots, and a Prometheus text-exposition encoder
// (DESIGN.md §7). It is aliased from internal/telemetry the same way
// View and Observer are aliased from internal/sched, so callers hold
// real handles without importing internal packages.
type Metrics = telemetry.Registry

// NewMetrics returns an empty metrics registry, ready to be shared by
// an engine (WithTelemetry) and any service layers scraping it.
func NewMetrics() *Metrics { return telemetry.NewRegistry() }

// WithTelemetry attaches a metrics registry to the engine. The engine
// then records its prepared-cache traffic, route replays, per-cell wall
// times and oracle verdicts into it — and nothing else changes:
// telemetry never feeds a result, and the differential test suite pins
// sweep reports byte-identical with and without it.
func WithTelemetry(m *Metrics) Option {
	return func(c *engineConfig) { c.metrics = m }
}

// CellTraceEvent is one span edge of the sweep tracer: a begin event
// when a worker picks a cell up, an end event when its judged result
// is ready. Timestamps are on the telemetry clock (monotonic
// nanoseconds since process start); they annotate the run, they never
// enter it.
type CellTraceEvent struct {
	Phase  string `json:"phase"` // "begin" or "end"
	Index  int    `json:"index"`
	ID     string `json:"id"`
	Seed   string `json:"seed,omitempty"`
	Kind   string `json:"kind"`
	Graph  string `json:"graph"`
	AtNs   int64  `json:"at_ns"`
	WallNs int64  `json:"wall_ns,omitempty"` // end events only
	Met    bool   `json:"met,omitempty"`     // end events only
	Failed bool   `json:"failed,omitempty"`  // end events only: any oracle failure
}

// WithCellTrace attaches a span-style sweep tracer: fn receives a
// begin and an end CellTraceEvent for every executed cell (`rvsweep
// -trace` writes them as NDJSON). The engine serializes the callbacks,
// so fn needs no locking of its own. Spans bracket the same per-cell
// execution every sweep runs, traced or not.
func WithCellTrace(fn func(CellTraceEvent)) Option {
	return func(c *engineConfig) { c.cellTrace = fn }
}

// engineMetrics holds the engine's pre-resolved metric handles. Handle
// lookup pays a registry mutex, so it happens once here (or once per
// dynamic label value, memoized through the label caches below); the
// per-cell record path touches only lock-free handles.
type engineMetrics struct {
	reg *Metrics

	cellWall    *telemetry.Histogram // per-cell wall time
	routeReplay *telemetry.Counter   // steppers served from a route book
	routeFresh  *telemetry.Counter   // steppers derived without a route book

	verdicts [5]*telemetry.Counter // indexed by verdict class below

	decidedR, decidedB, decidedS *telemetry.Counter // decided runs, by kind
	decidedEvents                *telemetry.Counter // the events they did not simulate

	byKind   labelCache // kind  -> cells counter
	byOracle labelCache // oracle -> failure counter
}

// Verdict classes of meetpoly_engine_cell_verdicts_total.
const (
	verdictMet = iota
	verdictExhausted
	verdictCanceled
	verdictInvalid
	verdictOther
)

func newEngineMetrics(e *Engine, reg *Metrics) *engineMetrics {
	m := &engineMetrics{reg: reg}

	// The cache counters read the engine's packed atomic word at
	// snapshot time instead of double-counting here — /metrics and
	// CacheStats (hence /v1/stats) decode the same source and can
	// never drift.
	reg.CounterFunc("meetpoly_engine_cache_hits_total",
		"Prepared-scenario cache hits (repeat preparations of a known graph fingerprint).",
		func() uint64 { return uint64(e.CacheStats().Hits) })
	reg.CounterFunc("meetpoly_engine_cache_misses_total",
		"Prepared-scenario cache misses (first preparation: graph build + coverage check).",
		func() uint64 { return uint64(e.CacheStats().Misses) })
	reg.GaugeFunc("meetpoly_engine_catalog_epoch",
		"Catalog extension epoch; a bump expires every cached route book.",
		e.catalogEpoch.Load)
	reg.GaugeFunc("meetpoly_engine_route_bytes",
		"Bytes of materialized routes (4 per move) held by the current epoch's route books.",
		e.routeBytes)

	m.cellWall = reg.Histogram("meetpoly_engine_cell_wall_ns",
		"Wall time of one sweep cell (prepare + run + judging), in nanoseconds.")
	m.routeReplay = reg.Counter("meetpoly_engine_route_replays_total",
		"Deterministic trajectories served through a cached route book.")
	m.routeFresh = reg.Counter("meetpoly_engine_route_fresh_total",
		"Deterministic trajectories derived without a route book (GraphInstance scenarios).")

	for i, v := range [...]string{"met", "exhausted", "canceled", "invalid", "other"} {
		m.verdicts[i] = reg.Counter("meetpoly_engine_cell_verdicts_total",
			"Judged sweep cells by outcome class.", telemetry.L("verdict", v))
	}

	decided := func(kind ScenarioKind) *telemetry.Counter {
		return reg.Counter("meetpoly_engine_cells_decided_total",
			"Runs answered in closed form, by scenario kind: rendezvous, baseline and two-traveller SGL runs on clean-symmetric starts within 4D, and rendezvous and baseline runs with a contact-free first period within 4H.",
			telemetry.L("kind", string(kind)))
	}
	m.decidedR, m.decidedB, m.decidedS = decided(ScenarioRendezvous), decided(ScenarioBaseline), decided(ScenarioSGL)
	m.decidedEvents = reg.Counter("meetpoly_engine_events_decided_total",
		"Adversary events the runs answered in closed form count in Steps without simulating: a symmetric run's whole budget, a periodic run's budget less its first period.")

	m.byKind.init(func(kind string) any {
		return reg.Counter("meetpoly_engine_cells_total",
			"Sweep cells judged, by scenario kind.", telemetry.L("kind", kind))
	})
	m.byOracle.init(func(oracle string) any {
		return reg.Counter("meetpoly_engine_oracle_failures_total",
			"Oracle verdict failures, by oracle.", telemetry.L("oracle", oracle))
	})
	return m
}

// observeJudge records one judged cell: kind and verdict tallies and
// per-oracle failures.
func (m *engineMetrics) observeJudge(cell SweepCell, cr SweepCellResult) {
	m.byKind.get(cell.Kind).(*telemetry.Counter).Inc()
	out := cr.Outcome
	switch {
	case out.Met:
		m.verdicts[verdictMet].Inc()
	case out.Exhausted:
		m.verdicts[verdictExhausted].Inc()
	case out.Canceled:
		m.verdicts[verdictCanceled].Inc()
	case out.Invalid:
		m.verdicts[verdictInvalid].Inc()
	default:
		m.verdicts[verdictOther].Inc()
	}
	for _, f := range cr.Failures {
		m.byOracle.get(f.Oracle).(*telemetry.Counter).Inc()
	}
}

// observeDecided records one decided run of a rendezvous, baseline or
// SGL scenario and the events it did not simulate.
func (m *engineMetrics) observeDecided(kind ScenarioKind, events int) {
	switch kind {
	case ScenarioBaseline:
		m.decidedB.Inc()
	case ScenarioSGL:
		m.decidedS.Inc()
	default:
		m.decidedR.Inc()
	}
	m.decidedEvents.Add(uint64(events))
}

// labelCache memoizes per-label-value metric handles, so recording
// against a dynamic label (a scenario kind, an oracle name) pays the
// registry mutex once per distinct value, then two lock-free map reads.
type labelCache struct {
	mk func(string) any
	m  sync.Map
}

func (c *labelCache) init(mk func(string) any) { c.mk = mk }

func (c *labelCache) get(key string) any {
	if v, ok := c.m.Load(key); ok {
		return v
	}
	// The registry dedups series, so a racing LoadOrStore loser made
	// the same handle the winner stored.
	v, _ := c.m.LoadOrStore(key, c.mk(key))
	return v
}
