package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"meetpoly"
	"meetpoly/internal/buildinfo"
	"meetpoly/internal/campaign"
	"meetpoly/internal/faultinject"
	"meetpoly/internal/telemetry"
)

// Config configures a sweep service instance.
type Config struct {
	// Engine executes every campaign. Many tenants multiplex over this
	// one engine: its prepared-scenario cache and worker pool are shared
	// state, which is safe because preparation is keyed on content and
	// execution is pure.
	Engine *meetpoly.Engine

	// CheckpointRoot is the directory under which per-campaign
	// checkpoints live (root/<campaign key>). Empty disables
	// checkpointing: every request recomputes.
	CheckpointRoot string

	// FlushEvery is the checkpoint flush interval in completed cells
	// (DefaultFlushEvery when <= 0).
	FlushEvery int

	// MaxCells rejects campaigns whose expansion exceeds it with 413
	// (0 = unlimited). This is the admission-control half of the budget
	// story; the duration half is RequestTimeout.
	MaxCells int

	// MaxTenantSweeps caps in-flight sweeps per tenant (X-Tenant header,
	// "default" when absent); excess requests get 429. <= 0 means
	// DefaultMaxTenantSweeps.
	MaxTenantSweeps int

	// RequestTimeout bounds each sweep's wall clock (0 = unbounded). A
	// request may tighten it further with ?budget_ms=. Either way the
	// budget maps onto context cancellation: expired runs surface
	// canceled cells, and canceled cells are never checkpointed, so a
	// re-request resumes and finishes the remainder.
	RequestTimeout time.Duration

	// Faults threads the chaos harness through the service (rvserved
	// -chaos): checkpoint write/fsync faults and worker kills via
	// RunShard, stream resets after the scheduled NDJSON line, delayed
	// responses and 503 bursts at the request boundary. Nil injects
	// nothing.
	Faults *faultinject.Injector

	// Metrics is the registry the service records into and GET /metrics
	// renders: request counts and latencies, stream lines, refusals by
	// status, checkpoint flush/fsync cost, and — because /v1/stats reads
	// the same handles — the served/inflight counters. Share it with
	// the engine (meetpoly.WithTelemetry) so one exposition covers both
	// layers. Nil gets a private registry: /metrics and /v1/stats work
	// either way.
	Metrics *meetpoly.Metrics

	// Log receives the service's structured log records (admissions
	// refused, sweeps completed, drain progress). Nil discards them.
	Log *slog.Logger

	// Pprof mounts net/http/pprof's profiling endpoints under
	// /debug/pprof/ (rvserved -pprof). Off by default: profiling
	// endpoints expose stacks and heap contents, so enabling them is an
	// explicit operator decision.
	Pprof bool
}

// DefaultRetryAfter is the hint sent in the Retry-After header of
// every 429 (tenant over quota) and 503 (draining, chaos-unavailable)
// response, so backoff-aware clients wait what the server asks instead
// of guessing.
const DefaultRetryAfter = time.Second

// DefaultMaxTenantSweeps is the per-tenant in-flight cap when
// Config.MaxTenantSweeps is unset.
const DefaultMaxTenantSweeps = 4

// Server is the HTTP face of the sweep service. Zero value is not
// usable; construct with New.
type Server struct {
	cfg Config

	drainCtx    context.Context
	startDrain  context.CancelFunc
	inflight    sync.WaitGroup
	mu          sync.Mutex
	draining    bool
	tenants     map[string]int  // tenant -> in-flight sweeps
	runningDirs map[string]bool // checkpoint keys with a live run

	// The served/inflight tallies live in telemetry handles, not fields:
	// /v1/stats and /metrics read the same counters, so the two views
	// cannot drift (DESIGN.md §7).
	reg *meetpoly.Metrics
	m   *serveMetrics
	log *slog.Logger
}

// New builds a Server over cfg, applying defaults.
func New(cfg Config) *Server {
	if cfg.MaxTenantSweeps <= 0 {
		cfg.MaxTenantSweeps = DefaultMaxTenantSweeps
	}
	if cfg.Metrics == nil {
		cfg.Metrics = meetpoly.NewMetrics()
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.DiscardHandler)
	}
	drainCtx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:         cfg,
		drainCtx:    drainCtx,
		startDrain:  cancel,
		tenants:     make(map[string]int),
		runningDirs: make(map[string]bool),
		reg:         cfg.Metrics,
		m:           newServeMetrics(cfg.Metrics),
		log:         cfg.Log,
	}
}

// Handler returns the service's route table:
//
//	POST /v1/sweep        — stream the campaign's cell results as NDJSON
//	POST /v1/sweep/report — run the campaign, respond with the report JSON
//	GET  /healthz         — 200 ok (with the build version), 503 once draining
//	GET  /v1/stats        — service counters and engine cache stats
//	GET  /metrics         — the registry in Prometheus text exposition
//	GET  /debug/pprof/*   — net/http/pprof, only with Config.Pprof
//
// Both sweep endpoints take a SweepSpec JSON body and accept
// ?budget_ms= to bound the run (see Config.RequestTimeout) and
// ?ranges=lo-hi[,lo-hi...] to execute only those absolute cell index
// intervals — the resume primitive a reconnecting client requests its
// gap set with, and the way to split a campaign across instances.
//
// With a fault injector configured, requests pass its schedule first:
// delayed responses and 503 bursts land here, stream resets inside
// handleSweep.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sweep", func(w http.ResponseWriter, r *http.Request) { s.handleSweep(w, r, true) })
	mux.HandleFunc("/v1/sweep/report", func(w http.ResponseWriter, r *http.Request) { s.handleSweep(w, r, false) })
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if s.cfg.Pprof {
		// Mounted explicitly rather than by importing net/http/pprof for
		// side effect: the side-effect registration lands on
		// http.DefaultServeMux, which this server does not use.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	if s.cfg.Faults == nil {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		delay, unavailable := s.cfg.Faults.OnRequest()
		if delay > 0 {
			time.Sleep(delay)
		}
		if unavailable {
			s.refuse(w, "chaos: injected unavailability", http.StatusServiceUnavailable)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// refuse writes a load-shedding refusal (429/503) with the Retry-After
// hint, so a backoff-aware client waits what the server asks.
func (s *Server) refuse(w http.ResponseWriter, msg string, code int) {
	s.m.refused(code)
	s.log.Warn("request refused", "code", code, "reason", msg)
	w.Header().Set("Retry-After", strconv.Itoa(int(DefaultRetryAfter/time.Second)))
	http.Error(w, msg, code)
}

// Drain makes the server refuse new sweeps, cancels the ones in flight
// (their checkpoints flush everything completed so far, so a restarted
// instance resumes rather than recomputes), and waits for them to
// finish or ctx to expire.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.log.Info("draining", "inflight", s.m.inflight.Value())
	s.startDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		s.refuse(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// The build identity rides on the health line (and on /metrics as
	// the build-info gauge), so a fleet's versions are one probe away.
	fmt.Fprintf(w, "ok %s %s\n", buildinfo.Version, buildinfo.Revision())
}

// handleMetrics renders the registry in Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w) //nolint:errcheck // a failed scrape write has no recovery
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	// served/inflight read the same telemetry handles /metrics renders,
	// and the cache numbers decode the engine's packed counter word both
	// views report — the stats blob is a projection of the telemetry
	// snapshot, never a parallel tally that could drift from it.
	st := struct {
		Draining bool                `json:"draining"`
		Served   int64               `json:"served"`
		Inflight int                 `json:"inflight"`
		Cache    meetpoly.CacheStats `json:"cache"`
	}{draining, int64(s.m.served.Value()), int(s.m.inflight.Value()), s.cfg.Engine.CacheStats()}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// admit performs admission control for one sweep request: drain check,
// per-tenant quota, and the one-live-run-per-checkpoint-dir lock. It
// returns the release func, or writes the refusal and returns nil.
func (s *Server) admit(w http.ResponseWriter, tenant, key string) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.draining:
		s.refuse(w, "draining", http.StatusServiceUnavailable)
		return nil
	case s.tenants[tenant] >= s.cfg.MaxTenantSweeps:
		s.refuse(w, fmt.Sprintf("tenant %q at in-flight limit %d", tenant, s.cfg.MaxTenantSweeps), http.StatusTooManyRequests)
		return nil
	case key != "" && s.runningDirs[key]:
		// Two concurrent runs over one checkpoint dir would interleave
		// appends; the second caller retries after the first finishes.
		s.m.refused(http.StatusConflict)
		s.log.Warn("campaign already running", "tenant", tenant, "campaign", key)
		http.Error(w, fmt.Sprintf("campaign %s already running on this instance", key), http.StatusConflict)
		return nil
	}
	s.tenants[tenant]++
	if key != "" {
		s.runningDirs[key] = true
	}
	s.inflight.Add(1)
	s.m.inflight.Add(1)
	return func() {
		s.mu.Lock()
		s.tenants[tenant]--
		if s.tenants[tenant] == 0 {
			delete(s.tenants, tenant)
		}
		if key != "" {
			delete(s.runningDirs, key)
		}
		s.mu.Unlock()
		s.m.inflight.Add(-1)
		s.m.served.Inc()
		s.inflight.Done()
	}
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request, stream bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a SweepSpec JSON body", http.StatusMethodNotAllowed)
		return
	}
	reqStart := telemetry.Now()
	if stream {
		s.m.sweepReqs.Inc()
		defer s.m.sweepNs.ObserveSince(reqStart)
	} else {
		s.m.reportReqs.Inc()
		defer s.m.reportNs.ObserveSince(reqStart)
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	spec, err := meetpoly.SweepSpecFromJSON(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	total, err := meetpoly.CountSweep(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if s.cfg.MaxCells > 0 && total > s.cfg.MaxCells {
		s.m.refused(http.StatusRequestEntityTooLarge)
		s.log.Warn("campaign over cell limit", "cells", total, "limit", s.cfg.MaxCells)
		http.Error(w, fmt.Sprintf("campaign expands to %d cells, limit %d", total, s.cfg.MaxCells), http.StatusRequestEntityTooLarge)
		return
	}

	ranges, err := parseRanges(r.URL.Query().Get("ranges"), total)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	budget := s.cfg.RequestTimeout
	if ms := r.URL.Query().Get("budget_ms"); ms != "" {
		d, err := strconv.Atoi(ms)
		if err != nil || d <= 0 {
			http.Error(w, "budget_ms must be a positive integer", http.StatusBadRequest)
			return
		}
		if req := time.Duration(d) * time.Millisecond; budget == 0 || req < budget {
			budget = req
		}
	}

	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	dir, key := s.checkpointDir(spec)
	release := s.admit(w, tenant, key)
	if release == nil {
		return
	}
	defer release()

	// The request budget is context cancellation all the way down: the
	// client's disconnect, the server's timeout, the request's own
	// ?budget_ms= and a drain all cancel the same ctx, and the engine
	// already turns cancellation into canceled cell outcomes.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stopAfter := context.AfterFunc(s.drainCtx, cancel)
	defer stopAfter()
	if budget > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, budget)
		defer tcancel()
	}

	cfg := ShardConfig{
		Engine: s.cfg.Engine, Spec: spec,
		Ranges: ranges,
		Dir:    dir, FlushEvery: s.cfg.FlushEvery,
		Faults:  s.cfg.Faults,
		Metrics: s.reg,
	}
	log := s.log.With("tenant", tenant, "campaign", spec.Name)
	log.Debug("sweep admitted", "cells", total, "stream", stream)

	if !stream {
		rep, err := RunShard(ctx, cfg, func(meetpoly.SweepCellResult) bool { return true })
		if err != nil {
			log.Error("sweep failed", "err", err)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		// Byte-for-byte the `rvsweep -json` encoding, so a served report
		// diffs clean against a local run of the same campaign.
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(out, '\n'))
		log.Info("sweep served", "cells", rep.Cells, "failures", rep.Fail)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	wrote := false
	rep, err := RunShard(ctx, cfg, func(cr meetpoly.SweepCellResult) bool {
		if err := enc.Encode(cr); err != nil {
			return false // client went away; RunShard returns ErrStopped
		}
		wrote = true
		s.m.streamLines.Inc()
		if flusher != nil {
			flusher.Flush()
		}
		if s.cfg.Faults.OnStreamLine() {
			// The scheduled mid-NDJSON connection cut: ErrAbortHandler
			// aborts the connection without a response trailer, exactly
			// what a network partition looks like to the client. The
			// panic unwinds through RunShard, so the checkpoint's
			// deferred Close still flushes — a reset loses the
			// connection, never durable server state.
			panic(http.ErrAbortHandler)
		}
		return true
	})
	// The stream ends with exactly one trailer line so clients can tell
	// a complete campaign from a truncated one.
	switch {
	case err == nil:
		enc.Encode(streamTrailer{Done: true, Cells: rep.Cells, Failures: rep.Fail, Canceled: rep.Canc})
		log.Info("sweep streamed", "cells", rep.Cells, "failures", rep.Fail)
	case errors.Is(err, ErrStopped):
		// Nobody is listening.
		log.Info("stream consumer went away")
	case !wrote:
		log.Error("sweep failed", "err", err)
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		log.Error("sweep failed mid-stream", "err", err)
		enc.Encode(streamTrailer{Error: err.Error()})
	}
}

// streamTrailer is the final line of a /v1/sweep NDJSON stream.
type streamTrailer struct {
	Done     bool   `json:"done"`
	Cells    int    `json:"cells"`
	Failures int    `json:"failures"`
	Canceled int    `json:"canceled"`
	Error    string `json:"error,omitempty"`
}

// parseRanges parses the ?ranges=lo-hi[,lo-hi...] query parameter into
// cell index intervals: each half-open [lo, hi) needs 0 <= lo < hi <=
// total. Empty input means "the whole campaign" (nil).
func parseRanges(q string, total int) ([]campaign.Interval, error) {
	if q == "" {
		return nil, nil
	}
	var out []campaign.Interval
	for _, part := range strings.Split(q, ",") {
		lostr, histr, ok := strings.Cut(part, "-")
		if !ok {
			return nil, fmt.Errorf("ranges: %q is not lo-hi", part)
		}
		lo, err1 := strconv.Atoi(lostr)
		hi, err2 := strconv.Atoi(histr)
		if err1 != nil || err2 != nil || lo < 0 || hi <= lo || hi > total {
			return nil, fmt.Errorf("ranges: %q must satisfy 0 <= lo < hi <= %d", part, total)
		}
		out = append(out, campaign.Interval{Lo: lo, Hi: hi})
	}
	return out, nil
}

// checkpointDir maps a campaign onto its checkpoint directory:
// root/<name>-<fnv of the canonical spec JSON>. The hash
// keeps two different campaigns sharing a name from sharing (and
// corrupting) a resume state; the name keeps the tree navigable. The
// returned key identifies the dir for the one-live-run lock. Both are
// empty when checkpointing is disabled.
func (s *Server) checkpointDir(spec meetpoly.SweepSpec) (dir, key string) {
	if s.cfg.CheckpointRoot == "" {
		return "", ""
	}
	canon, _ := json.Marshal(spec)
	h := fnv.New32a()
	h.Write(canon)
	name := make([]byte, 0, len(spec.Name))
	for _, c := range []byte(spec.Name) {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			name = append(name, c)
		default:
			name = append(name, '_')
		}
	}
	key = fmt.Sprintf("%s-%08x", name, h.Sum32())
	return filepath.Join(s.cfg.CheckpointRoot, key), key
}
