// Command rvserved is the sweep service: a long-lived HTTP daemon that
// accepts campaign SweepSpec JSON, executes this instance's shard of
// the deterministic cell index-range over a shared engine, streams cell
// results as NDJSON while they complete, and checkpoints completed
// index ranges to disk so a crashed or restarted shard resumes without
// recomputing a single cell. A campaign resumed across any number of
// crashes produces the byte-identical report an uninterrupted
// single-process `rvsweep -json` run produces.
//
// Endpoints (see internal/serve):
//
//	POST /v1/sweep        stream the shard's cell results as NDJSON
//	POST /v1/sweep/report run the shard, respond with the report JSON
//	GET  /healthz         200 ok (with the build version); 503 once draining
//	GET  /v1/stats        service counters and engine cache stats
//	GET  /metrics         Prometheus text exposition of every series
//	GET  /debug/pprof/*   runtime profiles (only with -pprof)
//
// Horizontal scale is the -shard flag: rvserved -shard 1/3 owns the
// middle third of every campaign's index range, with its own
// checkpoint subdirectory; the shards' streams fold into one report
// through the order-independent aggregator.
//
// SIGTERM/SIGINT drain gracefully: new sweeps are refused (503),
// in-flight runs are canceled — their checkpoints flush everything
// completed so far — and the process exits once they finish or the
// drain timeout expires.
//
// Beyond the daemon, three more modes:
//
//	-coordinator URL  worker mode: pull leases from an rvcoord
//	                  instance, execute them, stream results back,
//	                  heartbeat while running; exits 0 when the
//	                  campaign is done
//	-chaos SPEC       thread a deterministic fault-injection schedule
//	                  (see internal/faultinject) through the daemon or
//	                  worker: checkpoint write/fsync faults, stream
//	                  resets, delays, 503 bursts, kill-after-flush
//	-compact DIR      offline: rewrite a checkpoint directory's logs
//	                  to their minimal sealed form, print stats, exit
//
// Exit codes: 0 clean shutdown / campaign done; 1 runtime error; 2
// usage error; 137 an injected -chaos kill fired (the process
// stand-in for kill -9 — the coordinator's lease expiry takes over).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"meetpoly"
	"meetpoly/internal/buildinfo"
	"meetpoly/internal/faultinject"
	"meetpoly/internal/serve"
	"meetpoly/internal/serve/coord"
	"meetpoly/internal/telemetry/logx"
)

func main() {
	var (
		addr        = flag.String("addr", ":8747", "address to listen on")
		checkpoints = flag.String("checkpoints", "", "checkpoint root directory (empty disables resume)")
		shard       = flag.String("shard", "0/1", "this instance's shard as i/of (e.g. 1/3 = the middle third of every campaign)")
		maxN        = flag.Int("maxn", 6, "size ceiling of the engine's verified catalog family")
		seed        = flag.Int64("seed", 1, "seed of the engine's verified catalog")
		parallelism = flag.Int("parallelism", 0, "worker pool size (0 = GOMAXPROCS)")
		flushEvery  = flag.Int("flush-every", serve.DefaultFlushEvery, "checkpoint flush interval in completed cells")
		maxCells    = flag.Int("max-cells", 0, "reject campaigns expanding past this many cells (0 = unlimited)")
		maxTenant   = flag.Int("max-tenant-sweeps", serve.DefaultMaxTenantSweeps, "max in-flight sweeps per tenant (X-Tenant header)")
		timeout     = flag.Duration("timeout", 0, "per-request sweep budget (0 = unbounded; requests may tighten with ?budget_ms=)")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight sweeps on shutdown")
		coordinator = flag.String("coordinator", "", "worker mode: pull leases from this rvcoord base URL instead of serving HTTP")
		workerName  = flag.String("worker-name", "", "worker mode: name reported to the coordinator (default the hostname)")
		chaos       = flag.String("chaos", "", "deterministic fault-injection spec (see internal/faultinject), e.g. 'seed=7,kill=2,reset=rand:30'")
		compactDir  = flag.String("compact", "", "offline: compact this checkpoint directory's logs and exit")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the service mux")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		version     = flag.Bool("version", false, "print version information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("rvserved"))
		return
	}
	level, err := logx.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rvserved:", err)
		flag.Usage()
		os.Exit(2)
	}
	logger := logx.New(os.Stderr, level)
	shardIdx, shardOf, err := parseShard(*shard)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rvserved:", err)
		flag.Usage()
		os.Exit(2)
	}
	var inj *faultinject.Injector
	if *chaos != "" {
		inj, err = faultinject.New(*chaos)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rvserved:", err)
			os.Exit(2)
		}
		// The resolved plan is the reproduction recipe: log it.
		logger.Info("chaos schedule resolved", logx.F("schedule", inj.Schedule()))
	}

	if *compactDir != "" {
		st, err := serve.Compact(*compactDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rvserved:", err)
			os.Exit(1)
		}
		fmt.Printf("compacted %s: %d cells, %d ranges, results %d -> %d bytes, ranges %d -> %d bytes\n",
			*compactDir, st.Cells, st.Ranges, st.BytesBefore, st.BytesAfter, st.RangesBefore, st.RangesAfter)
		return
	}

	opts := []meetpoly.Option{meetpoly.WithMaxN(*maxN), meetpoly.WithSeed(*seed)}
	if *parallelism > 0 {
		opts = append(opts, meetpoly.WithParallelism(*parallelism))
	}

	if *coordinator != "" {
		runWorker(*coordinator, *workerName, *checkpoints, *flushEvery, inj, logger, opts)
		return
	}

	// One registry spans the whole process: the engine's cache/cell
	// series and the service's request/checkpoint series scrape from the
	// same /metrics page.
	reg := meetpoly.NewMetrics()
	buildinfo.InfoGauge(reg, "rvserved")
	opts = append(opts, meetpoly.WithTelemetry(reg))

	svc := serve.New(serve.Config{
		Engine:          meetpoly.NewEngine(opts...),
		CheckpointRoot:  *checkpoints,
		Shard:           shardIdx,
		Of:              shardOf,
		FlushEvery:      *flushEvery,
		MaxCells:        *maxCells,
		MaxTenantSweeps: *maxTenant,
		RequestTimeout:  *timeout,
		Faults:          inj,
		Metrics:         reg,
		Log:             logger,
		Pprof:           *pprofOn,
	})

	httpSrv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening",
		logx.F("shard", fmt.Sprintf("%d/%d", shardIdx, shardOf)), logx.F("addr", *addr))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "rvserved:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()

	// Drain before Shutdown: refuse new sweeps, cancel the in-flight
	// ones (their checkpoints flush, so a restart resumes, not
	// recomputes), then close the listener and idle connections.
	logger.Info("draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	code := 0
	if err := svc.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "rvserved:", err)
		code = 1
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "rvserved: shutdown:", err)
		code = 1
	}
	os.Exit(code)
}

// runWorker is the -coordinator mode: a lease-pulling fleet worker.
// An injected kill (chaos kill=<k>) exits 137 like a real kill -9; the
// coordinator's lease expiry handles the rest.
func runWorker(coordURL, name, checkpoints string, flushEvery int, inj *faultinject.Injector, logger *logx.Logger, opts []meetpoly.Option) {
	if name == "" {
		name, _ = os.Hostname()
	}
	log := logger.With(logx.F("worker", name))
	dir := ""
	if checkpoints != "" {
		dir = filepath.Join(checkpoints, "worker-"+name)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Info("pulling leases", logx.F("coordinator", coordURL))
	err := coord.RunWorker(ctx, coord.WorkerConfig{
		Coordinator: coordURL,
		Engine:      meetpoly.NewEngine(opts...),
		Name:        name,
		Dir:         dir,
		FlushEvery:  flushEvery,
		Faults:      inj,
	})
	switch {
	case err == nil:
		log.Info("campaign done")
	case errors.Is(err, faultinject.ErrKilled):
		log.Warn("injected kill")
		os.Exit(137)
	default:
		log.Error("worker failed", logx.F("err", err))
		os.Exit(1)
	}
}

// parseShard parses the -shard flag's "i/of" form: of >= 1 and
// 0 <= i < of.
func parseShard(s string) (i, of int, err error) {
	a, b, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("-shard must be i/of, got %q", s)
	}
	i, err1 := strconv.Atoi(a)
	of, err2 := strconv.Atoi(b)
	if err1 != nil || err2 != nil || of < 1 || i < 0 || i >= of {
		return 0, 0, fmt.Errorf("-shard must be i/of with 0 <= i < of, got %q", s)
	}
	return i, of, nil
}
