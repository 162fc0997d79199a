// Command rvcoord is the campaign coordinator: the fault-tolerance
// layer that turns a fleet of rvserved workers into one reliable
// sweep. It loads a single campaign spec, owns the unfinished cell
// index set, and hands out bounded, heartbeat-renewed shard leases
// over HTTP. A worker that dies mid-lease simply stops heartbeating:
// the lease expires and its cells are re-granted to the next worker.
// Results fold through the order-independent aggregator (duplicates
// from reassigned leases are no-ops), and once every cell is done,
// GET /v1/report serves the exact bytes a single-process
// `rvsweep -json` run of the same spec prints.
//
// Endpoints (see internal/serve/coord):
//
//	GET  /v1/spec       the campaign spec workers must run
//	POST /v1/lease      acquire work (?worker=name)
//	POST /v1/heartbeat  keep a lease alive (?lease=ID)
//	POST /v1/complete   upload a lease's results as NDJSON (?lease=ID)
//	GET  /v1/status     progress counters
//	GET  /v1/report     final report; 409 + Retry-After until complete
//	GET  /healthz       200 ok (with the build version)
//	GET  /metrics       Prometheus text exposition (lease lifecycle, pool state)
//
// Start workers with `rvserved -coordinator http://host:8748`; poll
// /v1/report until it answers 200.
//
// Exit codes: 0 clean shutdown; 1 runtime error; 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"meetpoly"
	"meetpoly/internal/buildinfo"
	"meetpoly/internal/serve/coord"
)

func main() {
	var (
		addr       = flag.String("addr", ":8748", "address to listen on")
		specPath   = flag.String("spec", "", "path to the campaign sweep spec JSON (required)")
		leaseCells = flag.Int("lease-cells", coord.DefaultLeaseCells, "max cells per lease")
		leaseTTL   = flag.Duration("lease-ttl", coord.DefaultLeaseTTL, "lease lifetime without a heartbeat")
		retryAfter = flag.Duration("retry-after", coord.DefaultRetryAfter, "Retry-After hint for waiting workers and premature report fetches")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		version    = flag.Bool("version", false, "print version information and exit")
		logLevel   slog.Level
	)
	flag.TextVar(&logLevel, "log-level", slog.LevelInfo, "minimum log level: debug, info, warn, error")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("rvcoord"))
		return
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: logLevel}))
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "rvcoord: -spec is required")
		flag.Usage()
		os.Exit(2)
	}
	spec, err := meetpoly.LoadSweepSpecFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rvcoord:", err)
		os.Exit(1)
	}
	reg := meetpoly.NewMetrics()
	buildinfo.InfoGauge(reg, "rvcoord")
	c, err := coord.New(coord.Config{
		Spec:       spec,
		LeaseCells: *leaseCells,
		LeaseTTL:   *leaseTTL,
		RetryAfter: *retryAfter,
		Metrics:    reg,
		Log:        logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rvcoord:", err)
		os.Exit(1)
	}

	total, _ := meetpoly.CountSweep(spec)
	mux := http.NewServeMux()
	mux.Handle("/", c.Handler())
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "campaign", spec.Name, "cells", total, "addr", *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "rvcoord:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "rvcoord: shutdown:", err)
		os.Exit(1)
	}
}
