// Command rvsweep runs a campaign sweep from a declarative JSON spec:
// it expands the spec's cross product (graph families × sizes × start
// pairs × label pairs × adversaries × scenario kinds) into concrete
// scenarios, executes them over a shared engine, checks every run
// against the paper-bound oracles (termination, Π/baseline/ESST cost
// bounds, lemma inequalities), and prints the aggregate cost table.
//
// Every failing cell is reported with a replay seed string; re-run that
// one cell with:
//
//	rvsweep -spec campaign.json -replay 'seed#index'
//
// Adding -against with a recorded sweep artifact (the NDJSON of
// -stream, or the JSON report of -json) compares the replayed outcome
// with the recorded one: every cell is a pure function of its seed
// string, so any divergence means the replay environment differs from
// the sweep (catalog -maxn/-seed, code revision) — not that the cell is
// flaky. A replay runs the sweep's whole-spec graph pre-pass before its
// cell, so a spec whose graphs extend the catalog replays under the
// catalog its sweep ran under. CI's campaign-smoke job runs this loop
// on both cells of such a spec:
//
//	rvsweep -spec testdata/replay-extend.json -stream > replay-extend.ndjson
//	rvsweep -spec testdata/replay-extend.json -replay 'replay-extend-v1#0' -against replay-extend.ndjson
//
// With -parallelism 1, -stream prints its lines in expansion order. The
// same job diffs that output for testdata/campaign-smoke.json against
// testdata/campaign-smoke.stream.golden, which pins the NDJSON cell
// encoding.
//
// Exit codes: 0 all oracles passed; 1 an oracle failed, the run was
// interrupted, or an error occurred; 2 usage error — including
// combining the mutually-exclusive mode flags (-count, -expand,
// -replay, -stream) and a malformed -against artifact (empty, truncated mid-record, garbage
// where a record should be, or ambiguous: the replayed cell's seed
// recorded more than once); 3 the replayed outcome diverged from the
// -against record. A trailing newline or blank line after the last
// NDJSON record is not malformed — every JSON decoder emits or
// tolerates those.
//
// The process exits non-zero when any oracle fails, so a sweep doubles
// as a CI gate. -cpuprofile/-memprofile write pprof profiles of the
// sweep for performance work.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"iter"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"meetpoly"
	"meetpoly/internal/buildinfo"
	"meetpoly/internal/serve/client"
)

func main() {
	var (
		specPath    = flag.String("spec", "", "path to the sweep spec JSON (required)")
		replay      = flag.String("replay", "", "replay a single cell from its seed string instead of sweeping")
		against     = flag.String("against", "", "with -replay: compare the outcome against a recorded sweep (NDJSON stream or JSON report); exit 3 on divergence")
		stream      = flag.Bool("stream", false, "emit one NDJSON cell result per line as cells complete, instead of the aggregate report")
		expand      = flag.Bool("expand", false, "expand the spec and list cells without running them")
		count       = flag.Bool("count", false, "print only the cell count the spec expands to")
		maxN        = flag.Int("maxn", 6, "size ceiling of the engine's verified catalog family")
		seed        = flag.Int64("seed", 1, "seed of the engine's verified catalog")
		parallelism = flag.Int("parallelism", 0, "worker pool size (0 = GOMAXPROCS)")
		jsonOut     = flag.Bool("json", false, "emit the report as JSON instead of a table")
		server      = flag.String("server", "", "run the sweep remotely on this rvserved base URL via the self-healing streaming client")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile after the sweep to this file")
		tracePath   = flag.String("trace", "", "write a per-cell NDJSON span trace (begin/end events) of the sweep to this file")
		metricsOut  = flag.Bool("metrics", false, "print the final telemetry snapshot (Prometheus text format) to stderr after the run")
		version     = flag.Bool("version", false, "print version information and exit")
		logLevel    slog.Level
	)
	flag.TextVar(&logLevel, "log-level", slog.LevelWarn, "minimum log level: debug, info, warn, error")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("rvsweep"))
		return
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: logLevel}))
	if err := exclusiveModes(*count, *expand, *replay, *stream); err != nil {
		fmt.Fprintln(os.Stderr, "rvsweep:", err)
		flag.Usage()
		os.Exit(2)
	}
	if *server != "" && (*count || *expand || *replay != "") {
		// -server runs the sweep remotely; only the sweeping modes
		// (report, -json, -stream) make sense there.
		fmt.Fprintln(os.Stderr, "rvsweep: -server is incompatible with -count/-expand/-replay")
		flag.Usage()
		os.Exit(2)
	}
	if *tracePath != "" && (*count || *expand || *replay != "" || *server != "") {
		// The span trace observes local cell execution; the listing modes
		// run no cells and -server runs them in another process.
		fmt.Fprintln(os.Stderr, "rvsweep: -trace is incompatible with -count/-expand/-replay/-server")
		flag.Usage()
		os.Exit(2)
	}
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "rvsweep: -spec is required")
		flag.Usage()
		os.Exit(2)
	}
	spec, err := meetpoly.LoadSweepSpecFile(*specPath)
	if err != nil {
		fatal(err)
	}

	if *count {
		n, err := meetpoly.CountSweep(spec)
		if err != nil {
			fatal(err)
		}
		fmt.Println(n)
		return
	}

	if *expand {
		// Cells stream straight from the expansion iterator: listing a
		// million-cell campaign holds one cell at a time (-json included,
		// via a streaming array encoding).
		if *jsonOut {
			fmt.Println("[")
			first := true
			err = meetpoly.WalkSweep(spec, func(c meetpoly.SweepCell) bool {
				out, jerr := json.MarshalIndent(c, "  ", "  ")
				if jerr != nil {
					err = jerr
					return false
				}
				if !first {
					fmt.Println(",")
				}
				first = false
				fmt.Print("  ", string(out))
				return true
			})
			fmt.Println("\n]")
		} else {
			err = meetpoly.WalkSweep(spec, func(c meetpoly.SweepCell) bool {
				fmt.Printf("%-6s %s\n", c.Seed, c.ID)
				return true
			})
		}
		if err != nil {
			fatal(err)
		}
		// The count is progress chatter, not data: keep stdout (cell
		// list or JSON) machine-parseable. CountSweep projects it from
		// the axes without re-deriving cells.
		if n, cerr := meetpoly.CountSweep(spec); cerr == nil {
			fmt.Fprintf(os.Stderr, "%d cells\n", n)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	opts := []meetpoly.Option{meetpoly.WithMaxN(*maxN), meetpoly.WithSeed(*seed)}
	if *parallelism > 0 {
		opts = append(opts, meetpoly.WithParallelism(*parallelism))
	}
	var reg *meetpoly.Metrics
	if *metricsOut {
		reg = meetpoly.NewMetrics()
		buildinfo.InfoGauge(reg, "rvsweep")
		opts = append(opts, meetpoly.WithTelemetry(reg))
	}
	var traceFile *os.File
	if *tracePath != "" {
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		traceEnc := json.NewEncoder(traceFile)
		// The engine serializes trace callbacks, so the encoder needs no
		// extra locking; lines interleave per event, never mid-line.
		opts = append(opts, meetpoly.WithCellTrace(func(ev meetpoly.CellTraceEvent) {
			traceEnc.Encode(ev) //nolint:errcheck // best-effort observability
		}))
	}
	eng := meetpoly.NewEngine(opts...)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	exit := func(code int) {
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			f.Close()
		}
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		if traceFile != nil {
			if err := traceFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "rvsweep: closing trace:", err)
			}
		}
		if reg != nil {
			reg.WritePrometheus(os.Stderr) //nolint:errcheck // best-effort observability
		}
		os.Exit(code)
	}

	if *replay != "" {
		cr, err := eng.ReplayCell(ctx, spec, *replay)
		if err != nil {
			fatal(err)
		}
		out, err := json.MarshalIndent(cr, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
		// A canceled replay verified nothing: the oracles skip canceled
		// runs by design, so a clean verdict here would be a lie.
		if cr.Outcome.Canceled {
			fmt.Fprintln(os.Stderr, "rvsweep: replay interrupted before completing")
			exit(1)
		}
		if *against != "" {
			if diverged := checkAgainst(*against, *cr, exit); diverged {
				exit(3)
			}
		}
		if cr.Failed() {
			exit(1)
		}
		exit(0)
	}
	if *against != "" {
		fmt.Fprintln(os.Stderr, "rvsweep: -against requires -replay")
		exit(2)
	}

	if *server != "" {
		// Remote mode: the self-healing client streams the campaign
		// from an rvserved instance, resuming from the exact gap set
		// across connection resets and load-shedding refusals. The
		// report is byte-identical to the local path below.
		cl := client.New(client.Config{
			BaseURL: *server,
			Metrics: reg,
			Log:     logger,
		})
		var emit func(meetpoly.SweepCellResult) bool
		var streamErr error
		if *stream {
			enc := json.NewEncoder(os.Stdout)
			emit = func(cr meetpoly.SweepCellResult) bool {
				if err := enc.Encode(cr); err != nil {
					streamErr = err
					return false
				}
				return true
			}
		}
		rep, err := cl.Sweep(ctx, spec, emit)
		if streamErr != nil {
			fatal(streamErr)
		}
		if err != nil {
			fatal(err)
		}
		if *stream {
			exit(boolExit(rep.OK()))
		}
		if *jsonOut {
			out, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(out))
		} else {
			fmt.Print(rep.Table())
		}
		exit(boolExit(rep.OK()))
	}

	if *stream {
		code, err := streamSweep(eng.SweepStream(ctx, spec), os.Stdout, os.Stderr)
		if err != nil {
			fatal(err)
		}
		exit(code)
	}

	rep, err := eng.Sweep(ctx, spec)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
	} else {
		fmt.Print(rep.Table())
	}
	if rep.Canc > 0 {
		// Report.OK is false for interrupted sweeps (canceled cells
		// verified nothing); name the cause before the gate fires.
		logger.Warn("sweep interrupted", "canceled", rep.Canc, "cells", rep.Cells)
	}
	if !rep.OK() {
		exit(1)
	}
	exit(0)
}

// boolExit maps an all-oracles-passed verdict to the process exit
// code contract (0 pass, 1 fail).
func boolExit(ok bool) int {
	if ok {
		return 0
	}
	return 1
}

// exclusiveModes rejects contradictory mode flags. rvsweep's four run
// modes — -count, -expand, -replay and -stream — each claim stdout's
// format and the process's exit-code contract, so combining them has no
// coherent meaning; picking one silently (the old behavior: -count beat
// -expand beat -replay beat -stream) turned a typo'd invocation into a
// confidently wrong artifact.
func exclusiveModes(count, expand bool, replay string, stream bool) error {
	var set []string
	if count {
		set = append(set, "-count")
	}
	if expand {
		set = append(set, "-expand")
	}
	if replay != "" {
		set = append(set, "-replay")
	}
	if stream {
		set = append(set, "-stream")
	}
	if len(set) > 1 {
		return fmt.Errorf("%s are mutually exclusive — pick one mode", strings.Join(set, " and "))
	}
	return nil
}

// streamSweep drains a sweep stream to out, one judged NDJSON cell
// result per line as cells complete (completion order, not expansion
// order — every line carries its cell's index and replay seed), and
// returns the process exit code: 0 only when every streamed cell passed
// every oracle and none was canceled. A million-cell campaign streams
// in bounded memory; pipe into `jq` or checkpoint incrementally. A
// non-nil error is a stream or encoding failure for the caller's
// fatal().
func streamSweep(results iter.Seq2[meetpoly.SweepCellResult, error], out, errOut io.Writer) (int, error) {
	enc := json.NewEncoder(out)
	cells, fails, canc := 0, 0, 0
	for cr, serr := range results {
		if serr != nil {
			return 1, serr
		}
		cells++
		if cr.Failed() {
			fails++
		}
		if cr.Outcome.Canceled {
			canc++
		}
		if err := enc.Encode(cr); err != nil {
			return 1, err
		}
	}
	fmt.Fprintf(errOut, "rvsweep: %d cells, %d oracle failures, %d canceled\n", cells, fails, canc)
	if canc > 0 {
		fmt.Fprintf(errOut, "rvsweep: sweep interrupted: %d of %d cells canceled\n", canc, cells)
	}
	if fails > 0 || canc > 0 {
		return 1, nil
	}
	return 0, nil
}

// checkAgainst compares a replayed cell with its record in a sweep
// artifact and reports whether they diverge. Read errors and a record
// that cannot contain the cell terminate through exit.
func checkAgainst(path string, cr meetpoly.SweepCellResult, exit func(int)) bool {
	rec, found, fromReport, err := recordedCell(path, cr.Cell.Seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rvsweep:", err)
		if errors.Is(err, errMalformedRecord) {
			// A corrupt or ambiguous artifact is an input problem (exit
			// 2), not an oracle verdict (1) and never a divergence (3):
			// the comparison did not happen.
			exit(2)
		}
		exit(1)
	}
	if !found {
		if !fromReport {
			fmt.Fprintf(os.Stderr, "rvsweep: seed %q not present in stream record %s (was it produced by -stream over the same spec?)\n", cr.Cell.Seed, path)
			exit(1)
		}
		// The aggregate report records only failing cells: absence means
		// the sweep saw this cell pass every oracle.
		if cr.Failed() {
			printDivergence(path, "recorded as passing every oracle", describeFailures(cr))
			return true
		}
		return false
	}
	recJSON, _ := json.Marshal(rec.Outcome)
	gotJSON, _ := json.Marshal(cr.Outcome)
	if !bytes.Equal(recJSON, gotJSON) {
		printDivergence(path, string(recJSON), string(gotJSON))
		return true
	}
	if rf, gf := describeFailures(rec), describeFailures(cr); rf != gf {
		printDivergence(path, rf, gf)
		return true
	}
	fmt.Fprintf(os.Stderr, "rvsweep: replay matches the recorded outcome in %s\n", path)
	return false
}

// printDivergence emits the divergence report and the diagnosis hint.
func printDivergence(path, recorded, replayed string) {
	fmt.Fprintf(os.Stderr, "rvsweep: replayed outcome diverges from the sweep recorded in %s\n", path)
	fmt.Fprintf(os.Stderr, "  recorded: %s\n", recorded)
	fmt.Fprintf(os.Stderr, "  replayed: %s\n", replayed)
	fmt.Fprintln(os.Stderr, "rvsweep: hint: a cell is a pure function of its seed string, so divergence means the replay environment differs from the sweep — check that -maxn and -seed match the swept catalog and that this binary is built from the same revision")
}

// describeFailures canonicalizes a cell's oracle verdict for comparison
// and display.
func describeFailures(cr meetpoly.SweepCellResult) string {
	if len(cr.Failures) == 0 {
		return "passed every oracle"
	}
	names := make([]string, len(cr.Failures))
	for i, f := range cr.Failures {
		names[i] = f.Oracle
	}
	sort.Strings(names)
	return "failed oracles: " + strings.Join(names, ", ")
}

// errMalformedRecord tags artifact-shape failures apart from plain I/O
// errors: checkAgainst maps it to the usage exit code (2), because a
// comparison against a corrupt or ambiguous record never happened and
// must not masquerade as an oracle verdict or a divergence.
var errMalformedRecord = errors.New("malformed sweep record")

// recordedCell looks a seed up in a recorded sweep artifact. It accepts
// both artifact shapes rvsweep itself emits: the aggregate JSON report
// of -json (which records only failing cells — fromReport is true) and
// the NDJSON stream of -stream (which records every cell).
func recordedCell(path, seed string) (rec meetpoly.SweepCellResult, found, fromReport bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return rec, false, false, err
	}
	defer f.Close()
	return scanRecord(f, path, seed)
}

// scanRecord is recordedCell over an open reader — the unit the
// malformed-input matrix tests. It always scans the artifact to the
// end, even after the seed is found: a truncated tail or a second
// record of the same seed makes the whole artifact untrustworthy, and
// silently using the first hit would turn an ambiguous record into a
// confident verdict. Trailing whitespace (the blank line a text editor
// or `echo >>` appends) is not an error: the decoder consumes it as
// inter-record space and reports a clean EOF.
func scanRecord(r io.Reader, path, seed string) (rec meetpoly.SweepCellResult, found, fromReport bool, err error) {
	dec := json.NewDecoder(r)
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		if errors.Is(err, io.EOF) {
			return rec, false, false, fmt.Errorf("record %s is empty: %w", path, errMalformedRecord)
		}
		return rec, false, false, fmt.Errorf("reading record %s: %v: %w", path, err, errMalformedRecord)
	}
	// An aggregate report is a single object with campaign-level fields;
	// a stream line is a cell result (whose "cell" object never gives
	// Report a cell count).
	var rep meetpoly.SweepReport
	if err := json.Unmarshal(raw, &rep); err == nil && (rep.Cells > 0 || len(rep.Group) > 0) {
		for _, cand := range rep.Failures {
			if cand.Cell.Seed == seed {
				if found {
					return meetpoly.SweepCellResult{}, false, true, duplicateSeedErr(path, seed)
				}
				rec, found = cand, true
			}
		}
		return rec, found, true, nil
	}
	for {
		var cand meetpoly.SweepCellResult
		if err := json.Unmarshal(raw, &cand); err != nil {
			return meetpoly.SweepCellResult{}, false, false,
				fmt.Errorf("parsing record %s: %v: %w", path, err, errMalformedRecord)
		}
		if cand.Cell.Seed == seed {
			if found {
				return meetpoly.SweepCellResult{}, false, false, duplicateSeedErr(path, seed)
			}
			rec, found = cand, true
		}
		if err := dec.Decode(&raw); err != nil {
			if errors.Is(err, io.EOF) {
				return rec, found, false, nil
			}
			return meetpoly.SweepCellResult{}, false, false,
				fmt.Errorf("reading record %s: stream truncated or corrupt: %v: %w", path, err, errMalformedRecord)
		}
	}
}

// duplicateSeedErr reports an ambiguous artifact: the target cell is
// recorded more than once, so there is no single outcome to compare
// against.
func duplicateSeedErr(path, seed string) error {
	return fmt.Errorf("record %s contains seed %q more than once — ambiguous record (duplicate cell index): %w",
		path, seed, errMalformedRecord)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rvsweep:", err)
	os.Exit(1)
}
