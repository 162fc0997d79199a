// Command perfbench is the repository's benchmark: it drives one
// workload against the public API (in process, through the sweep
// service, or through a coordinator fleet), checks every report it gets
// against an in-process reference, and prints one JSON result line.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the workload again with spans around its own calls into each
// layer and reports the per-layer metrics derived from them. Run it
// from the repository root through perfbench/run.sh, which builds it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: rendezvous-long, teams-sgl, serve-wide or fleet-wide")
	seed := fs.Int64("seed", 1, "workload seed: campaigns are generated from it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase at reference speed")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	ctx := context.Background()
	if err := checkGolden(ctx); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	if err := os.MkdirAll(filepath.Join(".bench_build", "tmp"), 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	fmt.Fprintf(stderr, "perfbench: %s seed %d, %gs, trace %d, GOMAXPROCS %d\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	b := &runner{w: w, seed: *seed, seconds: *seconds, tmp: tmp, log: stderr}
	var res *result
	if *trace == 1 {
		res, err = b.traced(ctx)
	} else {
		res, err = b.plain(ctx)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// plain is the untraced run: set-up, the timed phase, then the check.
func (b *runner) plain(ctx context.Context) (*result, error) {
	sys, setups, err := b.setup(ctx)
	if err != nil {
		return nil, err
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	p, _, wall, err := b.loop(ctx, sys, loopCfg{limit: maxOverstay * b.seconds, pairs: b.timedPairs(), spec: b.specAt, rss: true})
	wire := sys.wireFailures()
	sys.close()
	if err != nil {
		return nil, err
	}
	failed, err := b.verify(ctx, p.issued)
	if err != nil {
		return nil, err
	}
	failed += wire

	// Throughput is over the requests' time at reference speed, which
	// leaves out the calibration between them.
	m := map[string]metric{}
	busy := p.busy.Seconds()
	m["cells_per_s"] = metric{float64(p.cells) / busy, "1/s"}
	m["events_per_s"] = metric{float64(p.events) / busy, "1/s"}
	m["setup_s"] = metric{median(setups), "s"}
	for _, q := range []struct {
		name, unit string
		xs         []float64
		p          float64
	}{
		{"request_ms_p50", "ms", p.fresh, 0.5},
		{"request_ms_p90", "ms", p.fresh, 0.9},
		{"replay_ms_p50", "ms", p.repeat, 0.5},
		{"rss_peak_mb", "MB", p.rss, 0.5},
	} {
		v, err := percentile(q.xs, q.p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		m[q.name] = metric{v, q.unit}
	}
	// Time to the first cell is logged, not reported: on serve-wide its
	// median moved by up to 37% between seeds (a request's first cell
	// lands inside a garbage collection or not), beyond any bound.
	first, err := percentile(p.first, 0.5)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "perfbench: %d request pairs in %.2fs (%d fresh, %d repeat samples), %d cells, first cell p50 %.3f ms, set-ups %v s\n",
		len(p.fresh), wall.Seconds(), len(p.fresh), len(p.repeat), p.cells, first, setups)
	return &result{
		Correct:   failed == 0,
		Attempted: len(p.issued) + 1, // +1: the golden reproduction
		Failed:    failed,
		Metrics:   m,
	}, nil
}
