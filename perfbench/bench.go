package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"meetpoly"
)

const (
	// A run sets the workload up at least setupRuns times and until
	// setupSeconds have passed, at most maxSetups times; setup_s is the
	// median. A served set-up takes about 0.1 s, and over ten runs the
	// median of five spread by a third (interquartile range / median).
	setupRuns    = 5
	setupSeconds = 2.0
	maxSetups    = 40
	warmPairs    = 2   // served/fleet warm-up campaign pairs
	minPairs     = 100 // fresh requests needed for a p90 with 10 beyond
	maxOverstay  = 3.0 // a timed phase never runs past this many --seconds
	workersFleet = 2
)

// runner drives one workload for one invocation.
type runner struct {
	w       workload
	seed    int64
	seconds float64
	tmp     string // this run's scratch directory (checkpoint roots)
	setups  int    // systems built so far, for distinct checkpoint roots
	refs    map[string]reference
	log     io.Writer
}

// reference is the in-process Engine.Sweep answer to one campaign.
type reference struct {
	digest [32]byte
	wall   time.Duration
}

// specAt is the campaign of the pair-th request pair. In-process
// workloads cycle through their warmed set; the others never repeat a
// campaign across pairs. Negative indices are warm-up campaigns.
func (b *runner) specAt(pair int) meetpoly.SweepSpec {
	if b.w.cycle > 0 && pair >= 0 {
		pair %= b.w.cycle
	}
	return b.w.spec(b.seed, pair)
}

// warmSpecs is the untimed warm-up sequence: the whole cycle for the
// in-process workloads, a few campaigns of their own for the others.
func (b *runner) warmSpecs() []meetpoly.SweepSpec {
	var warm []meetpoly.SweepSpec
	for i := 0; i < b.w.cycle; i++ {
		warm = append(warm, b.specAt(i))
	}
	if b.w.via != inProcess {
		for i := 1; i <= warmPairs; i++ {
			warm = append(warm, b.specAt(-i), b.specAt(-i))
		}
	}
	return warm
}

// build constructs a system of the given transport and runs the untimed
// warm-up pass over it. reg, when set, receives the service layers'
// telemetry; opts configure every engine.
func (b *runner) build(ctx context.Context, via transport, reg *meetpoly.Metrics, opts ...meetpoly.Option) (system, error) {
	b.setups++
	root := filepath.Join(b.tmp, fmt.Sprintf("system-%d", b.setups))
	var sys system
	switch via {
	case inProcess:
		// One sweep worker. With two, a campaign's few heavy batches
		// split between the workers in scheduling order, and the same
		// campaign took 27 ms in one run and 36 ms in the next.
		sys = &inproc{eng: productionEngine(append([]meetpoly.Option{meetpoly.WithParallelism(1)}, opts...)...)}
	case served:
		s, err := newServed(productionEngine(opts...), root, reg)
		if err != nil {
			return nil, err
		}
		sys = s
	case fleet:
		sys = newFleet(workersFleet, opts...)
	}
	for _, spec := range b.warmSpecs() {
		if _, err := sys.request(ctx, spec, nil, 0); err != nil {
			sys.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return sys, nil
}

// setup builds the workload's system repeatedly (see setupRuns) and
// keeps the last one; the build times, at reference speed, are the
// set-up samples.
func (b *runner) setup(ctx context.Context) (system, []float64, error) {
	var times []float64
	var sys system
	begin := time.Now()
	for i := 0; i < maxSetups && (i < setupRuns || time.Since(begin).Seconds() < setupSeconds); i++ {
		if sys != nil {
			sys.close()
		}
		before := calibrate()
		start := time.Now()
		var err error
		sys, err = b.build(ctx, b.w.via, nil)
		if err != nil {
			return nil, nil, err
		}
		took := time.Since(start).Seconds()
		times = append(times, took*scale(before, calibrate()))
	}
	return sys, times, nil
}

// issued is one answered request, kept for the correctness check.
type issued struct {
	spec   meetpoly.SweepSpec
	digest [32]byte
	rep    *meetpoly.SweepReport
}

// phase is what a timed loop measured.
type phase struct {
	fresh, repeat, first []float64 // ms at reference speed
	rss                  []float64 // MB, peak resident set of each request
	cells                int
	events               int64
	busy                 time.Duration // summed request walls at reference speed
	issued               []issued
	replies              []reply // kept only when keep is set
}

// loopCfg shapes a request loop: it runs pairs request pairs (with
// interleave, pairs traced and pairs untraced), or until limit seconds
// have passed when limit is set. spec picks the campaign of a pair.
// With tr set, every pair is traced, or, with interleave, every other
// pair.
type loopCfg struct {
	limit      float64
	pairs      int
	rss        bool // record each request's peak resident set
	spec       func(pair int) meetpoly.SweepSpec
	tr         *tracer
	interleave bool
	keep       bool
}

// loop issues request pairs (a campaign, then the same campaign again)
// and returns the untraced and traced measurements and the loop's wall
// time.
func (b *runner) loop(ctx context.Context, sys system, cfg loopCfg) (plain, traced *phase, wall time.Duration, err error) {
	plain, traced = &phase{}, &phase{}
	start := time.Now()
	cal := calibrate()
	for pair := 0; ; pair++ {
		p, tr := plain, (*tracer)(nil)
		if cfg.tr != nil && (!cfg.interleave || pair%2 == 0) {
			p, tr = traced, cfg.tr
		}
		// An interleaved loop stops only after whole traced+untraced
		// couples, so both halves ran exactly the same campaigns.
		if (!cfg.interleave || pair%2 == 0) && cfg.stop(time.Since(start).Seconds(), plain, traced) {
			break
		}
		spec := cfg.spec(pair)
		var req int32
		if tr != nil {
			req = tr.requests()
		}
		for k := 0; k < 2; k++ {
			r, err := sys.request(ctx, spec, tr, req+int32(k))
			if err != nil {
				return nil, nil, 0, fmt.Errorf("%s request %d: %w", b.w.name, 2*pair+k, err)
			}
			if cfg.rss {
				mb, err := peakRSSMB()
				if err != nil {
					return nil, nil, 0, err
				}
				p.rss = append(p.rss, mb)
				if err := resetPeakRSS(); err != nil {
					return nil, nil, 0, err
				}
			}
			next := calibrate()
			f := scale(cal, next)
			cal = next
			ms := float64(r.wall) / 1e6 * f
			if k == 0 {
				p.fresh = append(p.fresh, ms)
				p.first = append(p.first, float64(r.first)/1e6*f)
			} else {
				p.repeat = append(p.repeat, ms)
			}
			p.cells += r.rep.Cells
			p.events += r.rep.Events
			p.busy += time.Duration(float64(r.wall) * f)
			p.issued = append(p.issued, issued{spec: spec, digest: sha256.Sum256(r.report), rep: r.rep})
			if cfg.keep {
				p.replies = append(p.replies, r)
			}
		}
	}
	return plain, traced, time.Since(start), nil
}

// stop reports whether a loop that has run el seconds may stop.
func (cfg loopCfg) stop(el float64, plain, traced *phase) bool {
	if cfg.limit > 0 && el >= cfg.limit {
		return true
	}
	if cfg.interleave {
		return len(plain.fresh) >= cfg.pairs && len(traced.fresh) >= cfg.pairs
	}
	return len(plain.fresh)+len(traced.fresh) >= cfg.pairs
}

// timedPairs is the size of the timed phase. The phase runs a fixed
// amount of work rather than a fixed time, so a fast phase of the
// machine does not also grow the caches and heap the later requests run
// against.
func (b *runner) timedPairs() int {
	return max(minPairs, int(b.seconds*float64(b.w.pairsPerSecond)))
}

// verify compares every answered report byte-for-byte with an
// in-process Engine.Sweep reference of the same campaign and counts
// failed operations: mismatches, oracle failures, canceled cells. The
// references come from one fresh engine and are cached by campaign.
func (b *runner) verify(ctx context.Context, done []issued) (failed int, err error) {
	if b.refs == nil {
		b.refs = map[string]reference{}
	}
	ref := productionEngine()
	for _, is := range done {
		want, ok := b.refs[is.spec.Seed]
		if !ok {
			start := time.Now()
			rep, err := ref.Sweep(ctx, is.spec)
			if err != nil {
				return 0, err
			}
			want.wall = time.Since(start)
			out, err := marshalReport(rep)
			if err != nil {
				return 0, err
			}
			want.digest = sha256.Sum256(out)
			b.refs[is.spec.Seed] = want
		}
		if is.digest != want.digest || is.rep.Fail > 0 || is.rep.Canc > 0 {
			failed++
			fmt.Fprintf(b.log, "perfbench: campaign %q: report matches reference: %v, oracle failures %d, canceled cells %d\n",
				is.spec.Seed, is.digest == want.digest, is.rep.Fail, is.rep.Canc)
		}
	}
	return failed, nil
}

// checkGolden reproduces testdata/sweep-golden.json from its spec.
func checkGolden(ctx context.Context) error {
	want, err := os.ReadFile(filepath.Join("testdata", "sweep-golden.json"))
	if err != nil {
		return fmt.Errorf("golden report: %w", err)
	}
	rep, err := productionEngine().Sweep(ctx, goldenSpec())
	if err != nil {
		return err
	}
	got, err := marshalReport(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("sweep of the golden spec differs from testdata/sweep-golden.json")
	}
	return nil
}

// resetPeakRSS restarts the kernel's peak resident set count at the
// current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
