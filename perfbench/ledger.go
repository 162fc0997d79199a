package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"meetpoly"
	"meetpoly/internal/schedbench"
	"meetpoly/internal/serve"
	"meetpoly/internal/serve/coord"
)

const (
	tracedPairs = 20 // traced pairs per surface: a p50 needs 20 samples
	probeSpecs  = 4  // campaigns the engine probes run over
	probeMin    = 200 * time.Millisecond
	probeCells  = 40   // cells per kind for the Engine.Run probe
	replayCells = 4000 // cell results replayed through encode and checkpoint
	// maxUnattributed is the accounting gate on the in-process
	// workloads: layer self-times must cover all but this share of the
	// traced wall time.
	maxUnattributed = 0.10
)

var (
	kinds   = []string{"rendezvous", "baseline", "esst", "sgl", "certify"}
	oracles = []string{"termination", "consistency", "pi-bound", "lemmas"}
)

// traced is the per-layer run. It drives the workload's own surface
// with traced and untraced request pairs interleaved, then the other
// two surfaces traced over the workload's campaigns, then times the
// engine, campaign and checkpoint calls one by one. Every number comes
// from spans or counters taken around public calls.
func (b *runner) traced(ctx context.Context) (*result, error) {
	tr := newTracer()
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	ok := true

	// The workload's own surface. In process it runs at parallelism 1,
	// so spans of one request never overlap and self-times add up.
	reg := meetpoly.NewMetrics()
	native, err := b.build(ctx, b.w.via, reg, meetpoly.WithTelemetry(reg))
	if err != nil {
		return nil, err
	}
	systems := map[transport]system{b.w.via: native}
	defer func() {
		for _, s := range systems {
			s.close()
		}
	}()
	spec := b.specAt
	if ip, isIP := native.(*inproc); isIP {
		ip.reg, ip.collect = reg, true
		spec = func(pair int) meetpoly.SweepSpec { return b.specAt(pair / 2) }
	}
	plain, traced, _, err := b.loop(ctx, native, loopCfg{limit: maxOverstay * b.seconds,
		pairs: max(tracedPairs, b.timedPairs()/4), spec: spec, tr: tr, interleave: true, keep: true})
	if err != nil {
		return nil, err
	}
	put("trace.overhead", "x", rate(traced)/rate(plain))
	hits, misses := counter(reg, "meetpoly_engine_cache_hits_total"), counter(reg, "meetpoly_engine_cache_misses_total")
	put("engine.cache_hit_ratio", "share", hits/(hits+misses))
	lanes := laneCounts(reg)
	share := lanes[0] / lanes[1]
	if ip, isIP := native.(*inproc); isIP {
		share = ip.lanes[1][0] / ip.lanes[1][1]
		if plainShare := ip.lanes[0][0] / ip.lanes[0][1]; share != plainShare {
			fmt.Fprintf(b.log, "perfbench: batch lane share traced %v != untraced %v\n", share, plainShare)
			ok = false
		}
	}
	put("engine.batch_lane_share", "share", share)
	done := append(plain.issued, traced.issued...)
	phases := map[transport]*phase{b.w.via: traced}

	// The other two surfaces, traced, on campaigns they have not seen.
	for _, via := range []transport{inProcess, served, fleet} {
		if via == b.w.via {
			continue
		}
		sys, err := b.build(ctx, via, nil)
		if err != nil {
			return nil, err
		}
		systems[via] = sys
		if ip, isIP := sys.(*inproc); isIP {
			ip.collect = true
		}
		_, ph, _, err := b.loop(ctx, sys, loopCfg{pairs: tracedPairs, spec: b.legSpec, tr: tr, keep: true})
		if err != nil {
			return nil, err
		}
		phases[via] = ph
		done = append(done, ph.issued...)
	}

	results := b.inProcessLayers(tr, phases[inProcess], put, &ok)
	if err := servedLayers(tr, systems[served].(*servedSys), put); err != nil {
		return nil, err
	}
	if err := fleetLayers(tr, phases[fleet], put); err != nil {
		return nil, err
	}
	if err := b.engineProbes(ctx, put); err != nil {
		return nil, err
	}
	if err := b.checkpointProbes(results, put); err != nil {
		return nil, err
	}
	ns, _, _ := schedbench.Measure(false)
	put("sched.halfstep_ns", "ns", ns)

	failed, err := b.verify(ctx, done)
	if err != nil {
		return nil, err
	}
	for _, s := range systems {
		failed += s.wireFailures()
	}
	// Fleet throughput against a fresh in-process engine answering the
	// same campaigns for the first time (the references just computed).
	var fleetWall, refWall time.Duration
	for i, r := range phases[fleet].replies {
		if i%2 == 0 {
			fleetWall += r.wall
			refWall += b.refs[phases[fleet].issued[i].spec.Seed].wall
		}
	}
	put("coord.fleet_efficiency", "x", refWall.Seconds()/fleetWall.Seconds())

	if err := os.MkdirAll(filepath.Join(".bench_build", "traces"), 0o755); err != nil {
		return nil, err
	}
	// One file per workload, overwritten by its next traced run.
	if err := tr.write(filepath.Join(".bench_build", "traces", b.w.name+".ndjson")); err != nil {
		return nil, err
	}
	return &result{Correct: ok && failed == 0, Attempted: len(done) + 1, Failed: failed, Metrics: m}, nil
}

// legSpec is the campaign of pair i on a surface the workload does not
// drive itself: beyond the warmed cycle for the in-process workloads,
// the workload's own fresh campaigns otherwise.
func (b *runner) legSpec(i int) meetpoly.SweepSpec {
	if b.w.cycle > 0 {
		return b.w.spec(b.seed, b.w.cycle+i)
	}
	return b.specAt(i)
}

// rate is the cells per second of request time a phase achieved.
func rate(p *phase) float64 { return float64(p.cells) / p.busy.Seconds() }

// inProcessLayers derives the engine, sched and campaign numbers from
// the in-process spans, checks that they account for the traced wall
// time, and returns the cell results the checkpoint probes replay, one
// slice per distinct campaign.
func (b *runner) inProcessLayers(tr *tracer, p *phase, put func(string, string, float64), ok *bool) [][]meetpoly.SweepCellResult {
	roll := tr.rollup()
	cells, events := float64(p.cells), float64(p.events)
	get := func(name string) *spanStats {
		if st := roll[name]; st != nil {
			return st
		}
		return &spanStats{}
	}
	engineSelf := float64(get("engine.sweep").self)
	put("engine.sweep_self_ms_per_kcell", "ms", engineSelf/1e6/(cells/1000))
	put("sched.ns_per_event", "ns", engineSelf/events)
	judge := 0.0
	for _, o := range oracles {
		t := float64(get("campaign.judge." + o).total)
		judge += t
		put("campaign.judge_us."+o, "us", t/1e3/cells)
	}
	put("campaign.judge_us_per_cell", "us", judge/1e3/cells)
	aggregate := float64(get("campaign.aggregate").total)
	put("campaign.aggregate_us_per_cell", "us", aggregate/1e3/cells)

	// Accounting: the request wall time the benchmark measured, against
	// the self-times of the layers it called.
	var wall float64
	var results [][]meetpoly.SweepCellResult
	var exhausted, steps float64
	seen, kept := map[string]bool{}, 0
	for i, r := range p.replies {
		wall += float64(r.wall)
		for _, cr := range r.results {
			steps += float64(cr.Outcome.Steps)
			if cr.Outcome.Exhausted {
				exhausted += float64(cr.Outcome.Steps)
			}
		}
		if seed := p.issued[i].spec.Seed; !seen[seed] && kept < replayCells {
			seen[seed] = true
			kept += len(r.results)
			results = append(results, r.results)
		}
	}
	unattributed := (wall - engineSelf - judge - aggregate) / wall
	put("trace.unattributed_share", "share", unattributed)
	if b.w.via == inProcess && math.Abs(unattributed) > maxUnattributed {
		fmt.Fprintf(b.log, "perfbench: layer self-times leave %.1f%% of the traced wall time unattributed\n", 100*unattributed)
		*ok = false
	}
	put("sched.exhausted_event_share", "share", exhausted/steps)
	return results
}

// servedLayers derives handler and client numbers from the served
// spans of first-time requests.
func servedLayers(tr *tracer, s *servedSys, put func(string, string, float64)) error {
	handler := map[int32]float64{}
	client := map[int32]float64{}
	tr.mu.Lock()
	for _, sp := range tr.spans {
		if (sp.Req-1)%2 != 0 { // repeats recover from the checkpoint
			continue
		}
		switch sp.Name {
		case "serve.handler":
			handler[sp.Req] += float64(sp.End - sp.Start)
		case "client.sweep":
			client[sp.Req] += float64(sp.End - sp.Start)
		}
	}
	tr.mu.Unlock()
	var hs, over []float64
	for req, c := range client {
		hs = append(hs, handler[req]/1e6)
		over = append(over, (c-handler[req])/1e6)
	}
	for _, q := range []struct {
		name string
		xs   []float64
	}{{"serve.handler_ms_p50", hs}, {"client.overhead_ms_p50", over}} {
		v, err := percentile(q.xs, 0.5)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		put(q.name, "ms", v)
	}
	put("client.retries", "count", counter(s.clientReg, "meetpoly_client_retries_total"))
	put("client.duplicates", "count", counter(s.clientReg, "meetpoly_client_duplicate_cells_total"))
	return nil
}

// fleetLayers derives the coordinator numbers from the coordinator
// middleware's spans and lease books.
func fleetLayers(tr *tracer, p *phase, put func(string, string, float64)) error {
	var lease, complete []float64
	tr.mu.Lock()
	for _, sp := range tr.spans {
		switch sp.Name {
		case "coord.lease":
			lease = append(lease, float64(sp.End-sp.Start)/1e6)
		case "coord.complete":
			complete = append(complete, float64(sp.End-sp.Start)/1e6)
		}
	}
	tr.mu.Unlock()
	for _, q := range []struct {
		name string
		xs   []float64
	}{{"coord.lease_ms_p50", lease}, {"coord.complete_ms_p50", complete}} {
		v, err := percentile(q.xs, 0.5)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		put(q.name, "ms", v)
	}
	var leases, waits, heartbeats, upload, busy, span, idle float64
	for _, r := range p.replies {
		bk := r.book
		bk.mu.Lock()
		leases += float64(bk.leases)
		waits += float64(bk.waits)
		heartbeats += float64(bk.heartbeats)
		upload += float64(bk.upload)
		for _, ns := range bk.busy {
			busy += float64(ns)
		}
		span += float64(workersFleet) * float64(bk.readyAt-bk.start)
		bk.mu.Unlock()
		idle += float64(bk.tailIdle())
	}
	cells := float64(p.cells)
	put("coord.complete_bytes_per_cell", "B", upload/cells)
	put("coord.leases_per_kcell", "count", 1000*leases/cells)
	put("coord.heartbeats", "count", heartbeats)
	put("coord.wait_responses", "count", waits)
	put("coord.worker_busy_share", "share", busy/span)
	put("coord.tail_idle_ms", "ms", idle/1e6/float64(len(p.replies)))
	return nil
}

// probeSet is the campaigns the engine probes run over.
func (b *runner) probeSet() []meetpoly.SweepSpec {
	var specs []meetpoly.SweepSpec
	for i := 0; i < probeSpecs; i++ {
		specs = append(specs, b.specAt(i))
	}
	return specs
}

// kindSpec is a campaign of one scenario kind: the workload's own cells
// of that kind, or the all-kinds probe's when the workload has none.
func (b *runner) kindSpec(kind string) meetpoly.SweepSpec {
	spec := b.specAt(0)
	has := false
	for _, k := range spec.Kinds {
		has = has || k == kind
	}
	if !has {
		spec = allKinds(b.seed)
	}
	spec.Kinds = []string{kind}
	return spec
}

// repeatFor calls fn until it has run for at least probeMin and returns
// the mean time per call.
func repeatFor(fn func() error) (time.Duration, error) {
	start := time.Now()
	n := 0
	for time.Since(start) < probeMin {
		if err := fn(); err != nil {
			return 0, err
		}
		n++
	}
	return time.Since(start) / time.Duration(n), nil
}

// sweepAll sweeps every spec and returns the summed wall time, cells
// and events.
func sweepAll(ctx context.Context, eng *meetpoly.Engine, specs []meetpoly.SweepSpec) (time.Duration, int, int64, error) {
	start := time.Now()
	cells, events := 0, int64(0)
	for _, spec := range specs {
		rep, err := eng.Sweep(ctx, spec)
		if err != nil {
			return 0, 0, 0, err
		}
		cells += rep.Cells
		events += rep.Events
	}
	return time.Since(start), cells, events, nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// engineProbes times expansion, the graph pre-pass, the route fill, the
// batched tier and each scenario kind through public calls.
func (b *runner) engineProbes(ctx context.Context, put func(string, string, float64)) error {
	specs := b.probeSet()
	cells := 0
	for _, spec := range specs {
		n, err := meetpoly.CountSweep(spec)
		if err != nil {
			return err
		}
		cells += n
	}
	per, err := repeatFor(func() error {
		for _, spec := range specs {
			if err := meetpoly.WalkSweep(spec, func(meetpoly.SweepCell) bool { return true }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("campaign.expand_us_per_cell", "us", float64(per)/1e3/float64(cells))

	// Set-up work on a fresh engine: the pre-pass alone, then a cold and
	// a warm pass; their difference is the lazy route-book fill.
	eng := productionEngine()
	start := time.Now()
	for _, spec := range specs {
		for _, err := range eng.SweepStreamRange(ctx, spec, 0, 0) {
			if err != nil {
				return err
			}
		}
	}
	put("engine.prepass_ms", "ms", float64(time.Since(start))/1e6)
	cold, _, _, err := sweepAll(ctx, eng, specs)
	if err != nil {
		return err
	}
	warm, _, _, err := sweepAll(ctx, eng, specs)
	if err != nil {
		return err
	}
	put("engine.route_fill_ms", "ms", float64(cold-warm)/1e6)

	// The batched tier against per-cell execution, both warm, passes
	// alternated so drift hits both sides.
	unbatched := productionEngine(meetpoly.WithBatchedExecution(false))
	if _, _, _, err := sweepAll(ctx, unbatched, specs); err != nil {
		return err
	}
	var tb, tu time.Duration
	for i := 0; i < 2; i++ {
		d, _, _, err := sweepAll(ctx, eng, specs)
		if err != nil {
			return err
		}
		tb += d
		if d, _, _, err = sweepAll(ctx, unbatched, specs); err != nil {
			return err
		}
		tu += d
	}
	put("engine.batch_gain", "x", float64(tu)/float64(tb))

	// Allocations per event on a warm parallelism-1 engine.
	p1 := productionEngine(meetpoly.WithParallelism(1))
	if _, _, _, err := sweepAll(ctx, p1, specs); err != nil {
		return err
	}
	before := mallocs()
	_, _, events, err := sweepAll(ctx, p1, specs)
	if err != nil {
		return err
	}
	put("sched.allocs_per_event", "count", float64(mallocs()-before)/float64(events))

	// Each kind through Engine.Run, then the team kinds as sweeps.
	for _, kind := range kinds {
		_, scs, err := meetpoly.ExpandSweep(b.kindSpec(kind))
		if err != nil {
			return err
		}
		scs = scs[:min(len(scs), probeCells)]
		run := func() error {
			for _, sc := range scs {
				// An exhausted budget is an outcome, not a failure.
				if _, err := p1.Run(ctx, sc); err != nil && !errors.Is(err, meetpoly.ErrBudgetExhausted) {
					return err
				}
			}
			return nil
		}
		if err := run(); err != nil { // warm the prepared cache and routes
			return err
		}
		per, err := repeatFor(run)
		if err != nil {
			return err
		}
		put("engine.run_us_per_cell."+kind, "us", float64(per)/1e3/float64(len(scs)))
	}
	for _, kind := range []string{"sgl", "esst"} {
		spec := []meetpoly.SweepSpec{b.kindSpec(kind)}
		if _, _, _, err := sweepAll(ctx, p1, spec); err != nil {
			return err
		}
		var n int
		before := mallocs()
		per, err := repeatFor(func() error {
			_, c, _, err := sweepAll(ctx, p1, spec)
			n += c
			return err
		})
		if err != nil {
			return err
		}
		allocs := float64(mallocs()-before) / float64(n)
		c, _ := meetpoly.CountSweep(spec[0])
		put(kind+".us_per_cell", "us", float64(per)/1e3/float64(c))
		if kind == "sgl" {
			put("sgl.allocs_per_cell", "count", allocs)
		}
	}
	return nil
}

// checkpointProbes replays cell results through the encoder and the
// checkpoint exactly as the server's shard runner writes them: one
// checkpoint directory per campaign, flushed every DefaultFlushEvery
// cells.
func (b *runner) checkpointProbes(campaigns [][]meetpoly.SweepCellResult, put func(string, string, float64)) error {
	n := 0.0
	for _, results := range campaigns {
		n += float64(len(results))
	}
	var buf bytes.Buffer
	per, err := repeatFor(func() error {
		buf.Reset()
		enc := json.NewEncoder(&buf)
		for _, results := range campaigns {
			for _, cr := range results {
				if err := enc.Encode(cr); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("serve.encode_us_per_cell", "us", float64(per)/1e3/n)
	put("serve.line_bytes_per_cell", "B", float64(buf.Len())/n)

	var record time.Duration
	var flushes []float64
	var dirs []string
	// Close flushes the remainder, so it is a flush sample too; small
	// campaigns flush only there.
	rounds := 0
	for ; rounds < 100 && (rounds == 0 || len(flushes) < 2*minBeyond); rounds++ {
		dirs = dirs[:0]
		for c, results := range campaigns {
			dir := filepath.Join(b.tmp, fmt.Sprintf("checkpoint-%d-%d", rounds, c))
			dirs = append(dirs, dir)
			cp, err := serve.OpenCheckpoint(dir)
			if err != nil {
				return err
			}
			for _, cr := range results {
				start := time.Now()
				if err := cp.Record(cr); err != nil {
					return err
				}
				record += time.Since(start)
				if cp.Pending() >= serve.DefaultFlushEvery {
					start := time.Now()
					if err := cp.Flush(); err != nil {
						return err
					}
					flushes = append(flushes, float64(time.Since(start))/1e6)
				}
			}
			start := time.Now()
			if err := cp.Close(); err != nil {
				return err
			}
			flushes = append(flushes, float64(time.Since(start))/1e6)
		}
	}
	put("serve.record_us_per_cell", "us", float64(record)/1e3/(n*float64(rounds)))
	v, err := percentile(flushes, 0.5)
	if err != nil {
		return fmt.Errorf("serve.flush_ms_p50: %w", err)
	}
	put("serve.flush_ms_p50", "ms", v)
	var size int64
	for _, dir := range dirs {
		for _, f := range []string{"results.ndjson", "ranges.log"} {
			st, err := os.Stat(filepath.Join(dir, f))
			if err != nil {
				return err
			}
			size += st.Size()
		}
	}
	put("serve.checkpoint_bytes_per_cell", "B", float64(size)/n)
	per, err = repeatFor(func() error {
		for c, dir := range dirs {
			cp, err := serve.OpenCheckpoint(dir)
			if err != nil {
				return err
			}
			if got := len(cp.Recovered()); got != len(campaigns[c]) {
				cp.Close()
				return fmt.Errorf("checkpoint recovered %d of %d results", got, len(campaigns[c]))
			}
			if err := cp.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("serve.recover_us_per_cell", "us", float64(per)/1e3/n)
	return nil
}

// leaseBook follows one fleet campaign's lease traffic through the
// coordinator middleware: who held which lease when, who was told to
// wait, and how much the uploads weighed.
type leaseBook struct {
	mu         sync.Mutex
	start      int64
	readyAt    int64
	grants     map[string]grant // lease id -> holder
	busy       map[string]int64 // worker -> ns holding a lease
	waitUntil  map[string]int64 // worker -> end of its Retry-After sleep, if its last answer was "wait"
	leases     int
	waits      int
	heartbeats int
	upload     int64 // /v1/complete request bytes
}

type grant struct {
	worker string
	at     int64
}

func newLeaseBook(start int64) *leaseBook {
	return &leaseBook{start: start, grants: map[string]grant{}, busy: map[string]int64{}, waitUntil: map[string]int64{}}
}

func (b *leaseBook) observe(r *http.Request, leaseBody []byte, reqBytes int64, end int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	q := r.URL.Query()
	switch r.URL.Path {
	case "/v1/lease":
		var lr coord.LeaseResponse
		if json.Unmarshal(leaseBody, &lr) != nil {
			return
		}
		worker := q.Get("worker")
		delete(b.waitUntil, worker)
		switch lr.Status {
		case "lease":
			b.leases++
			b.grants[lr.Lease] = grant{worker: worker, at: end}
		case "wait":
			b.waits++
			b.waitUntil[worker] = end + lr.RetryMs*1e6
		}
	case "/v1/heartbeat":
		b.heartbeats++
	case "/v1/complete":
		b.upload += reqBytes
		if g, ok := b.grants[q.Get("lease")]; ok {
			b.busy[g.worker] += end - g.at
		}
	}
}

func (b *leaseBook) ready(at int64) {
	b.mu.Lock()
	b.readyAt = at
	b.mu.Unlock()
}

// tailIdle is how long the workers would still have slept after the
// report was ready, had the benchmark not canceled them.
func (b *leaseBook) tailIdle() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var idle int64
	for _, until := range b.waitUntil {
		idle = max(idle, until-b.readyAt)
	}
	return idle
}
