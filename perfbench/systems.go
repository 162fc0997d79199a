package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"meetpoly"
	"meetpoly/internal/campaign"
	"meetpoly/internal/serve"
	"meetpoly/internal/serve/client"
	"meetpoly/internal/serve/coord"
)

// reply is what one request returned, as its caller saw it.
type reply struct {
	report  []byte // the `rvsweep -json` encoding of the report
	rep     *meetpoly.SweepReport
	first   time.Duration              // request to first cell result
	wall    time.Duration              // request to folded report
	results []meetpoly.SweepCellResult // in-process, when collecting
	book    *leaseBook                 // fleet, when traced
}

// system is one public surface under load. request answers one
// campaign; tr, when non-nil, receives spans under request id req.
type system interface {
	request(ctx context.Context, spec meetpoly.SweepSpec, tr *tracer, req int32) (reply, error)
	// wireFailures counts failures seen on the wire so far: non-2xx
	// responses and client retries.
	wireFailures() int
	close()
}

// productionEngine is the engine rvserved builds with its default flags.
func productionEngine(opts ...meetpoly.Option) *meetpoly.Engine {
	return meetpoly.NewEngine(append([]meetpoly.Option{meetpoly.WithMaxN(6), meetpoly.WithSeed(1)}, opts...)...)
}

func marshalReport(rep *meetpoly.SweepReport) ([]byte, error) {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// inproc folds Engine.SweepStream through campaign.Aggregator, which is
// exactly what Engine.Sweep does, with the first cell observable.
type inproc struct {
	eng     *meetpoly.Engine
	collect bool // keep every cell result (the traced ledger replays them)

	// With reg (the engine's telemetry) set, lanes tallies batch-lane
	// cells and all cells separately for untraced [0] and traced [1]
	// requests.
	reg   *meetpoly.Metrics
	lanes [2][2]float64
}

// laneCounts reads the engine's batch-lane and judged-cell counters.
func laneCounts(reg *meetpoly.Metrics) [2]float64 {
	return [2]float64{counter(reg, "meetpoly_engine_batch_cells_total"), counter(reg, "meetpoly_engine_cells_total")}
}

func (s *inproc) request(ctx context.Context, spec meetpoly.SweepSpec, tr *tracer, req int32) (reply, error) {
	var r reply
	if s.reg != nil {
		mode := 0
		if tr != nil {
			mode = 1
		}
		before := laneCounts(s.reg)
		defer func() {
			after := laneCounts(s.reg)
			s.lanes[mode][0] += after[0] - before[0]
			s.lanes[mode][1] += after[1] - before[1]
		}()
	}
	start := time.Now()
	agg := campaign.NewAggregator(spec, nil)
	var root, sweep int32
	var seq iter.Seq2[meetpoly.SweepCellResult, error]
	if tr == nil {
		seq = s.eng.SweepStream(ctx, spec)
	} else {
		// The default suite, each oracle wrapped in a span: the same
		// checks Engine.Sweep runs, with judge time attributed.
		root = tr.open("bench.request", 0, req)
		sweep = tr.open("engine.sweep", root, req)
		suite := timedOracles(campaign.DefaultOracles(s.eng.BoundModel()), tr, sweep, req)
		seq = s.eng.SweepStreamWithOracles(ctx, spec, suite...)
	}
	for cr, err := range seq {
		if err != nil {
			return r, err
		}
		if r.first == 0 {
			r.first = time.Since(start)
		}
		if tr != nil {
			a := tr.now()
			agg.Add(cr)
			tr.add("campaign.aggregate", a, tr.now(), sweep, req)
		} else {
			agg.Add(cr)
		}
		if s.collect {
			r.results = append(r.results, cr)
		}
	}
	if tr != nil {
		tr.close(sweep)
		a := tr.now()
		r.rep = agg.Report()
		tr.add("campaign.aggregate", a, tr.now(), root, req)
		tr.close(root)
	} else {
		r.rep = agg.Report()
	}
	r.wall = time.Since(start)
	var err error
	r.report, err = marshalReport(r.rep)
	return r, err
}

func (s *inproc) wireFailures() int { return 0 }
func (s *inproc) close()            {}

// statusWriter records the status a handler wrote and, when capture is
// set, the body. It forwards Flush so NDJSON streaming still flushes
// per line through it.
type statusWriter struct {
	http.ResponseWriter
	status  int
	capture bool
	body    []byte
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.capture {
		w.body = append(w.body, p...)
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// loopback serves h on a fresh 127.0.0.1:0 listener.
type loopback struct {
	hs  *http.Server
	url string
	wg  sync.WaitGroup
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return l, nil
}

func (l *loopback) close() {
	l.hs.Close() //nolint:errcheck // closing the listener and its connections
	l.wg.Wait()
}

// servedSys is one serve.Server with checkpointing on and production
// defaults, driven by one client.Client over one connection.
type servedSys struct {
	lb        *loopback
	transport *http.Transport
	cl        *client.Client
	clientReg *meetpoly.Metrics
	nonOK     atomic.Int64

	// The handler middleware parents its span under the request the
	// client is running; requests are sequential.
	tr   atomic.Pointer[tracer]
	root atomic.Int32
	req  atomic.Int32
}

func newServed(eng *meetpoly.Engine, checkpointRoot string, reg *meetpoly.Metrics) (*servedSys, error) {
	s := &servedSys{clientReg: meetpoly.NewMetrics()}
	srv := serve.New(serve.Config{Engine: eng, CheckpointRoot: checkpointRoot, Metrics: reg})
	h := srv.Handler()
	lb, err := listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		var start int64
		if tr != nil {
			start = tr.now()
		}
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		if sw.status >= 300 {
			s.nonOK.Add(1)
		}
		if tr != nil {
			tr.add("serve.handler", start, tr.now(), s.root.Load(), s.req.Load())
		}
	}))
	if err != nil {
		return nil, err
	}
	s.lb = lb
	s.transport = &http.Transport{MaxConnsPerHost: 1}
	s.cl = client.New(client.Config{BaseURL: lb.url, HTTP: &http.Client{Transport: s.transport}, Metrics: s.clientReg})
	return s, nil
}

func (s *servedSys) request(ctx context.Context, spec meetpoly.SweepSpec, tr *tracer, req int32) (reply, error) {
	var r reply
	if tr != nil {
		s.root.Store(tr.open("client.sweep", 0, req))
		s.req.Store(req)
		s.tr.Store(tr)
		defer s.tr.Store(nil)
	}
	start := time.Now()
	rep, err := s.cl.Sweep(ctx, spec, func(meetpoly.SweepCellResult) bool {
		if r.first == 0 {
			r.first = time.Since(start)
		}
		return true
	})
	r.wall = time.Since(start)
	if tr != nil {
		tr.close(s.root.Load())
	}
	if err != nil {
		return r, err
	}
	r.rep = rep
	r.report, err = marshalReport(rep)
	return r, err
}

func (s *servedSys) wireFailures() int {
	return int(s.nonOK.Load()) + int(counter(s.clientReg, "meetpoly_client_retries_total"))
}

func (s *servedSys) close() {
	s.lb.close()
	s.transport.CloseIdleConnections()
}

// counter sums every series of a counter family in a registry.
func counter(reg *meetpoly.Metrics, name string) float64 {
	t := 0.0
	for _, p := range reg.Snapshot() {
		if p.Name == name {
			t += p.Value
		}
	}
	return t
}

// fleetSys runs each campaign on a new coordinator with a loopback
// listener of its own, and two workers, each with its own parallelism-1
// engine that stays warm across campaigns. Like `rvserved -coordinator`
// without -checkpoints, workers keep no checkpoint, so a repeated
// campaign runs again in full. A campaign's listener closes with it, so
// a request a canceled worker left in flight can never take a lease on
// the next campaign's coordinator.
type fleetSys struct {
	engines   []*meetpoly.Engine
	transport *http.Transport
	httpc     *http.Client
	nonOK     atomic.Int64
}

// campaignRun is the middleware around one campaign's coordinator.
type campaignRun struct {
	f     *fleetSys
	c     *coord.Coordinator
	h     http.Handler
	start time.Time
	done  chan struct{}
	once  sync.Once
	first atomic.Int64 // ns from start to the first folded completion

	tr        *tracer
	root, req int32
	leases    *leaseBook
}

func newFleet(workers int, opts ...meetpoly.Option) *fleetSys {
	f := &fleetSys{}
	for i := 0; i < workers; i++ {
		f.engines = append(f.engines, productionEngine(append([]meetpoly.Option{meetpoly.WithParallelism(1)}, opts...)...))
	}
	f.transport = &http.Transport{MaxConnsPerHost: workers}
	f.httpc = &http.Client{Transport: f.transport}
	return f
}

func (run *campaignRun) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var start int64
	var body *countingReader
	if run.tr != nil {
		start = run.tr.now()
		body = &countingReader{r: r.Body}
		r.Body = body
	}
	sw := &statusWriter{ResponseWriter: w, capture: run.tr != nil && r.URL.Path == "/v1/lease"}
	run.h.ServeHTTP(sw, r)
	if sw.status >= 300 {
		run.f.nonOK.Add(1)
	}
	if r.URL.Path == "/v1/complete" {
		run.first.CompareAndSwap(0, int64(time.Since(run.start)))
		if run.c.Done() {
			run.once.Do(func() { close(run.done) })
		}
	}
	if run.tr != nil {
		end := run.tr.now()
		run.tr.add("coord."+filepath.Base(r.URL.Path), start, end, run.root, run.req)
		run.leases.observe(r, sw.body, body.n, end)
	}
}

func (f *fleetSys) request(ctx context.Context, spec meetpoly.SweepSpec, tr *tracer, req int32) (reply, error) {
	var r reply
	start := time.Now()
	c, err := coord.New(coord.Config{Spec: spec})
	if err != nil {
		return r, err
	}
	run := &campaignRun{f: f, c: c, h: c.Handler(), start: start, done: make(chan struct{}), tr: tr, req: req}
	if tr != nil {
		run.root = tr.open("bench.campaign", 0, req)
		run.leases = newLeaseBook(tr.now())
	}
	lb, err := listen(run)
	if err != nil {
		return r, err
	}
	defer f.transport.CloseIdleConnections()
	defer lb.close()

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	exits := make(chan error, len(f.engines))
	for i, eng := range f.engines {
		go func() {
			exits <- coord.RunWorker(wctx, coord.WorkerConfig{
				Coordinator: lb.url, Engine: eng, Name: fmt.Sprintf("w%d", i), HTTP: f.httpc,
			})
		}()
	}
	running := len(f.engines)
	var workerErr error
	// Wait for the coordinator to fold the last completion, not for the
	// workers: a worker told to wait sleeps a whole Retry-After before it
	// would learn the campaign is done.
wait:
	for {
		select {
		case <-run.done:
			break wait
		case err := <-exits:
			running--
			if err != nil && workerErr == nil {
				workerErr = err
			}
			if running == 0 {
				if !c.Done() {
					return r, fmt.Errorf("fleet: workers exited before the campaign finished: %v", workerErr)
				}
				break wait
			}
		}
	}
	report, err := f.fetchReport(ctx, lb.url)
	r.wall = time.Since(start)
	if tr != nil {
		run.leases.ready(tr.now())
		tr.close(run.root)
	}
	r.first = time.Duration(run.first.Load())
	cancel()
	for ; running > 0; running-- {
		if err := <-exits; err != nil && !errors.Is(err, context.Canceled) && workerErr == nil {
			workerErr = err
		}
	}
	if err != nil {
		return r, err
	}
	if workerErr != nil {
		return r, fmt.Errorf("fleet worker: %w", workerErr)
	}
	r.report = report
	r.rep = &meetpoly.SweepReport{}
	if err := json.Unmarshal(report, r.rep); err != nil {
		return r, fmt.Errorf("fleet report: %w", err)
	}
	r.book = run.leases
	return r, nil
}

func (f *fleetSys) fetchReport(ctx context.Context, base string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/report", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/report: %s", resp.Status)
	}
	return body, nil
}

func (f *fleetSys) wireFailures() int { return int(f.nonOK.Load()) }

func (f *fleetSys) close() { f.transport.CloseIdleConnections() }

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }
