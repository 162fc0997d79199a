package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"meetpoly"
	"meetpoly/internal/campaign"
	"meetpoly/internal/faultinject"
)

// serveSpec is the campaign the service tests run: 48 cells over 3
// unique graphs, small enough to execute in milliseconds but large
// enough that a FlushEvery-8 crash leaves real gaps to resume.
func serveSpec() meetpoly.SweepSpec {
	return meetpoly.SweepSpec{
		Name:  "serve",
		Seed:  "serve-v1",
		Kinds: []string{"rendezvous", "esst"},
		Graphs: []meetpoly.SweepGraphAxis{
			{Kind: "path", Sizes: []int{3, 4}},
			{Kind: "ring", Sizes: []int{4}},
		},
		StartPairs:  2,
		LabelPairs:  2,
		Adversaries: []string{"", "avoider"},
		Budget:      3000,
		Moves:       60,
	}
}

const serveSpecGraphs = 3 // unique graphs serveSpec expands to

func newServeEngine() *meetpoly.Engine {
	return meetpoly.NewEngine(meetpoly.WithMaxN(6), meetpoly.WithSeed(1))
}

// referenceReport is the uninterrupted single-process truth every
// resumed/sharded run must reproduce byte-identically, in the exact
// encoding `rvsweep -json` and /v1/sweep/report emit.
func referenceReport(t *testing.T) []byte {
	t.Helper()
	rep, err := newServeEngine().Sweep(context.Background(), serveSpec())
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func reportBytes(t *testing.T, rep *meetpoly.SweepReport) []byte {
	t.Helper()
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestRunShardCrashResume is the crash/resume equivalence test: a shard
// killed mid-campaign (after two durable flushes, no clean shutdown)
// restarts in the same checkpoint dir and must (a) produce the
// byte-identical report an uninterrupted run produces, and (b) not
// re-execute a single sealed cell — proven by a counting hook on fresh
// executions plus the engine's cache accounting.
func TestRunShardCrashResume(t *testing.T) {
	ctx := context.Background()
	spec := serveSpec()
	total, err := meetpoly.CountSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceReport(t)
	dir := t.TempDir()

	// Run 1: crash after the second flush (16 cells sealed of 48). The
	// checkpoint is abandoned mid-flight — no final flush, no close —
	// the in-process equivalent of kill -9, scheduled by the fault
	// injector the chaos harness uses.
	crashed := 0
	_, err = RunShard(ctx, ShardConfig{
		Engine: newServeEngine(), Spec: spec, Dir: dir,
		FlushEvery: 8, Faults: faultinject.MustNew("kill=2"),
		onCellRun: func(int) { crashed++ },
	}, func(meetpoly.SweepCellResult) bool { return true })
	if !errors.Is(err, faultinject.ErrKilled) {
		t.Fatalf("crash run returned %v, want injected kill", err)
	}
	if crashed >= total {
		t.Fatalf("crash run executed all %d cells; crash point never interrupted it", crashed)
	}

	// Inspect the durable state the crash left behind.
	cp, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	sealed := cp.Completed()
	recovered := len(cp.Recovered())
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	if sealed.Len() != 16 {
		t.Fatalf("crash sealed %d cells, want 16 (2 flushes of 8)", sealed.Len())
	}
	if recovered != 16 {
		t.Fatalf("recovery loaded %d results, want 16", recovered)
	}
	gaps := sealed.Gaps(0, total)

	// Run 2: resume on a fresh engine (a restarted process has cold
	// caches). Every sealed cell must replay from the log, never rerun.
	resumeEng := newServeEngine()
	var executed campaign.IndexSet
	rep, err := RunShard(ctx, ShardConfig{
		Engine: resumeEng, Spec: spec, Dir: dir, FlushEvery: 8,
		onCellRun: func(i int) {
			if !executed.Add(i) {
				t.Errorf("cell %d executed twice in one run", i)
			}
			if sealed.Contains(i) {
				t.Errorf("sealed cell %d re-executed after resume", i)
			}
		},
	}, func(meetpoly.SweepCellResult) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if executed.Len() != total-16 {
		t.Fatalf("resume executed %d cells, want %d", executed.Len(), total-16)
	}
	if got := reportBytes(t, rep); !bytes.Equal(got, want) {
		t.Fatalf("resumed report diverges from uninterrupted run:\n got %s\nwant %s", got, want)
	}

	// Cache accounting corroborates the hook: the full-spec pre-pass
	// builds each unique graph exactly once (misses); each freshly
	// executed cell hits, plus one warm pre-pass per extra gap.
	st := resumeEng.CacheStats()
	if st.Misses != serveSpecGraphs {
		t.Errorf("resume engine cache misses = %d, want %d (one build per unique graph)", st.Misses, serveSpecGraphs)
	}
	wantHits := int64(total-16) + int64(serveSpecGraphs*(len(gaps)-1))
	if st.Hits != wantHits {
		t.Errorf("resume engine cache hits = %d, want %d (%d fresh cells + %d warm pre-passes over %d gaps)",
			st.Hits, wantHits, total-16, len(gaps)-1, len(gaps))
	}

	// Run 3: the campaign is complete; another run replays everything
	// and executes nothing.
	rep3, err := RunShard(ctx, ShardConfig{
		Engine: newServeEngine(), Spec: spec, Dir: dir,
		onCellRun: func(i int) { t.Errorf("completed campaign re-executed cell %d", i) },
	}, func(meetpoly.SweepCellResult) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep3); !bytes.Equal(got, want) {
		t.Fatalf("replayed report diverges from uninterrupted run")
	}
}

// TestRunShardPartition: disjoint range slices, each run on a fresh
// engine with its own checkpoint dir, stay inside their ranges, emit
// every cell once between them, and fold into the uninterrupted
// single-process report.
func TestRunShardPartition(t *testing.T) {
	ctx := context.Background()
	spec := serveSpec()
	total, err := meetpoly.CountSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceReport(t)

	for _, slicesOf := range [][][]campaign.Interval{
		{{{Lo: 0, Hi: total / 2}}, {{Lo: total / 2, Hi: total}}},
		{{{Lo: 0, Hi: 5}, {Lo: 30, Hi: total}}, {{Lo: 5, Hi: 17}}, {{Lo: 17, Hi: 30}}},
	} {
		agg := campaign.NewAggregator(spec, nil)
		var seen campaign.IndexSet
		for _, ranges := range slicesOf {
			var own campaign.IndexSet
			for _, r := range ranges {
				own.AddRange(r.Lo, r.Hi)
			}
			_, err := RunShard(ctx, ShardConfig{
				Engine: newServeEngine(), Spec: spec,
				Ranges: ranges,
				Dir:    t.TempDir(),
			}, func(cr meetpoly.SweepCellResult) bool {
				if !own.Contains(cr.Cell.Index) {
					t.Fatalf("slice %v emitted out-of-range cell %d", ranges, cr.Cell.Index)
				}
				if !seen.Add(cr.Cell.Index) {
					t.Fatalf("cell %d emitted by two slices", cr.Cell.Index)
				}
				agg.Add(cr)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if seen.Len() != total {
			t.Fatalf("%d slices emitted %d cells, want %d", len(slicesOf), seen.Len(), total)
		}
		if got := reportBytes(t, agg.Report()); !bytes.Equal(got, want) {
			t.Fatalf("%d-slice merged report diverges from single-process run", len(slicesOf))
		}
	}
}

// TestRunShardEmitStop: the consumer breaking the stream stops the run
// with ErrStopped and keeps whatever was already sealed.
func TestRunShardEmitStop(t *testing.T) {
	dir := t.TempDir()
	n := 0
	_, err := RunShard(context.Background(), ShardConfig{
		Engine: newServeEngine(), Spec: serveSpec(), Dir: dir, FlushEvery: 4,
	}, func(meetpoly.SweepCellResult) bool { n++; return n < 10 })
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped run returned %v, want ErrStopped", err)
	}
	if n != 10 {
		t.Fatalf("emit saw %d results after stop at 10", n)
	}
}

func syntheticResult(i int) meetpoly.SweepCellResult {
	return meetpoly.SweepCellResult{
		Cell:    meetpoly.SweepCell{Index: i, ID: "synth", Seed: campaign.CellSeed("synth", i)},
		Outcome: meetpoly.SweepOutcome{Met: true, Cost: i},
	}
}

// TestCheckpointRecovery exercises the durable log's crash edges
// directly: torn tails on both files, and a result that hit disk whose
// sealing range did not.
func TestCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	cp, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := cp.Record(syntheticResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	// A result appended without its range sealed (crash between the two
	// fsyncs) plus torn tails on both logs — all at once.
	unsealed, _ := json.Marshal(syntheticResult(7))
	appendFile(t, filepath.Join(dir, resultsFile), string(unsealed)+"\n{\"cell\":{\"ind")
	appendFile(t, filepath.Join(dir, rangesFile), "9 ")
	cp.abandon()

	cp2, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if got := cp2.Completed().Ranges(); len(got) != 1 || got[0] != (campaign.Interval{Lo: 0, Hi: 5}) {
		t.Fatalf("recovered sealed ranges %+v, want [{0 5}]", got)
	}
	if got := len(cp2.Recovered()); got != 5 {
		t.Fatalf("recovered %d results, want 5 (the unsealed one must be dropped)", got)
	}
	for _, cr := range cp2.Recovered() {
		if cr.Cell.Index == 7 {
			t.Fatal("result outside any sealed range was trusted")
		}
	}
	// Both torn tails must have been truncated so appends stay clean.
	for _, f := range []string{resultsFile, rangesFile} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 0 && data[len(data)-1] != '\n' {
			t.Errorf("%s still ends mid-line after recovery", f)
		}
	}
	// And the reopened checkpoint keeps working: seal one more cell and
	// recover all six.
	if err := cp2.Record(syntheticResult(5)); err != nil {
		t.Fatal(err)
	}
	if err := cp2.Flush(); err != nil {
		t.Fatal(err)
	}
	cp3, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cp3.Close()
	if got := len(cp3.Recovered()); got != 6 {
		t.Fatalf("after post-recovery append, recovered %d results, want 6", got)
	}
}

func appendFile(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := io.WriteString(f, s); err != nil {
		t.Fatal(err)
	}
}

// TestServerSweepEndpoints drives the HTTP surface end to end: the
// NDJSON stream yields every cell plus a done trailer, and the report
// endpoint's bytes diff clean against a local single-process run.
func TestServerSweepEndpoints(t *testing.T) {
	spec := serveSpec()
	total, err := meetpoly.CountSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceReport(t)
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}

	srv := New(Config{Engine: newServeEngine(), CheckpointRoot: t.TempDir()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != total+1 {
		t.Fatalf("stream has %d lines, want %d cells + 1 trailer", len(lines), total)
	}
	var seen campaign.IndexSet
	for _, line := range lines[:total] {
		var cr meetpoly.SweepCellResult
		if err := json.Unmarshal([]byte(line), &cr); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if !seen.Add(cr.Cell.Index) {
			t.Fatalf("cell %d streamed twice", cr.Cell.Index)
		}
	}
	var trailer streamTrailer
	if err := json.Unmarshal([]byte(lines[total]), &trailer); err != nil {
		t.Fatal(err)
	}
	if !trailer.Done || trailer.Cells != total || trailer.Error != "" {
		t.Fatalf("trailer %+v, want done with %d cells", trailer, total)
	}

	// The report endpoint replays the checkpointed campaign — nothing
	// re-executes — and must still match the local run byte-for-byte.
	resp2, err := http.Post(ts.URL+"/v1/sweep/report", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	got, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("report status %d: %s", resp2.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served report diverges from local run:\n got %s\nwant %s", got, want)
	}
}

// TestServerBudgetResume: a request whose budget expires mid-campaign
// still ends cleanly (canceled cells are data), nothing canceled is
// checkpointed, and an unbudgeted follow-up request completes the
// campaign to the byte-identical uninterrupted report.
func TestServerBudgetResume(t *testing.T) {
	spec := serveSpec()
	want := referenceReport(t)
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Engine: newServeEngine(), CheckpointRoot: t.TempDir()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/sweep?budget_ms=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budgeted stream status %d", resp.StatusCode)
	}

	resp2, err := http.Post(ts.URL+"/v1/sweep/report", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	got, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-budget resume diverges from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestServerAdmission covers the refusal matrix: per-tenant quota
// (429), checkpoint-dir collision (409), drain (503), and release
// restoring capacity.
func TestServerAdmission(t *testing.T) {
	srv := New(Config{Engine: newServeEngine(), MaxTenantSweeps: 1})

	rel1 := srv.admit(httptest.NewRecorder(), "alice", "camp-a")
	if rel1 == nil {
		t.Fatal("first admit refused")
	}
	w := httptest.NewRecorder()
	if srv.admit(w, "alice", "camp-b") != nil || w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota admit: got release=%v code=%d, want 429 refusal", false, w.Code)
	}
	w = httptest.NewRecorder()
	if srv.admit(w, "bob", "camp-a") != nil || w.Code != http.StatusConflict {
		t.Fatalf("same-checkpoint admit: code=%d, want 409", w.Code)
	}
	if rel2 := srv.admit(httptest.NewRecorder(), "bob", "camp-b"); rel2 == nil {
		t.Fatal("independent tenant+campaign refused")
	} else {
		rel2()
	}
	rel1()
	if rel := srv.admit(httptest.NewRecorder(), "alice", "camp-a"); rel == nil {
		t.Fatal("admit refused after release")
	} else {
		rel()
	}

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	w = httptest.NewRecorder()
	if srv.admit(w, "carol", "camp-c") != nil || w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining admit: code=%d, want 503", w.Code)
	}
}

// TestServerRejects covers the request-shape refusals. None of them
// is admitted, so none counts as served or holds an in-flight slot.
func TestServerRejects(t *testing.T) {
	srv := New(Config{Engine: newServeEngine(), MaxCells: 10})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	specJSON, _ := json.Marshal(serveSpec())

	if code := post("/v1/sweep", "{not json"); code != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", code)
	}
	if code := post("/v1/sweep", `{"seed":""}`); code != http.StatusBadRequest {
		t.Errorf("invalid spec: %d, want 400", code)
	}
	if code := post("/v1/sweep", string(specJSON)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("over MaxCells: %d, want 413", code)
	}
	small := serveSpec()
	small.Kinds = []string{"rendezvous"}
	small.Graphs = []meetpoly.SweepGraphAxis{{Kind: "path", Sizes: []int{3}}}
	small.StartPairs, small.LabelPairs = 1, 1
	small.Adversaries = []string{""}
	smallJSON, _ := json.Marshal(small)
	for _, path := range []string{
		"/v1/sweep?budget_ms=nope",
		"/v1/sweep/report?budget_ms=abc",
		"/v1/sweep?budget_ms=0",
		"/v1/sweep/report?budget_ms=-5",
	} {
		if code := post(path, string(smallJSON)); code != http.StatusBadRequest {
			t.Errorf("POST %s: %d, want 400", path, code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/sweep")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET sweep: %d, want 405", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Served   int64 `json:"served"`
		Inflight int   `json:"inflight"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Served != 0 || st.Inflight != 0 {
		t.Errorf("after refusals: served=%d inflight=%d, want 0 and 0", st.Served, st.Inflight)
	}
}

// TestServerDrainLifecycle: healthz flips to 503 on drain, sweeps are
// refused, and Drain returns once in-flight work ends.
func TestServerDrainLifecycle(t *testing.T) {
	srv := New(Config{Engine: newServeEngine()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", code)
	}
	if code := get("/v1/stats"); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: %d, want 503", code)
	}
	specJSON, _ := json.Marshal(serveSpec())
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sweep after drain: %d, want 503", resp.StatusCode)
	}
}
