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
	"slices"
	"strings"
	"testing"

	"meetpoly"
	"meetpoly/internal/campaign"
	"meetpoly/internal/faultinject"
)

// TestFlushPartialWriteNeverSeals is the regression test for the
// write-ordering bug the fault injector exposed: a partial (short)
// results write used to leave the staging buffer armed, so the NEXT
// flush re-appended it after the torn bytes and then sealed the
// ranges — recovery would truncate the results log at the torn line,
// dropping records that ranges.log still sealed, silently losing
// cells. A failed write must poison the checkpoint: no later flush, no
// range seal, and recovery re-executes everything unsealed.
func TestFlushPartialWriteNeverSeals(t *testing.T) {
	dir := t.TempDir()
	cp, err := OpenCheckpointFaults(dir, faultinject.MustNew("short-write=1"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := cp.Record(syntheticResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Flush(); !errors.Is(err, faultinject.ErrWrite) {
		t.Fatalf("flush over torn write returned %v, want injected write error", err)
	}
	// The checkpoint is poisoned: staging more work or retrying the
	// flush must fail without touching the logs again.
	if err := cp.Record(syntheticResult(5)); !errors.Is(err, faultinject.ErrWrite) {
		t.Fatalf("record on poisoned checkpoint returned %v", err)
	}
	if err := cp.Flush(); !errors.Is(err, faultinject.ErrWrite) {
		t.Fatalf("second flush on poisoned checkpoint returned %v", err)
	}
	if err := cp.Close(); !errors.Is(err, faultinject.ErrWrite) {
		t.Fatalf("close on poisoned checkpoint returned %v", err)
	}

	// ranges.log must be empty — the torn results were never sealed —
	// and recovery must trust nothing.
	if data, err := os.ReadFile(filepath.Join(dir, rangesFile)); err != nil || len(data) != 0 {
		t.Fatalf("ranges.log after poisoned run: %q (err %v), want empty", data, err)
	}
	cp2, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Completed().Len() != 0 || len(cp2.Recovered()) != 0 {
		t.Fatalf("recovery trusted %d sealed / %d results from a poisoned run",
			cp2.Completed().Len(), len(cp2.Recovered()))
	}
	// And the torn tail was truncated, so the reopened log appends clean.
	if data, _ := os.ReadFile(filepath.Join(dir, resultsFile)); len(data) > 0 && data[len(data)-1] != '\n' {
		t.Fatal("results.ndjson still ends mid-line after recovery")
	}
}

// TestRunShardFaultedFlushResumes: the same invariant end to end — a
// budget-canceled run whose final flush-on-close hits an injected
// fsync error must not seal anything it didn't sync, and a clean
// resume still converges to the byte-identical report.
func TestRunShardFaultedFlushResumes(t *testing.T) {
	ctx := context.Background()
	spec := serveSpec()
	want := referenceReport(t)
	dir := t.TempDir()

	// sync-err=1 fails the first results fsync: the first periodic
	// flush dies, the run aborts with the checkpoint poisoned.
	_, err := RunShard(ctx, ShardConfig{
		Engine: newServeEngine(), Spec: spec, Dir: dir,
		FlushEvery: 8, Faults: faultinject.MustNew("sync-err=1"),
	}, func(meetpoly.SweepCellResult) bool { return true })
	if !errors.Is(err, faultinject.ErrSync) {
		t.Fatalf("faulted run returned %v, want injected fsync error", err)
	}
	cp, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	sealedAfterFault := cp.Completed().Len()
	cp.Close()
	if sealedAfterFault != 0 {
		t.Fatalf("faulted run sealed %d cells despite the failed fsync", sealedAfterFault)
	}

	rep, err := RunShard(ctx, ShardConfig{
		Engine: newServeEngine(), Spec: spec, Dir: dir, FlushEvery: 8,
	}, func(meetpoly.SweepCellResult) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep); !bytes.Equal(got, want) {
		t.Fatalf("post-fault resume diverges from uninterrupted run")
	}
}

// TestRunShardRanges: explicit ranges run exactly their cells, once
// each, and ranges reaching past [0, total) are clamped to it.
func TestRunShardRanges(t *testing.T) {
	ctx := context.Background()
	spec := serveSpec()
	total, err := meetpoly.CountSweep(spec)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct{ ranges, want []campaign.Interval }{
		{
			ranges: []campaign.Interval{{Lo: 3, Hi: 7}, {Lo: 20, Hi: 22}},
			want:   []campaign.Interval{{Lo: 3, Hi: 7}, {Lo: 20, Hi: 22}},
		},
		{
			ranges: []campaign.Interval{{Lo: -5, Hi: 2}, {Lo: total - 1, Hi: total + 9}},
			want:   []campaign.Interval{{Lo: 0, Hi: 2}, {Lo: total - 1, Hi: total}},
		},
	} {
		var got campaign.IndexSet
		_, err := RunShard(ctx, ShardConfig{
			Engine: newServeEngine(), Spec: spec, Ranges: c.ranges,
		}, func(cr meetpoly.SweepCellResult) bool {
			if !got.Add(cr.Cell.Index) {
				t.Errorf("ranges %v emitted cell %d twice", c.ranges, cr.Cell.Index)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Ranges(), c.want) {
			t.Fatalf("ranges %v emitted %v, want %v", c.ranges, got.Ranges(), c.want)
		}
	}
}

// TestServerRangesParam drives ?ranges= over HTTP: only the requested
// cells stream, and malformed ranges are 400s.
func TestServerRangesParam(t *testing.T) {
	spec := serveSpec()
	body, _ := json.Marshal(spec)
	srv := New(Config{Engine: newServeEngine()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/sweep?ranges=2-5,9-11", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ranges stream status %d", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	var got campaign.IndexSet
	for _, line := range lines[:len(lines)-1] {
		var cr meetpoly.SweepCellResult
		if err := json.Unmarshal([]byte(line), &cr); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		got.Add(cr.Cell.Index)
	}
	if got.Len() != 5 || !got.Contains(2) || !got.Contains(10) || got.Contains(5) || got.Contains(8) {
		t.Fatalf("ranges request streamed %v, want [2,5)+[9,11)", got.Ranges())
	}
	var trailer streamTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil || !trailer.Done || trailer.Cells != 5 {
		t.Fatalf("trailer %+v (err %v), want done with 5 cells", trailer, err)
	}

	for _, q := range []string{"?ranges=5-2", "?ranges=x-3", "?ranges=-1-3", "?ranges=0-99999", "?ranges=3"} {
		resp, err := http.Post(ts.URL+"/v1/sweep"+q, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestServerRetryAfter: every load-shedding refusal — tenant quota
// 429, drain 503, chaos 503 — carries the Retry-After hint the
// self-healing client honors.
func TestServerRetryAfter(t *testing.T) {
	srv := New(Config{Engine: newServeEngine(), MaxTenantSweeps: 1})
	rel := srv.admit(httptest.NewRecorder(), "alice", "")
	if rel == nil {
		t.Fatal("first admit refused")
	}
	defer rel()
	w := httptest.NewRecorder()
	srv.admit(w, "alice", "")
	if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") != "1" {
		t.Fatalf("quota refusal: code=%d Retry-After=%q, want 429 with hint", w.Code, w.Header().Get("Retry-After"))
	}

	drained := New(Config{Engine: newServeEngine()})
	if err := drained.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	w = httptest.NewRecorder()
	drained.admit(w, "bob", "")
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") != "1" {
		t.Fatalf("drain refusal: code=%d Retry-After=%q, want 503 with hint 1", w.Code, w.Header().Get("Retry-After"))
	}

	chaos := New(Config{Engine: newServeEngine(), Faults: faultinject.MustNew("unavail=1x1")})
	ts := httptest.NewServer(chaos.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("chaos refusal: code=%d Retry-After=%q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if resp, err = http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("burst of 1 must clear: second request got %d", resp.StatusCode)
	}
}

// TestServerChaosStreamReset: the scheduled mid-NDJSON cut aborts the
// connection after exactly the planned line, durable state survives,
// and a follow-up request (the client's resume) completes the
// campaign to the byte-identical report.
func TestServerChaosStreamReset(t *testing.T) {
	spec := serveSpec()
	want := referenceReport(t)
	body, _ := json.Marshal(spec)
	srv := New(Config{
		Engine:         newServeEngine(),
		CheckpointRoot: t.TempDir(),
		FlushEvery:     4,
		Faults:         faultinject.MustNew("reset=6"),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if readErr == nil {
		t.Fatalf("stream ended cleanly (%d bytes); want a mid-stream connection reset", len(raw))
	}
	if got := bytes.Count(raw, []byte("\n")); got != 6 {
		t.Fatalf("read %d complete lines before the cut, want 6", got)
	}

	resp2, err := http.Post(ts.URL+"/v1/sweep/report", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resume report status %d: %s", resp2.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-reset resume diverges from uninterrupted run")
	}
}
