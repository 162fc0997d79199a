package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"meetpoly"
	"meetpoly/internal/faultinject"
)

// TestCompact: an interrupted-and-resumed campaign leaves duplicate
// boundary records and a fragmented ranges.log; Compact rewrites both
// logs to their minimal sealed form, and the compacted checkpoint
// replays to the byte-identical report.
func TestCompact(t *testing.T) {
	ctx := context.Background()
	spec := serveSpec()
	want := referenceReport(t)
	dir := t.TempDir()

	// Kill after the second flush, then resume to completion: the
	// resulting logs have multiple sealed ranges and (with a small
	// flush interval) plenty of lines to shrink.
	_, err := RunShard(ctx, ShardConfig{
		Engine: newServeEngine(), Spec: spec, Dir: dir,
		FlushEvery: 4, Faults: faultinject.MustNew("kill=2"),
	}, nil)
	if !errors.Is(err, faultinject.ErrKilled) {
		t.Fatalf("chaos run returned %v, want injected kill", err)
	}
	// Simulate the crash-between-fsyncs duplicate: append a sealed
	// result again without touching ranges.log. Recovery dedupes it,
	// so Compact must drop it.
	dup, _ := os.ReadFile(filepath.Join(dir, resultsFile))
	firstLine := dup[:bytes.IndexByte(dup, '\n')+1]
	f, err := os.OpenFile(filepath.Join(dir, resultsFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(firstLine)
	f.Close()

	if _, err := RunShard(ctx, ShardConfig{
		Engine: newServeEngine(), Spec: spec, Dir: dir, FlushEvery: 4,
	}, nil); err != nil {
		t.Fatal(err)
	}

	st, err := Compact(dir)
	if err != nil {
		t.Fatal(err)
	}
	total, _ := meetpoly.CountSweep(spec)
	if st.Cells != total {
		t.Fatalf("compacted to %d cells, want %d", st.Cells, total)
	}
	if st.Ranges != 1 {
		t.Fatalf("completed campaign compacted to %d ranges, want 1", st.Ranges)
	}
	if st.BytesAfter >= st.BytesBefore {
		t.Fatalf("results.ndjson grew: %d -> %d bytes", st.BytesBefore, st.BytesAfter)
	}
	rng, err := os.ReadFile(filepath.Join(dir, rangesFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(rng)); strings.ContainsRune(got, '\n') {
		t.Fatalf("ranges.log after compaction has multiple lines:\n%s", got)
	}
	// The compacted log is every cell's json.Marshal line, in index
	// order: the recovered lines kept verbatim are those bytes.
	lines := make([][]byte, total)
	for cr, err := range newServeEngine().SweepStream(ctx, spec) {
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(cr)
		if err != nil {
			t.Fatal(err)
		}
		lines[cr.Cell.Index] = append(line, '\n')
	}
	if res, err := os.ReadFile(filepath.Join(dir, resultsFile)); err != nil || !bytes.Equal(res, bytes.Join(lines, nil)) {
		t.Fatalf("compacted results.ndjson (err %v) is not the campaign's cell lines in index order", err)
	}

	// The compacted checkpoint replays the whole campaign without
	// re-executing a single cell, to the byte-identical report.
	ran := 0
	rep, err := RunShard(ctx, ShardConfig{
		Engine: newServeEngine(), Spec: spec, Dir: dir,
		onCellRun: func(int) { ran++ },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Fatalf("%d cells re-executed after compaction", ran)
	}
	if got := reportBytes(t, rep); !bytes.Equal(got, want) {
		t.Fatal("compacted checkpoint replays to a different report")
	}

	// Compacting an already-compact checkpoint is a no-op rewrite.
	st2, err := Compact(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.BytesAfter != st.BytesAfter || st2.Cells != st.Cells || st2.Ranges != 1 {
		t.Fatalf("second compaction changed the logs: %+v vs %+v", st2, st)
	}
}

// TestCompactRefusesCorruption: a sealed range whose results are gone
// violates the checkpoint invariant; Compact must refuse rather than
// rewrite the damage into a clean-looking checkpoint.
func TestCompactRefusesCorruption(t *testing.T) {
	dir := t.TempDir()
	cp, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := cp.Record(syntheticResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	// Lose the results while keeping the seal.
	if err := os.Truncate(filepath.Join(dir, resultsFile), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Compact(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Compact on a seal-without-results checkpoint returned %v, want corruption refusal", err)
	}
}

// TestCompactEmpty: a fresh directory compacts to empty logs without
// error (0 cells, 0 ranges).
func TestCompactEmpty(t *testing.T) {
	dir := t.TempDir()
	st, err := Compact(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != 0 || st.Ranges != 0 || st.BytesAfter != 0 {
		t.Fatalf("empty compaction stats %+v", st)
	}
}
