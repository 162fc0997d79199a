// Package serve turns the sweep engine into a long-lived campaign
// service: it executes a campaign, or explicit ranges of its
// deterministic cell index space, with crash-safe checkpointing (a
// restarted instance resumes without recomputing a single completed
// cell, and the resumed campaign's report is byte-identical to an
// uninterrupted run), and exposes the whole pipeline over HTTP with
// per-tenant quotas, request budgets and graceful drain
// (cmd/rvserved).
//
// The package leans on three invariants the engine already provides
// (DESIGN.md §6): every cell is a pure function of its replay seed
// string, range expansion yields cell i identically no matter which
// range derives it, and the campaign aggregator folds results
// order-independently and ignores duplicate feeds. Checkpointing is
// therefore just a durable record of (cell results, completed index
// ranges); everything else is replay.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"meetpoly"
	"meetpoly/internal/campaign"
	"meetpoly/internal/faultinject"
	"meetpoly/internal/telemetry"
)

// Checkpoint file names inside a campaign's checkpoint directory.
const (
	resultsFile = "results.ndjson"
	rangesFile  = "ranges.log"
)

// Checkpoint is the durable record of one campaign's completed cells: an
// append-only NDJSON log of cell results and an append-only log of
// sealed index ranges. The write protocol makes recovery crash-safe at
// any kill point, kill -9 included:
//
//  1. completed cell results are appended (buffered) to results.ndjson;
//  2. Flush fsyncs results.ndjson, THEN appends the newly completed
//     intervals to ranges.log and fsyncs it.
//
// A range therefore never hits disk before every result it covers has.
// Recovery re-merges the interval log (union of all records), truncates
// the torn tail a crash may have left on either file, and trusts only
// results whose index lies in a sealed range — anything else is
// re-executed, never guessed. Results inside sealed ranges are exact:
// cells are pure functions of their seed strings, so a recovered result
// is byte-identical to what re-execution would produce.
type Checkpoint struct {
	dir     string
	results faultinject.WriteSyncer
	ranges  faultinject.WriteSyncer

	resBuf bytes.Buffer // results staged since the last Flush

	sealed  campaign.IndexSet // ranges on disk (recovery finds these)
	pending campaign.IndexSet // recorded to resBuf, not yet sealed

	recovered []meetpoly.SweepCellResult

	// m, when non-nil, receives the checkpoint's durability series
	// (records staged, flush/fsync latency, poison events). Telemetry
	// observes the write protocol; it never participates in it.
	m *shardMetrics

	// err poisons the checkpoint after any failed log write or fsync.
	// The append handles' positions are unknowable after a partial
	// write, and re-appending the staging buffer would leave a torn
	// line in the MIDDLE of results.ndjson: recovery truncates from the
	// first bad line, so every later record would be dropped while
	// ranges.log still sealed them — silently losing cells. A poisoned
	// checkpoint therefore refuses every further Record/Flush, and in
	// particular never appends to ranges.log, preserving the invariant
	// that a sealed range implies its results are durable. The caller
	// abandons the run; recovery on reopen truncates the torn tail and
	// re-executes everything unsealed.
	err error
}

// OpenCheckpoint opens (creating if needed) the checkpoint in dir and
// performs crash recovery: torn tails are truncated away, the sealed
// interval log is re-merged, and the results covered by sealed ranges
// are loaded for replay.
func OpenCheckpoint(dir string) (*Checkpoint, error) {
	return OpenCheckpointFaults(dir, nil)
}

// OpenCheckpointFaults is OpenCheckpoint with a fault injector wrapped
// around the write/fsync seam of both logs (nil injects nothing) — the
// chaos harness's entry point into the durable layer.
func OpenCheckpointFaults(dir string, inj *faultinject.Injector) (*Checkpoint, error) {
	return openCheckpoint(dir, inj, nil)
}

// openCheckpoint is the full-seam constructor RunShard uses: fault
// injection plus the durability metrics.
func openCheckpoint(dir string, inj *faultinject.Injector, m *shardMetrics) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: checkpoint dir: %w", err)
	}
	cp := &Checkpoint{dir: dir, m: m}
	if err := cp.recoverRanges(); err != nil {
		return nil, err
	}
	if err := cp.recoverResults(); err != nil {
		return nil, err
	}
	rf, err := os.OpenFile(filepath.Join(dir, rangesFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint ranges log: %w", err)
	}
	resf, err := os.OpenFile(filepath.Join(dir, resultsFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		rf.Close()
		return nil, fmt.Errorf("serve: checkpoint results log: %w", err)
	}
	cp.ranges = faultinject.WrapFile(rf, inj)
	cp.results = faultinject.WrapFile(resf, inj)
	return cp, nil
}

// recoverRanges re-merges the sealed interval log. Only the torn tail a
// crash can leave — a final partial line — is tolerated; it is
// truncated so appends never land after garbage.
func (cp *Checkpoint) recoverRanges() error {
	path := filepath.Join(cp.dir, rangesFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: reading %s: %w", path, err)
	}
	good := 0
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn tail: no terminating newline
		}
		line := data[off : off+nl]
		var lo, hi int
		if n, err := fmt.Sscanf(string(line), "%d %d", &lo, &hi); n != 2 || err != nil || lo < 0 || hi < lo {
			break // torn or corrupt: stop trusting from here on
		}
		cp.sealed.AddRange(lo, hi)
		off += nl + 1
		good = off
	}
	if good < len(data) {
		if err := os.Truncate(path, int64(good)); err != nil {
			return fmt.Errorf("serve: truncating torn tail of %s: %w", path, err)
		}
	}
	return nil
}

// recoverResults loads the results covered by sealed ranges, dropping
// duplicates (a crash between result-append and range-seal makes the
// re-executed cell appear twice; the copies are identical, so first
// wins) and truncating any torn tail.
func (cp *Checkpoint) recoverResults() error {
	path := filepath.Join(cp.dir, resultsFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: reading %s: %w", path, err)
	}
	var loaded campaign.IndexSet
	good := 0
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn tail
		}
		line := data[off : off+nl]
		var cr meetpoly.SweepCellResult
		if err := json.Unmarshal(line, &cr); err != nil {
			break // torn or corrupt: stop trusting from here on
		}
		if cp.sealed.Contains(cr.Cell.Index) && loaded.Add(cr.Cell.Index) {
			cp.recovered = append(cp.recovered, cr)
		}
		off += nl + 1
		good = off
	}
	if good < len(data) {
		if err := os.Truncate(path, int64(good)); err != nil {
			return fmt.Errorf("serve: truncating torn tail of %s: %w", path, err)
		}
	}
	return nil
}

// Recovered returns the cell results recovery loaded: every recorded
// cell whose index lies in a sealed range, exactly once each, in log
// order. The caller replays these instead of re-executing them.
func (cp *Checkpoint) Recovered() []meetpoly.SweepCellResult { return cp.recovered }

// Completed returns the sealed index set as of recovery plus everything
// sealed since: the indices a resuming run must NOT re-execute.
func (cp *Checkpoint) Completed() *campaign.IndexSet {
	out := &campaign.IndexSet{}
	out.AddSet(&cp.sealed)
	return out
}

// Record stages one completed cell result. It is durable only after the
// next Flush; a crash before that re-executes the cell.
func (cp *Checkpoint) Record(cr meetpoly.SweepCellResult) error {
	if cp.err != nil {
		return cp.err
	}
	line, err := json.Marshal(cr)
	if err != nil {
		return fmt.Errorf("serve: encoding checkpoint record: %w", err)
	}
	cp.resBuf.Write(line)
	cp.resBuf.WriteByte('\n')
	cp.pending.Add(cr.Cell.Index)
	if cp.m != nil {
		cp.m.recorded.Inc()
	}
	return nil
}

// Pending returns how many recorded results await the next Flush.
func (cp *Checkpoint) Pending() int { return cp.pending.Len() }

// Flush makes every staged record durable: results first (write +
// fsync), then their index intervals (append + fsync). The ordering is
// the crash-safety argument — a sealed range implies its results are on
// disk. Any write or fsync failure poisons the checkpoint (see the err
// field): retrying a partially-written append would bury a torn line
// mid-log where recovery's tail truncation silently drops every record
// after it, so the only safe continuation is to abandon this run and
// let recovery re-execute the unsealed remainder.
func (cp *Checkpoint) Flush() error {
	if cp.err != nil {
		return cp.err
	}
	if cp.pending.Len() == 0 {
		return nil
	}
	var flushStart int64
	if cp.m != nil {
		flushStart = telemetry.Now()
	}
	if _, err := cp.results.Write(cp.resBuf.Bytes()); err != nil {
		return cp.poison(fmt.Errorf("serve: appending checkpoint results: %w", err))
	}
	if err := cp.timedSync(cp.results); err != nil {
		return cp.poison(fmt.Errorf("serve: fsync checkpoint results: %w", err))
	}
	cp.resBuf.Reset()
	var rec bytes.Buffer
	for _, iv := range cp.pending.Ranges() {
		fmt.Fprintf(&rec, "%d %d\n", iv.Lo, iv.Hi)
	}
	if _, err := cp.ranges.Write(rec.Bytes()); err != nil {
		return cp.poison(fmt.Errorf("serve: appending checkpoint ranges: %w", err))
	}
	if err := cp.timedSync(cp.ranges); err != nil {
		return cp.poison(fmt.Errorf("serve: fsync checkpoint ranges: %w", err))
	}
	cp.sealed.AddSet(&cp.pending)
	cp.pending = campaign.IndexSet{}
	if cp.m != nil {
		cp.m.flushes.Inc()
		cp.m.flushNs.ObserveSince(flushStart)
	}
	return nil
}

// poison records err as the checkpoint's sticky failure (see the err
// field's crash-safety argument) and counts the event.
func (cp *Checkpoint) poison(err error) error {
	cp.err = err
	if cp.m != nil {
		cp.m.poisoned.Inc()
	}
	return err
}

// timedSync fsyncs one log, feeding the fsync-latency histogram.
func (cp *Checkpoint) timedSync(f faultinject.WriteSyncer) error {
	if cp.m == nil {
		return f.Sync()
	}
	start := telemetry.Now()
	err := f.Sync()
	cp.m.fsyncNs.ObserveSince(start)
	return err
}

// Close flushes staged records and releases the file handles.
func (cp *Checkpoint) Close() error {
	flushErr := cp.Flush()
	rErr := cp.results.Close()
	gErr := cp.ranges.Close()
	if flushErr != nil {
		return flushErr
	}
	if rErr != nil {
		return rErr
	}
	return gErr
}

// abandon drops the file handles without flushing — the in-process
// stand-in for kill -9 that crash tests use.
func (cp *Checkpoint) abandon() {
	cp.results.Close()
	cp.ranges.Close()
}
