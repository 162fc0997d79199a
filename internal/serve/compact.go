package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"meetpoly"
)

// CompactStats reports what Compact rewrote.
type CompactStats struct {
	Cells        int   // sealed results kept
	Ranges       int   // merged intervals after compaction
	BytesBefore  int64 // results.ndjson size before
	BytesAfter   int64 // results.ndjson size after
	RangesBefore int64 // ranges.log size before
	RangesAfter  int64 // ranges.log size after
}

// Compact rewrites a checkpoint directory's two append-only logs into
// their minimal sealed form: results.ndjson holds exactly the sealed
// results, one copy each, sorted by cell index; ranges.log holds the
// merged interval set (a completed campaign compacts to a single
// line). Duplicate records (a crash between result-append and range-
// seal re-executes the boundary cell), unsealed tails and torn lines
// are all dropped — recovery would have ignored them anyway.
//
// Crash safety is write-new / fsync / rename: each log is rewritten to
// a temporary file in the same directory, fsynced, then renamed over
// the original, and the directory is fsynced after each rename. Both
// orders of a mid-compaction crash are safe: the old and new file
// contents describe the same sealed set, so recovery reads an
// equivalent checkpoint whichever mix of old/new files it finds.
//
// Compact must not run concurrently with a live writer on the same
// directory — rvserved's one-live-run lock (409) is the service-level
// guard; `rvserved -compact` is the offline entry point.
func Compact(dir string) (CompactStats, error) {
	var st CompactStats
	st.BytesBefore = fileSize(filepath.Join(dir, resultsFile))
	st.RangesBefore = fileSize(filepath.Join(dir, rangesFile))

	// Recovery is the read path: it already merges intervals, truncates
	// torn tails and drops unsealed or duplicate results. Its lines are
	// the cells' one encoding, so they are kept verbatim.
	type record struct {
		index int
		line  []byte
	}
	var recovered []record
	cp, err := openCheckpoint(dir, nil, nil, func(cr meetpoly.SweepCellResult, line []byte) bool {
		recovered = append(recovered, record{cr.Cell.Index, line})
		return true
	})
	if err != nil {
		return st, err
	}
	sealed := cp.Completed()
	if err := cp.Close(); err != nil {
		return st, err
	}
	if got, want := len(recovered), sealed.Len(); got != want {
		// A sealed range whose results are missing breaks the core
		// invariant; compacting would launder the corruption into a
		// clean-looking checkpoint. Refuse and name the damage.
		return st, fmt.Errorf("serve: compact %s: checkpoint is corrupt: %d sealed indices but %d recoverable results", dir, want, got)
	}

	sort.Slice(recovered, func(i, j int) bool { return recovered[i].index < recovered[j].index })
	var res bytes.Buffer
	for _, r := range recovered {
		res.Write(r.line)
	}
	var rng bytes.Buffer
	ranges := sealed.Ranges()
	for _, iv := range ranges {
		fmt.Fprintf(&rng, "%d %d\n", iv.Lo, iv.Hi)
	}

	if err := replaceFile(dir, resultsFile, res.Bytes()); err != nil {
		return st, err
	}
	if err := replaceFile(dir, rangesFile, rng.Bytes()); err != nil {
		return st, err
	}
	st.Cells = len(recovered)
	st.Ranges = len(ranges)
	st.BytesAfter = int64(res.Len())
	st.RangesAfter = int64(rng.Len())
	return st, nil
}

// replaceFile atomically replaces dir/name with data: write a temp
// file beside it, fsync, rename, fsync the directory.
func replaceFile(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".compact-*")
	if err != nil {
		return fmt.Errorf("serve: compact: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: compact: writing %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: compact: fsync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: compact: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("serve: compact: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck // best-effort directory durability
		d.Close()
	}
	return nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
