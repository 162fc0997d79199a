package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"meetpoly"
	"meetpoly/internal/campaign"
	"meetpoly/internal/faultinject"
)

// collectThenEmit is the replay RunShard made before recovery streamed:
// re-merge ranges.log, decode the whole of results.ndjson (trust ends
// at the first torn or corrupt line, the first sealed copy of an index
// wins), then re-encode the recovered results in want, in log order.
// It also returns how many bytes of each log that recovery kept when
// it truncated their torn tails.
func collectThenEmit(t *testing.T, dir string, want *campaign.IndexSet) (lines [][]byte, rangesGood, resultsGood int) {
	t.Helper()
	var sealed campaign.IndexSet
	data, _ := os.ReadFile(filepath.Join(dir, rangesFile))
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break
		}
		var lo, hi int
		if n, err := fmt.Sscanf(string(data[off:off+nl]), "%d %d", &lo, &hi); n != 2 || err != nil || lo < 0 || hi < lo {
			break
		}
		sealed.AddRange(lo, hi)
		off += nl + 1
		rangesGood = off
	}
	var recovered []meetpoly.SweepCellResult
	var loaded campaign.IndexSet
	data, _ = os.ReadFile(filepath.Join(dir, resultsFile))
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break
		}
		var cr meetpoly.SweepCellResult
		if err := json.Unmarshal(data[off:off+nl], &cr); err != nil {
			break
		}
		if sealed.Contains(cr.Cell.Index) && loaded.Add(cr.Cell.Index) {
			recovered = append(recovered, cr)
		}
		off += nl + 1
		resultsGood = off
	}
	for _, cr := range recovered {
		if !want.Contains(cr.Cell.Index) {
			continue
		}
		line, err := json.Marshal(cr)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, append(line, '\n'))
	}
	return lines, rangesGood, resultsGood
}

// readLogs returns the bytes of a checkpoint's two logs.
func readLogs(t *testing.T, dir string) [2][]byte {
	t.Helper()
	var out [2][]byte
	for i, name := range []string{resultsFile, rangesFile} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out
}

// requireLogsUntouched fails unless dir's logs hold before's bytes and
// no file in dir is open in this process (checked where /proc/self/fd
// lists the process's descriptors).
func requireLogsUntouched(t *testing.T, dir string, before [2][]byte) {
	t.Helper()
	if after := readLogs(t, dir); !bytes.Equal(after[0], before[0]) || !bytes.Equal(after[1], before[1]) {
		t.Fatalf("logs changed:\nresults %d -> %d bytes\nranges %q -> %q", len(before[0]), len(after[0]), before[1], after[1])
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return
	}
	real, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, real+string(filepath.Separator)) {
			t.Fatalf("%s is still open", target)
		}
	}
}

func appendLogs(t *testing.T, dir, results, ranges string) {
	t.Helper()
	appendFile(t, filepath.Join(dir, resultsFile), results)
	appendFile(t, filepath.Join(dir, rangesFile), ranges)
}

// TestReplayMatchesCollectThenEmit: recovery that streams each line as
// it verifies it replays exactly the lines, in the same order, that
// the collect-then-emit recovery did, and truncates the same torn
// tails, over torn tails, a corrupt middle line, a corrupt range
// record, a duplicate boundary record, unsealed results and a ?ranges=
// subset.
func TestReplayMatchesCollectThenEmit(t *testing.T) {
	ctx := context.Background()
	spec := serveSpec()
	total, err := meetpoly.CountSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	byIndex := make([]meetpoly.SweepCellResult, total)
	for cr, err := range newServeEngine().SweepStream(ctx, spec) {
		if err != nil {
			t.Fatal(err)
		}
		byIndex[cr.Cell.Index] = cr
	}
	encode := func(i int) string {
		line, err := json.Marshal(byIndex[i])
		if err != nil {
			t.Fatal(err)
		}
		return string(line) + "\n"
	}
	// The base log: the first 30 cells, odd indices first, sealed five
	// at a time, so sealed ranges are fragmented and log order is not
	// index order.
	base := t.TempDir()
	cp, err := OpenCheckpoint(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, parity := range []int{1, 0} {
		for i := parity; i < 30; i += 2 {
			if err := cp.Record(byIndex[i]); err != nil {
				t.Fatal(err)
			}
			if cp.Pending() == 5 {
				if err := cp.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	baseLogs := readLogs(t, base)
	replaceLine := func(data []byte, k int, with string) []byte {
		lines := strings.SplitAfter(string(data), "\n")
		lines[k] = with
		return []byte(strings.Join(lines, ""))
	}

	damages := map[string]func(dir string){
		"sealed only": func(string) {},
		"torn tails": func(dir string) {
			appendLogs(t, dir, encode(30)[:40], "30 ")
		},
		"corrupt middle line": func(dir string) {
			os.WriteFile(filepath.Join(dir, resultsFile), replaceLine(baseLogs[0], 12, "{\"cell\":{\"index\":oops}}\n"), 0o644)
		},
		"corrupt range record": func(dir string) {
			os.WriteFile(filepath.Join(dir, rangesFile), replaceLine(baseLogs[1], 2, "3 x\n"), 0o644)
		},
		"duplicate boundary record": func(dir string) {
			// A crash between the two fsyncs re-executes the boundary
			// cell: its line lands twice, the second copy sealed later.
			appendLogs(t, dir, encode(5)+encode(30), "30 31\n")
		},
		"unsealed results": func(dir string) {
			appendLogs(t, dir, encode(31)+encode(32)+encode(3), "")
		},
		"everything": func(dir string) {
			os.WriteFile(filepath.Join(dir, rangesFile), replaceLine(baseLogs[1], 4, "9\n"), 0o644)
			appendLogs(t, dir, encode(7)+encode(33)+encode(34)[:20], "")
		},
	}
	// damaged copies the base logs into a new directory and damages them.
	damaged := func(damage func(dir string)) string {
		dir := t.TempDir()
		for i, f := range []string{resultsFile, rangesFile} {
			if err := os.WriteFile(filepath.Join(dir, f), baseLogs[i], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		damage(dir)
		return dir
	}
	subsets := map[string][]campaign.Interval{
		"whole campaign": nil,
		"ranges subset":  {{Lo: 2, Hi: 9}, {Lo: 17, Hi: 33}},
	}
	for name, damage := range damages {
		for subName, ranges := range subsets {
			var want campaign.IndexSet
			if ranges == nil {
				want.AddRange(0, total)
			}
			for _, r := range ranges {
				want.AddRange(r.Lo, r.Hi)
			}
			dir := damaged(damage)
			ref, rangesGood, resultsGood := collectThenEmit(t, dir, &want)

			var replayed [][]byte
			executing := false
			_, err := RunShard(ctx, ShardConfig{
				Engine: newServeEngine(), Spec: spec, Ranges: ranges, Dir: dir,
				onCellRun: func(int) { executing = true },
			}, func(_ meetpoly.SweepCellResult, line []byte) bool {
				if !executing {
					replayed = append(replayed, bytes.Clone(line))
				}
				return true
			})
			if err != nil {
				t.Fatalf("%s, %s: %v", name, subName, err)
			}
			if len(ref) == 0 {
				t.Fatalf("%s, %s: the reference replays nothing", name, subName)
			}
			if len(replayed) != len(ref) {
				t.Errorf("%s, %s: replayed %d lines, collect-then-emit %d", name, subName, len(replayed), len(ref))
				continue
			}
			for i := range ref {
				if !bytes.Equal(replayed[i], ref[i]) {
					t.Errorf("%s, %s: replayed line %d is\n%s\ncollect-then-emit's is\n%s", name, subName, i, replayed[i], ref[i])
				}
			}

			// Reopening a fresh copy truncates what collect-then-emit
			// truncated.
			dir = damaged(damage)
			cp, err := OpenCheckpoint(dir)
			if err != nil {
				t.Fatal(err)
			}
			cp.Close()
			if logs := readLogs(t, dir); len(logs[0]) != resultsGood || len(logs[1]) != rangesGood {
				t.Errorf("%s: recovery kept %d and %d bytes of the results and ranges logs, collect-then-emit %d and %d",
					name, len(logs[0]), len(logs[1]), resultsGood, rangesGood)
			}
		}
	}
}

// TestRunShardStopMidReplay: a consumer that stops during the replay
// gets ErrStopped, and the checkpoint is left exactly as it was — torn
// tails included, no log open — until a later open recovers every
// sealed cell.
func TestRunShardStopMidReplay(t *testing.T) {
	dir := t.TempDir()
	if _, err := RunShard(context.Background(), ShardConfig{
		Engine: newServeEngine(), Spec: serveSpec(), Dir: dir, FlushEvery: 4,
	}, nil); err != nil {
		t.Fatal(err)
	}
	appendLogs(t, dir, `{"cell":{"ind`, "36 ")
	before := readLogs(t, dir)
	total, _ := meetpoly.CountSweep(serveSpec())

	n := 0
	_, err := RunShard(context.Background(), ShardConfig{
		Engine: newServeEngine(), Spec: serveSpec(), Dir: dir,
		onCellRun: func(i int) { t.Errorf("cell %d executed during a replay", i) },
	}, func(meetpoly.SweepCellResult, []byte) bool { n++; return n < 5 })
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("run stopped mid-replay returned %v, want ErrStopped", err)
	}
	if n != 5 {
		t.Fatalf("emit saw %d results after a stop at 5", n)
	}
	requireLogsUntouched(t, dir, before)

	cp, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if got := len(cp.Recovered()); got != total {
		t.Fatalf("reopen recovered %d cells, want %d", got, total)
	}
	if logs := readLogs(t, dir); bytes.HasSuffix(logs[0], []byte("ind")) || bytes.HasSuffix(logs[1], []byte(" ")) {
		t.Fatal("the reopen that read both logs to their ends left a torn tail")
	}
}

// TestServerReplayCut: the scheduled connection cut landing during a
// replay aborts the stream and leaves the checkpoint as it was, the
// one-live-run lock is released, and the campaign still reports and
// recovers in full.
func TestServerReplayCut(t *testing.T) {
	spec := serveSpec()
	want := referenceReport(t)
	body, _ := json.Marshal(spec)
	root := t.TempDir()
	srv := New(Config{Engine: newServeEngine(), CheckpointRoot: root})
	dir, _ := srv.checkpointDir(spec)
	if _, err := RunShard(context.Background(), ShardConfig{Engine: newServeEngine(), Spec: spec, Dir: dir}, nil); err != nil {
		t.Fatal(err)
	}
	appendLogs(t, dir, `{"cell":{"ind`, "36 ")
	before := readLogs(t, dir)

	cut := New(Config{Engine: newServeEngine(), CheckpointRoot: root, Faults: faultinject.MustNew("reset=3")})
	ts := httptest.NewServer(cut.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, readErr := readAllBody(resp)
	if readErr == nil {
		t.Fatalf("replay ended cleanly (%d bytes); want a connection reset", len(raw))
	}
	if got := bytes.Count(raw, []byte("\n")); got != 3 {
		t.Fatalf("read %d complete lines before the cut, want 3", got)
	}
	for deadline := time.Now().Add(5 * time.Second); cut.m.inflight.Value() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the cut request never finished")
		}
	}
	requireLogsUntouched(t, dir, before)

	// The lock is free: a report request is admitted, replays the
	// whole campaign and matches the uninterrupted run.
	resp, err = http.Post(ts.URL+"/v1/sweep/report", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := readAllBody(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report after the cut: status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("report after a replay cut diverges from the uninterrupted run")
	}
	cp, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if total, _ := meetpoly.CountSweep(spec); len(cp.Recovered()) != total {
		t.Fatalf("reopen recovered %d cells, want %d", len(cp.Recovered()), total)
	}
}

func readAllBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}
