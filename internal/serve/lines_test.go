package serve_test

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
	"sync"
	"testing"
	"time"

	"meetpoly"
	"meetpoly/internal/campaign"
	"meetpoly/internal/faultinject"
	"meetpoly/internal/serve"
	"meetpoly/internal/serve/coord"
)

// linesSpec and newLinesEngine repeat serveSpec and newServeEngine:
// this test drives a coordinator worker, and coord imports serve, so
// it lives in the external test package and cannot reach them.
func linesSpec() meetpoly.SweepSpec {
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

func newLinesEngine() *meetpoly.Engine {
	return meetpoly.NewEngine(meetpoly.WithMaxN(6), meetpoly.WithSeed(1))
}

// splitLines cuts NDJSON into its lines, each keeping its newline; a
// final unterminated fragment is dropped.
func splitLines(data []byte) [][]byte {
	var out [][]byte
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break
		}
		out = append(out, data[:nl+1])
		data = data[nl+1:]
	}
	return out
}

// cellIndex decodes the cell index of one cell line.
func cellIndex(t *testing.T, line []byte) int {
	t.Helper()
	var v struct {
		Cell struct {
			Index int `json:"index"`
		} `json:"cell"`
	}
	if err := json.Unmarshal(line, &v); err != nil {
		t.Fatalf("undecodable line %q: %v", line, err)
	}
	return v.Cell.Index
}

// byIndex maps each line of a source to its cell index, failing on a
// repeated index or an index outside want.
func byIndex(t *testing.T, source string, lines [][]byte, want *campaign.IndexSet) map[int][]byte {
	t.Helper()
	out := make(map[int][]byte, len(lines))
	for _, line := range lines {
		i := cellIndex(t, line)
		if _, dup := out[i]; dup {
			t.Fatalf("%s: cell %d appears twice", source, i)
		}
		if !want.Contains(i) {
			t.Fatalf("%s: cell %d is outside %v", source, i, want.Ranges())
		}
		out[i] = line
	}
	if len(out) != want.Len() {
		t.Fatalf("%s holds %d cells, want %d", source, len(out), want.Len())
	}
	return out
}

func counterValue(reg *meetpoly.Metrics, name string) float64 {
	for _, p := range reg.Snapshot() {
		if p.Name == name {
			return p.Value
		}
	}
	return 0
}

// TestStreamBytesAreCheckpointBytes: the service encodes each cell
// once. For every cell index, a fresh /v1/sweep stream, a full replay,
// a ?ranges= partial replay, the checkpoint's results.ndjson and a
// coordinator worker's uploads (executed and replayed from its own
// checkpoint) hold the same bytes: json.Marshal of Engine.SweepStream's
// result for that cell, plus a newline. Canceled cells appear only in
// streams.
func TestStreamBytesAreCheckpointBytes(t *testing.T) {
	ctx := context.Background()
	spec := linesSpec()
	total, err := meetpoly.CountSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int][]byte, total)
	for cr, err := range newLinesEngine().SweepStream(ctx, spec) {
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(cr)
		if err != nil {
			t.Fatal(err)
		}
		want[cr.Cell.Index] = append(line, '\n')
	}
	var all campaign.IndexSet
	all.AddRange(0, total)
	same := func(source string, got map[int][]byte) {
		t.Helper()
		for i, line := range got {
			if !bytes.Equal(line, want[i]) {
				t.Errorf("%s: cell %d\n got %s\nwant %s", source, i, line, want[i])
			}
		}
	}

	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	reg := meetpoly.NewMetrics()
	root := t.TempDir()
	srv := serve.New(serve.Config{Engine: newLinesEngine(), CheckpointRoot: root, FlushEvery: 5, Metrics: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	stream := func(query string) [][]byte {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sweep"+query, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("stream%s: status %d, err %v", query, resp.StatusCode, err)
		}
		lines := splitLines(raw)
		if len(lines) == 0 || !bytes.HasPrefix(lines[len(lines)-1], []byte(`{"done":true,`)) {
			t.Fatalf("stream%s does not end in a done trailer", query)
		}
		return lines[:len(lines)-1]
	}

	same("fresh stream", byIndex(t, "fresh stream", stream(""), &all))
	if got := counterValue(reg, "meetpoly_serve_cells_executed_total"); got != float64(total) {
		t.Fatalf("fresh stream executed %v cells, want %d", got, total)
	}
	logs, err := filepath.Glob(filepath.Join(root, "*", "results.ndjson"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("checkpoint logs %v (err %v), want one", logs, err)
	}
	data, err := os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	same("results.ndjson", byIndex(t, "results.ndjson", splitLines(data), &all))

	same("full replay", byIndex(t, "full replay", stream(""), &all))
	var part campaign.IndexSet
	part.AddRange(3, 9)
	part.AddRange(20, 25)
	same("partial replay", byIndex(t, "partial replay", stream("?ranges=3-9,20-25"), &part))
	if got := counterValue(reg, "meetpoly_serve_cells_executed_total"); got != float64(total) {
		t.Fatalf("replays executed %v cells, want none", got-float64(total))
	}
	if got := counterValue(reg, "meetpoly_serve_cells_recovered_total"); got != float64(total+part.Len()) {
		t.Fatalf("replays recovered %v cells, want %d", got, total+part.Len())
	}

	t.Run("coord uploads", func(t *testing.T) {
		c, err := coord.New(coord.Config{Spec: spec, LeaseCells: 8, LeaseTTL: 200 * time.Millisecond, RetryAfter: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var uploads [][]byte
		h := c.Handler()
		cs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/complete" {
				b, err := io.ReadAll(r.Body)
				if err != nil {
					t.Error(err)
				}
				mu.Lock()
				uploads = append(uploads, splitLines(b)...)
				mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(b))
			}
			h.ServeHTTP(w, r)
		}))
		defer cs.Close()
		// The first worker dies after its first flush; the second, on
		// the same checkpoint, replays what it sealed when the lease
		// comes back, so the uploads hold recovered lines too.
		dir := t.TempDir()
		wc := coord.WorkerConfig{Coordinator: cs.URL, Engine: newLinesEngine(), Name: "w", Dir: dir, FlushEvery: 4}
		killed := wc
		killed.Faults = faultinject.MustNew("kill=1")
		if err := coord.RunWorker(ctx, killed); !errors.Is(err, faultinject.ErrKilled) {
			t.Fatalf("doomed worker returned %v, want the injected kill", err)
		}
		if err := coord.RunWorker(ctx, wc); err != nil {
			t.Fatal(err)
		}
		if !c.Done() {
			t.Fatal("campaign not done after the workers")
		}
		seen := make(map[int][]byte, total)
		for _, line := range uploads {
			i := cellIndex(t, line)
			seen[i] = line
			if !bytes.Equal(line, want[i]) {
				t.Errorf("upload: cell %d\n got %s\nwant %s", i, line, want[i])
			}
		}
		if len(seen) != total {
			t.Fatalf("uploads hold %d cells, want %d", len(seen), total)
		}
	})

	t.Run("canceled cells", func(t *testing.T) {
		// One worker runs the cells in order, so canceling after the
		// tenth line cancels every later cell.
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		dir := t.TempDir()
		var streamed [][]byte
		canceled := 0
		_, err := serve.RunShard(ctx, serve.ShardConfig{
			Engine: meetpoly.NewEngine(meetpoly.WithMaxN(6), meetpoly.WithSeed(1), meetpoly.WithParallelism(1)),
			Spec:   spec, Dir: dir, FlushEvery: 4,
		}, func(cr meetpoly.SweepCellResult, line []byte) bool {
			streamed = append(streamed, bytes.Clone(line))
			if cr.Outcome.Canceled {
				canceled++
				enc, err := json.Marshal(cr)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(line, append(enc, '\n')) {
					t.Errorf("canceled cell %d streamed as %s, want %s", cr.Cell.Index, line, enc)
				}
			} else if !bytes.Equal(line, want[cr.Cell.Index]) {
				t.Errorf("cell %d streamed as %s, want %s", cr.Cell.Index, line, want[cr.Cell.Index])
			}
			if len(streamed) == 10 {
				cancel()
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(streamed) != total || canceled != total-10 {
			t.Fatalf("streamed %d lines with %d canceled, want %d with %d", len(streamed), canceled, total, total-10)
		}
		data, err := os.ReadFile(filepath.Join(dir, "results.ndjson"))
		if err != nil {
			t.Fatal(err)
		}
		var first campaign.IndexSet
		first.AddRange(0, 10)
		same("results.ndjson after a cancel", byIndex(t, "results.ndjson after a cancel", splitLines(data), &first))
	})
}
