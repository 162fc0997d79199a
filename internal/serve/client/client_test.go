package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"meetpoly"
	"meetpoly/internal/campaign"
	"meetpoly/internal/faultinject"
	"meetpoly/internal/serve"
)

// clientSpec mirrors the serve package's 48-cell test campaign.
func clientSpec() meetpoly.SweepSpec {
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

func newClientEngine() *meetpoly.Engine {
	return meetpoly.NewEngine(meetpoly.WithMaxN(6), meetpoly.WithSeed(1))
}

func referenceReport(t *testing.T) []byte {
	t.Helper()
	rep, err := newClientEngine().Sweep(context.Background(), clientSpec())
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestClientHealsFromChaos is the client half of the acceptance
// differential: a server scheduled to delay, cut the stream mid-NDJSON
// twice, and answer a 503 burst still yields — through gap-set resume
// and backoff — the byte-identical report of an uninterrupted local
// run, with every cell emitted exactly once.
func TestClientHealsFromChaos(t *testing.T) {
	spec := clientSpec()
	want := referenceReport(t)
	srv := serve.New(serve.Config{
		Engine:         newClientEngine(),
		CheckpointRoot: t.TempDir(),
		FlushEvery:     4,
		Faults:         faultinject.MustNew("delay=1:5ms,reset=6,reset=20,unavail=3x2"),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	retries := 0
	cl := New(Config{
		BaseURL:     ts.URL,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		JitterSeed:  7,
		OnRetry:     func(error, int, time.Duration) { retries++ },
	})
	var emitted campaign.IndexSet
	rep, err := cl.Sweep(context.Background(), spec, func(cr meetpoly.SweepCellResult) bool {
		if !emitted.Add(cr.Cell.Index) {
			t.Errorf("cell %d emitted twice", cr.Cell.Index)
		}
		return true
	})
	if err != nil {
		t.Fatalf("self-healing sweep failed: %v", err)
	}
	total, _ := meetpoly.CountSweep(spec)
	if emitted.Len() != total {
		t.Fatalf("emitted %d cells, want %d", emitted.Len(), total)
	}
	if retries < 3 {
		t.Fatalf("observed %d retries; the chaos schedule (2 resets + a 503 burst) implies at least 3", retries)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := append(out, '\n'); !bytes.Equal(got, want) {
		t.Fatal("healed report diverges from the uninterrupted local run")
	}
}

// TestClientTerminal: a refusal retrying cannot fix (413, campaign too
// large for this server) fails fast — no retries, terminal error.
func TestClientTerminal(t *testing.T) {
	srv := serve.New(serve.Config{Engine: newClientEngine(), MaxCells: 10})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	retries := 0
	cl := New(Config{BaseURL: ts.URL, OnRetry: func(error, int, time.Duration) { retries++ }})
	_, err := cl.Sweep(context.Background(), clientSpec(), nil)
	var term *terminalError
	if !errors.As(err, &term) || term.status != 413 {
		t.Fatalf("oversized campaign returned %v, want terminal 413", err)
	}
	if retries != 0 {
		t.Fatalf("terminal refusal retried %d times", retries)
	}
}

// TestClientStalls: a server that never makes progress trips
// MaxStalls instead of spinning, and every stalled attempt is a retry
// with a cause: a draining server refuses with 503, and a server whose
// stream ends in a clean trailer while requested cells are still
// missing (every gap cell canceled by its budget) is a stream failure
// that names the undelivered cells.
func TestClientStalls(t *testing.T) {
	drained := serve.New(serve.Config{Engine: newClientEngine()})
	if err := drained.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	total, _ := meetpoly.CountSweep(clientSpec())
	for _, c := range []struct {
		name    string
		handler http.Handler
		reason  string // the retries_total label every attempt counts under
		errText string
	}{
		{"draining", drained.Handler(), "retry_after", "refused with 503"},
		{"bare trailer", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, `{"done":true,"cells":0,"failures":0,"canceled":0}`+"\n")
		}), "stream", fmt.Sprintf("%d of %d requested cells undelivered", total, total)},
	} {
		t.Run(c.name, func(t *testing.T) {
			ts := httptest.NewServer(c.handler)
			defer ts.Close()

			reg := meetpoly.NewMetrics()
			retries := 0
			cl := New(Config{
				BaseURL:     ts.URL,
				MaxStalls:   3,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  2 * time.Millisecond,
				OnRetry:     func(error, int, time.Duration) { retries++ },
				Metrics:     reg,
			})
			start := time.Now()
			_, err := cl.Sweep(context.Background(), clientSpec(), nil)
			if !errors.Is(err, ErrStalled) || !strings.Contains(err.Error(), c.errText) {
				t.Fatalf("Sweep returned %v, want ErrStalled naming %q", err, c.errText)
			}
			// The stall cap fires on the third attempt, after two
			// retries (each 503 waits its Retry-After: 1).
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("stall detection took %s", elapsed)
			}
			if retries != 2 {
				t.Errorf("OnRetry fired %d times, want 2", retries)
			}
			counted := 0.0
			for _, p := range reg.Snapshot() {
				if p.Name == "meetpoly_client_retries_total" && len(p.Labels) == 1 && p.Labels[0].Value == c.reason {
					counted = p.Value
				}
			}
			if counted != 3 {
				t.Errorf("retries{reason=%q} = %v, want 3 (one per attempt)", c.reason, counted)
			}
		})
	}
}

// TestBackoffHonorsRetryAfter: the computed wait is floored by the
// server's hint and reproducible from the jitter seed.
func TestBackoffHonorsRetryAfter(t *testing.T) {
	a := New(Config{BaseURL: "x", BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, JitterSeed: 3})
	b := New(Config{BaseURL: "x", BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, JitterSeed: 3})
	for stalls := 1; stalls <= 5; stalls++ {
		wa := a.backoff(stalls, nil)
		if wb := b.backoff(stalls, nil); wa != wb {
			t.Fatalf("stall %d: same seed gave different waits %s vs %s", stalls, wa, wb)
		}
		if wa <= 0 || wa > 8*time.Millisecond+4*time.Millisecond {
			t.Fatalf("stall %d: wait %s outside [base, max+jitter]", stalls, wa)
		}
	}
	hinted := a.backoff(1, &retryAfterError{status: 503, hint: 2 * time.Second})
	if hinted < 2*time.Second {
		t.Fatalf("Retry-After 2s floored to %s", hinted)
	}
}
