package meetpoly

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"meetpoly/internal/campaign"
)

// streamSpec is a mid-sized campaign for stream/fold comparisons.
func streamSpec() SweepSpec {
	return SweepSpec{
		Name:  "stream",
		Seed:  "stream-v1",
		Kinds: []string{"rendezvous", "esst", "certify"},
		Graphs: []SweepGraphAxis{
			{Kind: "path", Sizes: []int{3, 4}},
			{Kind: "ring", Sizes: []int{4, 5}},
			{Kind: "grid", Rows: 2, Cols: 3},
		},
		StartPairs:  2,
		LabelPairs:  2,
		Adversaries: []string{"", "avoider"},
		Budget:      3000,
		Moves:       60,
	}
}

// TestSweepStreamFoldEquality proves SweepStream yields exactly the
// cells Sweep reports: folding the stream through the same
// order-independent aggregator reproduces Engine.Sweep's report
// byte-identically, and the yielded index set is a bijection with the
// expansion.
func TestSweepStreamFoldEquality(t *testing.T) {
	ctx := context.Background()
	spec := streamSpec()
	total, err := CountSweep(spec)
	if err != nil {
		t.Fatal(err)
	}

	swept, err := NewEngine(WithMaxN(6), WithSeed(1)).Sweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	agg := campaign.NewAggregator(spec, nil)
	seen := make(map[int]bool, total)
	for cr, serr := range NewEngine(WithMaxN(6), WithSeed(1)).SweepStream(ctx, spec) {
		if serr != nil {
			t.Fatal(serr)
		}
		if seen[cr.Cell.Index] {
			t.Fatalf("cell %d yielded twice", cr.Cell.Index)
		}
		seen[cr.Cell.Index] = true
		agg.Add(cr)
	}
	if len(seen) != total {
		t.Fatalf("stream yielded %d cells, expansion has %d", len(seen), total)
	}
	folded := agg.Report()

	got, err := json.Marshal(folded)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(swept)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("stream fold diverges from Sweep:\nfold  %s\nsweep %s", got, want)
	}
}

// TestSweepStreamEarlyBreak: breaking out of the range stops the sweep
// without leaking the pipeline's goroutines — the producer, the workers
// and the closer must all observe the stop channel and wind down — and
// a second sweep on the same engine still works. Breaking at the very
// first yield is the hardest teardown: the producer and every worker
// are still in full flight.
//
// The one-worker rows pin the server-conditions case — a client
// disconnecting mid-campaign while the lone worker is blocked handing
// over a result and the producer is blocked on a full work queue; a
// send that ignored the stop channel would show up as a leaked
// goroutine here.
func TestSweepStreamEarlyBreak(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name        string
		breakAt     int
		parallelism int // 0 = engine default
	}{
		{"break-at-1", 1, 0},
		{"break-at-5", 5, 0},
		{"one-worker-break-at-2", 2, 1},
		{"one-worker-break-at-6", 6, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{WithMaxN(6), WithSeed(1)}
			if tc.parallelism > 0 {
				opts = append(opts, WithParallelism(tc.parallelism))
			}
			eng := NewEngine(opts...)
			before := runtime.NumGoroutine()

			got := 0
			for cr, err := range eng.SweepStream(ctx, streamSpec()) {
				if err != nil {
					t.Fatal(err)
				}
				_ = cr
				if got++; got >= tc.breakAt {
					break
				}
			}
			if got != tc.breakAt {
				t.Fatalf("consumed %d results, want %d", got, tc.breakAt)
			}

			// The workers, producer and closer must all wind down.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("goroutines leaked after early break: %d -> %d", before, n)
			}

			// The engine is still fully usable.
			rep, err := eng.Sweep(ctx, streamSpec())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("post-break sweep failed:\n%s", rep.Table())
			}
		})
	}
}

// TestSweepStreamRangeFoldEquality proves the sharding contract: any
// partition of [0, total) into disjoint index ranges, each executed by
// its own SweepStreamRange (even on separate engines), folds through
// one order-independent aggregator into the byte-identical report a
// single Engine.Sweep produces.
func TestSweepStreamRangeFoldEquality(t *testing.T) {
	ctx := context.Background()
	spec := streamSpec()
	total, err := CountSweep(spec)
	if err != nil {
		t.Fatal(err)
	}

	swept, err := NewEngine(WithMaxN(6), WithSeed(1)).Sweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(swept)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 3, 5} {
		agg := campaign.NewAggregator(spec, nil)
		seen := make(map[int]bool, total)
		for s := 0; s < shards; s++ {
			lo, hi := s*total/shards, (s+1)*total/shards
			// A fresh engine per shard models separate processes: the
			// full-spec pre-pass must still land every shard on the same
			// catalog state.
			eng := NewEngine(WithMaxN(6), WithSeed(1))
			for cr, serr := range eng.SweepStreamRange(ctx, spec, lo, hi) {
				if serr != nil {
					t.Fatal(serr)
				}
				if cr.Cell.Index < lo || cr.Cell.Index >= hi {
					t.Fatalf("shard [%d, %d) yielded out-of-range cell %d", lo, hi, cr.Cell.Index)
				}
				if seen[cr.Cell.Index] {
					t.Fatalf("cell %d yielded by two shards", cr.Cell.Index)
				}
				seen[cr.Cell.Index] = true
				agg.Add(cr)
			}
		}
		if len(seen) != total {
			t.Fatalf("%d shards yielded %d cells, expansion has %d", shards, len(seen), total)
		}
		got, err := json.Marshal(agg.Report())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%d-shard fold diverges from Sweep:\nfold  %s\nsweep %s", shards, got, want)
		}
	}
}

// TestSweepStreamRangeInvalid: a nonsensical range is a stream error,
// and an empty or out-of-bounds range yields nothing.
func TestSweepStreamRangeInvalid(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine(WithMaxN(6), WithSeed(1))
	gotErr := false
	for _, err := range eng.SweepStreamRange(ctx, streamSpec(), 5, 4) {
		if err == nil {
			t.Fatal("inverted range yielded a result without error")
		}
		gotErr = true
	}
	if !gotErr {
		t.Fatal("inverted range yielded nothing — want exactly one error")
	}
	total, _ := CountSweep(streamSpec())
	for _, r := range [][2]int{{3, 3}, {total, total + 10}} {
		for cr, err := range eng.SweepStreamRange(ctx, streamSpec(), r[0], r[1]) {
			t.Fatalf("empty range [%d, %d) yielded (%+v, %v)", r[0], r[1], cr, err)
		}
	}
}

// TestSweepStreamInvalidSpec: a malformed spec yields exactly one
// (zero value, error) pair and executes nothing.
func TestSweepStreamInvalidSpec(t *testing.T) {
	eng := NewEngine(WithMaxN(4), WithSeed(1))
	bad := streamSpec()
	bad.Seed = ""
	yields := 0
	for cr, err := range eng.SweepStream(context.Background(), bad) {
		yields++
		if err == nil {
			t.Fatalf("invalid spec yielded a result without error: %+v", cr)
		}
	}
	if yields != 1 {
		t.Fatalf("invalid spec yielded %d pairs, want exactly 1", yields)
	}
	if stats := eng.CacheStats(); stats.Hits+stats.Misses != 0 {
		t.Errorf("invalid spec touched the prepared cache: %+v", stats)
	}
}

// TestSweepStreamCancellation: a canceled context surfaces as canceled
// cell outcomes (data, not a stream error), matching Sweep's contract.
func TestSweepStreamCancellation(t *testing.T) {
	eng := NewEngine(WithMaxN(6), WithSeed(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	canceled, total := 0, 0
	for cr, err := range eng.SweepStream(ctx, streamSpec()) {
		if err != nil {
			t.Fatal(err)
		}
		total++
		if cr.Outcome.Canceled {
			canceled++
		}
	}
	if want, _ := CountSweep(streamSpec()); total != want {
		t.Fatalf("canceled stream yielded %d of %d cells", total, want)
	}
	if canceled != total {
		t.Errorf("%d of %d cells report canceled under a dead context", canceled, total)
	}
}
