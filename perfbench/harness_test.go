package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"io"
	"testing"

	"meetpoly"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: the helper must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64 // 0: must refuse
	}{
		{19, 0.5, 0},
		{20, 0.5, 10},
		{99, 0.9, 0},
		{100, 0.9, 90},
		{0, 0.5, 0},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		switch {
		case tc.want == 0 && err == nil:
			t.Errorf("p%g of %d samples = %v, want a refusal", 100*tc.q, tc.n, got)
		case tc.want != 0 && (err != nil || got != tc.want):
			t.Errorf("p%g of %d samples = %v, %v; want %v", 100*tc.q, tc.n, got, err, tc.want)
		}
	}
}

func TestCorruptedReportCountsAsFailure(t *testing.T) {
	ctx := context.Background()
	spec := allKinds(1)
	spec.Kinds = []string{"rendezvous"}
	rep, err := productionEngine().Sweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	good, err := marshalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(good, []byte(`"met": `), []byte(`"met":  `), 1)
	b := &runner{log: io.Discard}
	for _, tc := range []struct {
		name   string
		report []byte
		want   int
	}{{"identical", good, 0}, {"corrupted", bad, 1}} {
		failed, err := b.verify(ctx, []issued{{spec: spec, digest: sha256.Sum256(tc.report), rep: rep}})
		if err != nil {
			t.Fatal(err)
		}
		if failed != tc.want {
			t.Errorf("%s report: %d failures, want %d", tc.name, failed, tc.want)
		}
	}
}

// The reports a workload's campaigns produce must not depend on what
// the engine ran before: references come from a fresh engine.
func TestReportsIndependentOfEngineHistory(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		warm := productionEngine()
		for i := 1; i < 3; i++ {
			if _, err := warm.Sweep(ctx, w.spec(7, i)); err != nil {
				t.Fatal(err)
			}
		}
		var got [2][]byte
		for k, eng := range []*meetpoly.Engine{warm, productionEngine()} {
			rep, err := eng.Sweep(ctx, w.spec(7, 0))
			if err != nil {
				t.Fatal(err)
			}
			if got[k], err = marshalReport(rep); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got[0], got[1]) {
			t.Errorf("%s: campaign 0 reports differently after other campaigns ran", w.name)
		}
	}
}
