package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"meetpoly"
)

// transport names the public surface a workload drives.
type transport int

const (
	inProcess transport = iota // Engine.SweepStream folded by campaign.Aggregator
	served                     // client.Client -> serve.Server on loopback
	fleet                      // coord.Coordinator on loopback + two coord.RunWorker
)

// workload is one traffic mix. Every run issues campaigns in pairs:
// campaign c is requested, then requested again (the repeat). On the
// in-process workloads the campaigns cycle through a fixed set that
// set-up warms; on the served and fleet workloads every pair brings a
// campaign nobody has seen, so the first request executes and writes
// checkpoints and the repeat recovers from them.
type workload struct {
	name string
	via  transport
	// cycle is the number of distinct campaigns an in-process workload
	// repeats, all warmed in set-up.
	cycle int
	// pairsPerSecond sizes the timed phase: --seconds buys this many
	// request pairs, about one second's worth at reference speed.
	pairsPerSecond int
	spec           func(seed int64, i int) meetpoly.SweepSpec
}

var workloads = []workload{
	{name: "rendezvous-long", via: inProcess, cycle: 16, pairsPerSecond: 11, spec: rendezvousLong},
	{name: "teams-sgl", via: inProcess, cycle: 16, pairsPerSecond: 14, spec: teamsSGL},
	{name: "serve-wide", via: served, pairsPerSecond: 36, spec: wide},
	{name: "fleet-wide", via: fleet, pairsPerSecond: 26, spec: wide},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rng derives campaign i's axis draws from the workload seed, so one
// seed always yields the same campaign sequence.
func rng(seed int64, salt string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", salt, seed, i)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// The in-process campaigns keep their graphs, starts and labels fixed
// per campaign index, and the seed picks the random adversary's
// schedules. A cell's cost is heavy-tailed in its starts and labels (a
// budget-exhausted cell costs a hundred met ones), so a seed-drawn
// placement mix moves the median request by a whole exhausted cell.
func cycleSeed(name string, i int) string { return fmt.Sprintf("%s/%d", name, i) }

func randomAdversary(seed int64, i int) string {
	return fmt.Sprintf("random:%d", rng(seed, "random", i).Int63n(1<<31))
}

// rendezvousLong: rendezvous and baseline cells on 5-10 node graphs
// under every adversary family with a large event budget. Nearly all
// time goes to the lockstep batch loop and route replay.
//
// The graphs larger than the verified catalog family (hypercube, the
// 2x4 grid, petersen) are the same in every campaign, so the catalog
// extends identically on any engine's first campaign and a report never
// depends on which campaigns an engine ran before.
func rendezvousLong(seed int64, i int) meetpoly.SweepSpec {
	r := rng(0, "rendezvous-long", i)
	size := func() []int { return []int{5 + r.Intn(2)} }
	return meetpoly.SweepSpec{
		Name:  "rendezvous-long",
		Seed:  cycleSeed("rendezvous-long", i),
		Kinds: []string{"rendezvous", "baseline"},
		Graphs: []meetpoly.SweepGraphAxis{
			{Kind: "path", Sizes: size()},
			{Kind: "ring", Sizes: size()},
			{Kind: "star", Sizes: size()},
			{Kind: "clique", Sizes: size()},
			{Kind: "tree", Sizes: size()},
			{Kind: "grid", Rows: 2, Cols: 4},
			{Kind: "hypercube", Sizes: []int{3}},
			{Kind: "petersen"},
		},
		Adversaries: []string{"", "avoider", randomAdversary(seed, i), "latewake:50", "biased:3,1"},
		Budget:      200000,
	}
}

// teamsSGL: the paper's team applications (SGL, and ESST as its
// exploration primitive) on 3-5 node graphs, at a budget where most
// cells meet. These kinds run on the per-cell Runner tier.
func teamsSGL(seed int64, i int) meetpoly.SweepSpec {
	r := rng(0, "teams-sgl", i)
	size := func() []int { return []int{3 + r.Intn(3)} }
	return meetpoly.SweepSpec{
		Name:  "teams-sgl",
		Seed:  cycleSeed("teams-sgl", i),
		Kinds: []string{"sgl", "esst"},
		Graphs: []meetpoly.SweepGraphAxis{
			{Kind: "path", Sizes: size()},
			{Kind: "ring", Sizes: size()},
			{Kind: "star", Sizes: size()},
			{Kind: "clique", Sizes: size()},
		},
		Adversaries: []string{"", randomAdversary(seed, i)},
		Budget:      40000,
	}
}

// wide: many small graphs, short budgets, three kinds — a campaign where
// per-cell overheads (expand, judge, encode, checkpoint) show. Its axes
// are the same in every campaign (only the seed string changes), so its
// 7-node graphs extend the catalog identically everywhere.
func wide(seed int64, i int) meetpoly.SweepSpec {
	return meetpoly.SweepSpec{
		Name:  "wide",
		Seed:  fmt.Sprintf("wide/%d/%d", seed, i),
		Kinds: []string{"rendezvous", "baseline", "certify"},
		Graphs: []meetpoly.SweepGraphAxis{
			{Kind: "path", Sizes: []int{3, 4, 5, 6, 7}},
			{Kind: "ring", Sizes: []int{3, 4, 5, 6, 7}},
			{Kind: "star", Sizes: []int{3, 4, 5, 6, 7}},
			{Kind: "clique", Sizes: []int{3, 4, 5, 6, 7}},
		},
		StartPairs:  2,
		Adversaries: []string{"", "random", "avoider"},
		Budget:      5000,
		Moves:       60,
	}
}

// allKinds is the probe campaign for scenario kinds a workload does not
// carry itself: every kind on small graphs.
func allKinds(seed int64) meetpoly.SweepSpec {
	return meetpoly.SweepSpec{
		Name: "all-kinds-probe",
		Seed: fmt.Sprintf("all-kinds-probe/%d", seed),
		Graphs: []meetpoly.SweepGraphAxis{
			{Kind: "path", Sizes: []int{4}},
			{Kind: "ring", Sizes: []int{5}},
			{Kind: "star", Sizes: []int{4}},
		},
		StartPairs:  2,
		Adversaries: []string{"", "random"},
		Budget:      40000,
		Moves:       60,
	}
}

// goldenSpec is the campaign behind testdata/sweep-golden.json. Each
// invocation reproduces that file before measuring anything, so a
// broken build is never benchmarked.
func goldenSpec() meetpoly.SweepSpec {
	return meetpoly.SweepSpec{
		Name: "registry-golden",
		Seed: "registry-golden-v1",
		Graphs: []meetpoly.SweepGraphAxis{
			{Kind: "path", Sizes: []int{3, 4}},
			{Kind: "ring", Sizes: []int{5}},
			{Kind: "grid", Rows: 2, Cols: 3},
			{Kind: "tree", Sizes: []int{5}},
			{Kind: "random", Sizes: []int{4}},
			{Kind: "star", Sizes: []int{4}, Shuffle: true},
		},
		StartPairs:  2,
		LabelPairs:  2,
		Adversaries: []string{"", "avoider", "random", "latewake:50", "biased:3,1"},
		Budget:      3000,
		Moves:       60,
	}
}
