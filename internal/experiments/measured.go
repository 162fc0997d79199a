package experiments

import (
	"context"
	"fmt"

	"meetpoly"
	"meetpoly/internal/costmodel"
	"meetpoly/internal/graph"
	"meetpoly/internal/trajectory"
)

// RVInstance is one rendezvous workload.
type RVInstance struct {
	Name   string
	Graph  meetpoly.GraphSpec
	S1, S2 int
	L1, L2 meetpoly.Label
}

// Scenario returns the instance as a scenario of the given kind under
// the adversary spec adv with an event budget. The certifier ranges over
// every schedule, so a certify scenario takes neither and sets Moves.
func (in RVInstance) Scenario(kind meetpoly.ScenarioKind, adv string, budget int) meetpoly.Scenario {
	return meetpoly.Scenario{Name: in.Name, Kind: kind, Graph: in.Graph,
		Starts: []int{in.S1, in.S2}, Labels: []meetpoly.Label{in.L1, in.L2}, Adversary: adv, Budget: budget}
}

// DefaultRVInstances returns the measured-rendezvous workload suite:
// asymmetric topologies plus port-shuffled rings (oriented rings with
// rotation-equivalent starts dodge all online adversaries until the first
// differing label bit — see EXPERIMENTS.md E4's notes).
func DefaultRVInstances() []RVInstance {
	return []RVInstance{
		{"path2", meetpoly.GraphSpec{Kind: "path", N: 2}, 0, 1, 1, 2},
		{"path4", meetpoly.GraphSpec{Kind: "path", N: 4}, 0, 3, 2, 5},
		{"path6", meetpoly.GraphSpec{Kind: "path", N: 6}, 0, 5, 3, 4},
		{"ring4shuf", meetpoly.GraphSpec{Kind: "ring", N: 4, Seed: 4, Shuffle: true}, 0, 2, 1, 3},
		{"ring5shuf", meetpoly.GraphSpec{Kind: "ring", N: 5, Seed: 5, Shuffle: true}, 1, 4, 7, 4},
		{"star4", meetpoly.GraphSpec{Kind: "star", N: 4}, 1, 3, 2, 3},
		{"star6", meetpoly.GraphSpec{Kind: "star", N: 6}, 1, 5, 9, 2},
		{"clique4", meetpoly.GraphSpec{Kind: "clique", N: 4}, 0, 3, 9, 6},
		{"bintree5", meetpoly.GraphSpec{Kind: "bintree", N: 5}, 0, 4, 1, 6},
		{"bintree6", meetpoly.GraphSpec{Kind: "bintree", N: 6}, 1, 5, 11, 13},
	}
}

// rendezvousRows runs every instance under every adversary spec through
// one Engine.RunBatch; result i*len(advs)+j is instance i under advs[j].
func rendezvousRows(eng *meetpoly.Engine, instances []RVInstance, advs []string, budget int) []meetpoly.BatchResult {
	scs := make([]meetpoly.Scenario, 0, len(instances)*len(advs))
	for _, in := range instances {
		for _, adv := range advs {
			scs = append(scs, in.Scenario(meetpoly.ScenarioRendezvous, adv, budget))
		}
	}
	return eng.RunBatch(context.Background(), scs)
}

// E4Measured runs every instance under every built-in adversary family,
// each with its registry defaults, and reports the measured meeting cost
// against the Theorem 3.1 bound.
func E4Measured(eng *meetpoly.Engine, instances []RVInstance, budget int) *Table {
	t := &Table{
		ID:    "E4",
		Title: "measured rendezvous cost per adversary strategy (RV-asynch-poly)",
		Columns: []string{
			"instance", "n", "labels", "strategy", "met", "cost", "in-edge", "log2(bound)",
		},
	}
	advs := []string{"avoider", "biased", "late-wake", "random", "round-robin"}
	for _, br := range rendezvousRows(eng, instances, advs, budget) {
		in, adv := instances[br.Index/len(advs)], br.Scenario.Adversary
		labels := fmt.Sprintf("(%d,%d)", in.L1, in.L2)
		if br.Result == nil {
			t.AddRow(in.Name, in.Graph.N, labels, adv, "error: "+br.Err.Error(), "-", "-", "-")
			continue
		}
		r := br.Result.Rendezvous
		if !r.Met {
			t.AddRow(in.Name, in.Graph.N, labels, adv,
				"no (budget)", "-", "-", costmodel.ApproxLog2(r.Bound))
			continue
		}
		t.AddRow(in.Name, in.Graph.N, labels, adv,
			"yes", r.Meeting.Cost, r.Meeting.InEdge, costmodel.ApproxLog2(r.Bound))
	}
	t.Notes = append(t.Notes,
		"measured costs sit far below the worst-case bound: the bound pays for adversaries that exploit the full label structure",
		fmt.Sprintf("budget per run: %d adversary events", budget))
	return t
}

// E6Certified runs the exhaustive lattice adversary on route prefixes of
// the given length and reports the exact worst case over every schedule,
// alongside the strongest online adversary's measured result.
func E6Certified(eng *meetpoly.Engine, instances []RVInstance, prefix int) *Table {
	t := &Table{
		ID:    "E6",
		Title: fmt.Sprintf("exhaustive-adversary certification on %d-move route prefixes", prefix),
		Columns: []string{
			"instance", "forced", "certified-worst-cost", "safest-depth", "avoider-measured",
		},
	}
	scs := make([]meetpoly.Scenario, 0, 2*len(instances))
	for _, in := range instances {
		cert := in.Scenario(meetpoly.ScenarioCertify, "", 0)
		cert.Moves = prefix
		scs = append(scs, cert, in.Scenario(meetpoly.ScenarioRendezvous, "avoider", 8*prefix))
	}
	brs := eng.RunBatch(context.Background(), scs)
	for i, in := range instances {
		cert, avoid := brs[2*i], brs[2*i+1]
		if cert.Result == nil {
			t.AddRow(in.Name, "error: "+cert.Err.Error(), "-", "-", "-")
			continue
		}
		measured := "-"
		if avoid.Result != nil && avoid.Result.Rendezvous.Met {
			measured = fmt.Sprint(avoid.Result.Rendezvous.Meeting.Cost)
		}
		res := cert.Result.Cert
		if res.Forced {
			t.AddRow(in.Name, "yes", res.WorstCompleted, res.SafestDepth, measured)
		} else {
			t.AddRow(in.Name, "no (within prefix)", "-", res.SafestDepth, measured)
		}
	}
	t.Notes = append(t.Notes,
		"'forced' certifies that NO schedule — not just the implemented strategies — avoids the meeting within the prefixes",
		"measured avoider cost never exceeds the certified worst case (asserted by the test suite)")
	return t
}

// E10CoverageRamp measures, per family graph, the smallest parameter k
// at which X(k, v) becomes integral from every start, under both catalog
// constructions (DESIGN.md §8's UXS-source ablation): verified compact
// catalogs reach integrality exactly when the guarantee demands (k >= n)
// with tiny P(k), while cubic pseudorandom sequences pay orders of
// magnitude more length for the same coverage.
func E10CoverageRamp(graphs []*graph.Graph, verified *trajectory.Env, cubic *trajectory.Env) *Table {
	t := &Table{
		ID:      "E10",
		Title:   "coverage ramp: smallest k with X(k) integral everywhere, per catalog",
		Columns: []string{"graph", "n", "k* (verified)", "P(k*) verified", "k* (cubic)", "P(k*) cubic"},
	}
	ramp := func(env *trajectory.Env, g *graph.Graph) (int, int) {
		for k := 1; k <= 4*g.N(); k++ {
			ok := true
			lenX := env.LenX(k)
			if !lenX.IsInt64() || lenX.Int64() > 5_000_000 {
				return -1, -1
			}
			for v := 0; v < g.N() && ok; v++ {
				tr, done := trajectory.Run(g, v, env.X(k), int(lenX.Int64())+1)
				if !done || !tr.CoversAllEdges(g) {
					ok = false
				}
			}
			if ok {
				return k, env.Catalog().P(k)
			}
		}
		return -1, -1
	}
	for _, g := range graphs {
		kv, pv := ramp(verified, g)
		kc, pc := ramp(cubic, g)
		t.AddRow(g.Name(), g.N(), kv, pv, kc, pc)
	}
	t.Notes = append(t.Notes,
		"k* <= n certifies the integrality property the proofs need; P(k*) is the price per sweep")
	return t
}

// E4Symmetry documents the oriented-ring symmetry phenomenon as a
// measured table: rotation-equivalent starts dodge every online strategy
// within the budget, while a port shuffle breaks the symmetry.
func E4Symmetry(eng *meetpoly.Engine, budget int) *Table {
	t := &Table{
		ID:      "E4s",
		Title:   "oriented-ring symmetry ablation: identical trajectories are exact translates",
		Columns: []string{"graph", "ports", "strategy", "met within budget", "cost"},
	}
	rings := []RVInstance{
		{"oriented", meetpoly.GraphSpec{Kind: "ring", N: 4}, 0, 2, 1, 3},
		{"shuffled", meetpoly.GraphSpec{Kind: "ring", N: 4, Seed: 4, Shuffle: true}, 0, 2, 1, 3},
	}
	advs := []string{"round-robin", "avoider"}
	for _, br := range rendezvousRows(eng, rings, advs, budget) {
		ports, adv := rings[br.Index/len(advs)].Name, br.Scenario.Adversary
		switch {
		case br.Result == nil:
			t.AddRow("ring4", ports, adv, "error", "-")
		case br.Result.Rendezvous.Met:
			t.AddRow("ring4", ports, adv, "yes", br.Result.Rendezvous.Meeting.Cost)
		default:
			t.AddRow("ring4", ports, adv, "no", "-")
		}
	}
	t.Notes = append(t.Notes,
		"every modified label starts 11, so piece-1 trajectories coincide; on an oriented ring from",
		"rotation-equivalent starts the walks are exact rotations and meeting waits for the first",
		"differing bit, which core.SymmetryHorizon places ≈2×10^17 traversals out on the default catalog")
	return t
}
