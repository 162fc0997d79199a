package experiments

import (
	"context"
	"fmt"
	"strings"

	"meetpoly"
	"meetpoly/internal/esst"
	"meetpoly/internal/trajectory"
)

// ESSTInstance is one exploration workload.
type ESSTInstance struct {
	Name          string
	Graph         meetpoly.GraphSpec
	Explorer, Tok int
}

// Scenario returns the instance as an ESST scenario with an event budget.
func (in ESSTInstance) Scenario(budget int) meetpoly.Scenario {
	return meetpoly.Scenario{Name: in.Name, Kind: meetpoly.ScenarioESST, Graph: in.Graph,
		Starts: []int{in.Explorer, in.Tok}, Budget: budget}
}

// DefaultESSTInstances returns the Theorem 2.1 workload suite.
func DefaultESSTInstances() []ESSTInstance {
	return []ESSTInstance{
		{"path2", meetpoly.GraphSpec{Kind: "path", N: 2}, 0, 1},
		{"path5", meetpoly.GraphSpec{Kind: "path", N: 5}, 0, 4},
		{"ring4", meetpoly.GraphSpec{Kind: "ring", N: 4}, 1, 3},
		{"ring7", meetpoly.GraphSpec{Kind: "ring", N: 7}, 0, 3},
		{"star6", meetpoly.GraphSpec{Kind: "star", N: 6}, 1, 0},
		{"clique5", meetpoly.GraphSpec{Kind: "clique", N: 5}, 0, 4},
		{"bintree7", meetpoly.GraphSpec{Kind: "bintree", N: 7}, 0, 6},
		{"rand8", meetpoly.GraphSpec{Kind: "random", N: 8, P: 0.3, Seed: 57}, 0, 7},
	}
}

// E5ESST reproduces Theorem 2.1: termination phase vs the 9n+3 bound,
// measured cost vs the polynomial bound, and full edge coverage. The
// rows run as one Engine.RunBatch, whose pre-flight covers every
// instance graph in the engine's catalog before any row runs.
func E5ESST(eng *meetpoly.Engine, instances []ESSTInstance, budget int) *Table {
	t := &Table{
		ID:    "E5",
		Title: "Procedure ESST: measured phase and cost vs Theorem 2.1 bounds",
		Columns: []string{
			"instance", "n", "m", "phase", "9n+3", "cost", "cost-bound", "E(n)", "covered",
		},
	}
	scs := make([]meetpoly.Scenario, len(instances))
	for i, in := range instances {
		scs[i] = in.Scenario(budget)
	}
	for i, br := range eng.RunBatch(context.Background(), scs) {
		in := instances[i]
		n := in.Graph.N
		if br.Result == nil {
			t.AddRow(in.Name, n, "-", "error: "+br.Err.Error(), "-", "-", "-", "-", "-")
			continue
		}
		r, m := br.Result.ESST, br.Graph.M()
		if !r.Done {
			t.AddRow(in.Name, n, m, "no-term", 9*n+3, r.Cost, "-", "-", "-")
			continue
		}
		t.AddRow(in.Name, n, m, r.Phase, 9*n+3,
			r.Cost, esst.CostBound(eng.Env().Catalog(), r.Phase), r.EUpper, r.Covered)
	}
	t.Notes = append(t.Notes,
		"phase <= 9n+3 and full coverage are Theorem 2.1's claims; E(n) = cost+1 is the size bound SGL consumes")
	return t
}

// SGLInstance is one multi-agent workload.
type SGLInstance struct {
	Name   string
	Graph  meetpoly.GraphSpec
	Starts []int
	Labels []meetpoly.Label
}

// Scenario returns the instance as an SGL scenario with an event budget.
func (in SGLInstance) Scenario(budget int) meetpoly.Scenario {
	return meetpoly.Scenario{Name: in.Name, Kind: meetpoly.ScenarioSGL, Graph: in.Graph,
		Starts: in.Starts, Labels: in.Labels, Budget: budget}
}

// DefaultSGLInstances returns the Theorem 4.1 workload suite.
func DefaultSGLInstances() []SGLInstance {
	return []SGLInstance{
		{"path4/k2", meetpoly.GraphSpec{Kind: "path", N: 4}, []int{0, 3}, []meetpoly.Label{1, 5}},
		{"path5/k2", meetpoly.GraphSpec{Kind: "path", N: 5}, []int{0, 4}, []meetpoly.Label{3, 9}},
		{"star5/k3", meetpoly.GraphSpec{Kind: "star", N: 5}, []int{1, 2, 3}, []meetpoly.Label{4, 2, 7}},
		{"path6/k3", meetpoly.GraphSpec{Kind: "path", N: 6}, []int{0, 2, 5}, []meetpoly.Label{6, 1, 3}},
		{"rtree6/k4", meetpoly.GraphSpec{Kind: "tree", N: 6, Seed: 2}, []int{0, 3, 5, 1}, []meetpoly.Label{8, 3, 5, 12}},
	}
}

// E8SGL reproduces Theorem 4.1: every agent outputs the complete label
// set; team size, leader, renaming and gossip all follow.
func E8SGL(eng *meetpoly.Engine, instances []SGLInstance, budget int) *Table {
	t := &Table{
		ID:    "E8",
		Title: "Algorithm SGL: team size / leader election / renaming / gossip",
		Columns: []string{
			"instance", "n", "k", "all-output", "total-cost", "leader", "team-size", "new-names",
		},
	}
	scs := make([]meetpoly.Scenario, len(instances))
	for i, in := range instances {
		scs[i] = in.Scenario(budget)
	}
	for i, br := range eng.RunBatch(context.Background(), scs) {
		in := instances[i]
		if br.Result == nil {
			t.AddRow(in.Name, in.Graph.N, len(in.Labels), "error: "+br.Err.Error(),
				"-", "-", "-", "-")
			continue
		}
		r := br.Result.SGL
		if !r.AllOutput {
			t.AddRow(in.Name, in.Graph.N, len(in.Labels), "no", r.TotalCost, "-", "-", "-")
			continue
		}
		names := make([]string, len(r.Agents))
		for i, a := range r.Agents {
			names[i] = fmt.Sprintf("%d->%d", a.Label, a.NewName)
		}
		t.AddRow(in.Name, in.Graph.N, len(in.Labels), "yes", r.TotalCost,
			r.Agents[0].Leader, r.Agents[0].TeamSize, strings.Join(names, " "))
	}
	t.Notes = append(t.Notes,
		"Phase 2 horizon: PracticalBudget(3) — the paper's Pi(E(n),|L|) horizon is unwalkable; outputs are verified exactly (DESIGN.md §2.3)")
	return t
}

// F1to4 renders the structural decompositions behind the paper's four
// schematic figures.
func F1to4(env *trajectory.Env, k int) string {
	var sb strings.Builder
	figs := []struct {
		id   string
		kind trajectory.Kind
	}{
		{"Figure 1", trajectory.KindQ},
		{"Figure 2", trajectory.KindYPrime},
		{"Figure 3", trajectory.KindZ},
		{"Figure 4", trajectory.KindAPrime},
	}
	for _, f := range figs {
		fmt.Fprintf(&sb, "-- %s: structure of %s(%d, v) --\n", f.id, f.kind, k)
		env.Describe(f.kind, k, 1, 6).Render(&sb)
		sb.WriteString("\n")
	}
	return sb.String()
}
