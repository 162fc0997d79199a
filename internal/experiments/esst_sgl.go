package experiments

import (
	"fmt"
	"strings"

	"meetpoly/internal/esst"
	"meetpoly/internal/graph"
	"meetpoly/internal/labels"
	"meetpoly/internal/sched"
	"meetpoly/internal/sgl"
	"meetpoly/internal/trajectory"
	"meetpoly/internal/uxs"
)

// ESSTInstance is one exploration workload.
type ESSTInstance struct {
	Name          string
	Graph         *graph.Graph
	Explorer, Tok int
}

// DefaultESSTInstances returns the Theorem 2.1 workload suite.
func DefaultESSTInstances() []ESSTInstance {
	return []ESSTInstance{
		{"path2", graph.Path(2), 0, 1},
		{"path5", graph.Path(5), 0, 4},
		{"ring4", graph.Ring(4), 1, 3},
		{"ring7", graph.Ring(7), 0, 3},
		{"star6", graph.Star(6), 1, 0},
		{"clique5", graph.Complete(5), 0, 4},
		{"bintree7", graph.BinaryTree(7), 0, 6},
		{"rand8", graph.RandomConnected(8, 0.3, 57), 0, 7},
	}
}

// E5ESST reproduces Theorem 2.1: termination phase vs the 9n+3 bound,
// measured cost vs the polynomial bound, and full edge coverage.
func E5ESST(cat uxs.Catalog, instances []ESSTInstance, budget int) *Table {
	t := &Table{
		ID:    "E5",
		Title: "Procedure ESST: measured phase and cost vs Theorem 2.1 bounds",
		Columns: []string{
			"instance", "n", "m", "phase", "9n+3", "cost", "cost-bound", "E(n)", "covered",
		},
	}
	for _, in := range instances {
		if v, ok := cat.(*uxs.Verified); ok && !v.Covers(in.Graph) {
			v.Extend(in.Graph)
		}
		res, err := esst.Explore(in.Graph, in.Explorer, in.Tok, cat, &sched.RoundRobin{}, budget)
		if err != nil {
			t.AddRow(in.Name, in.Graph.N(), in.Graph.M(), "error: "+err.Error(),
				"-", "-", "-", "-", "-")
			continue
		}
		if !res.Done {
			t.AddRow(in.Name, in.Graph.N(), in.Graph.M(), "no-term", 9*in.Graph.N()+3,
				res.Cost, "-", "-", "-")
			continue
		}
		t.AddRow(in.Name, in.Graph.N(), in.Graph.M(), res.Phase, 9*in.Graph.N()+3,
			res.Cost, esst.CostBound(cat, res.Phase), res.EUpper, res.Covered)
	}
	t.Notes = append(t.Notes,
		"phase <= 9n+3 and full coverage are Theorem 2.1's claims; E(n) = cost+1 is the size bound SGL consumes")
	return t
}

// SGLInstance is one multi-agent workload.
type SGLInstance struct {
	Name   string
	Graph  *graph.Graph
	Starts []int
	Labels []labels.Label
}

// DefaultSGLInstances returns the Theorem 4.1 workload suite.
func DefaultSGLInstances() []SGLInstance {
	return []SGLInstance{
		{"path4/k2", graph.Path(4), []int{0, 3}, []labels.Label{1, 5}},
		{"path5/k2", graph.Path(5), []int{0, 4}, []labels.Label{3, 9}},
		{"star5/k3", graph.Star(5), []int{1, 2, 3}, []labels.Label{4, 2, 7}},
		{"path6/k3", graph.Path(6), []int{0, 2, 5}, []labels.Label{6, 1, 3}},
		{"rtree6/k4", graph.RandomTree(6, 2), []int{0, 3, 5, 1}, []labels.Label{8, 3, 5, 12}},
	}
}

// E8SGL reproduces Theorem 4.1: every agent outputs the complete label
// set; team size, leader, renaming and gossip all follow.
func E8SGL(env *trajectory.Env, instances []SGLInstance, budget int) *Table {
	t := &Table{
		ID:    "E8",
		Title: "Algorithm SGL: team size / leader election / renaming / gossip",
		Columns: []string{
			"instance", "n", "k", "all-output", "total-cost", "leader", "team-size", "new-names",
		},
	}
	for _, in := range instances {
		res, err := sgl.Run(sgl.Config{
			Graph:    in.Graph,
			Starts:   in.Starts,
			Labels:   in.Labels,
			Env:      env,
			MaxSteps: budget,
		})
		if err != nil {
			t.AddRow(in.Name, in.Graph.N(), len(in.Labels), "error: "+err.Error(),
				"-", "-", "-", "-")
			continue
		}
		if !res.AllOutput {
			t.AddRow(in.Name, in.Graph.N(), len(in.Labels), "no", res.TotalCost, "-", "-", "-")
			continue
		}
		names := make([]string, len(res.Agents))
		for i, a := range res.Agents {
			names[i] = fmt.Sprintf("%d->%d", a.Label, a.NewName)
		}
		t.AddRow(in.Name, in.Graph.N(), len(in.Labels), "yes", res.TotalCost,
			res.Agents[0].Leader, res.Agents[0].TeamSize, strings.Join(names, " "))
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
