// Command esstsim runs Procedure ESST (exploration with a
// semi-stationary token) on a chosen graph, or regenerates table E5.
// Flags map 1:1 onto a serialized meetpoly.Scenario (-dump / -scenario).
//
// Usage:
//
//	esstsim -graph ring -n 7 -explorer 0 -token 3
//	esstsim -graph clique -n 5 -trace
//	esstsim -table E5
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"meetpoly"
	"meetpoly/internal/buildinfo"
	"meetpoly/internal/esst"
	"meetpoly/internal/experiments"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	gkind := flag.String("graph", "ring", "path|ring|star|clique|bintree|random")
	n := flag.Int("n", 6, "graph size")
	seed := flag.Int64("seed", 1, "seed for random graphs and the catalog")
	ex := flag.Int("explorer", 0, "explorer start node")
	tok := flag.Int("token", -1, "token node (-1 = last node)")
	advName := flag.String("adv", "roundrobin",
		"roundrobin|avoider|random[:seed]|biased[:w1,w2]|latewake[:hold[:agent]]|any registered family")
	budget := flag.Int("budget", 50_000_000, "scheduler event budget")
	table := flag.Bool("table", false, "print table E5 over the default instance suite")
	famMax := flag.Int("family", 8, "catalog family max size")
	scenarioFile := flag.String("scenario", "", "run a serialized scenario JSON file instead of flags")
	dump := flag.Bool("dump", false, "print the scenario JSON implied by the flags and exit")
	trace := flag.Bool("trace", false, "stream traversal/meeting/phase events while running")
	version := flag.Bool("version", false, "print version information and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("esstsim"))
		return
	}

	opts := []meetpoly.Option{meetpoly.WithMaxN(*famMax), meetpoly.WithSeed(*seed)}
	if *table {
		// The table engine carries no observer: -trace never enters a table.
		experiments.E5ESST(meetpoly.NewEngine(opts...), experiments.DefaultESSTInstances(), *budget).Render(os.Stdout)
		return
	}
	if *trace {
		opts = append(opts, meetpoly.WithObserver(meetpoly.NewTraceObserver(os.Stdout)))
	}
	eng := meetpoly.NewEngine(opts...)

	var sc meetpoly.Scenario
	if *scenarioFile != "" {
		var err error
		sc, err = meetpoly.LoadScenarioFile(*scenarioFile, meetpoly.ScenarioESST)
		if err != nil {
			fatal(err)
		}
	} else {
		spec := meetpoly.GraphSpec{Kind: *gkind, N: *n, Seed: *seed}
		g, err := spec.Build()
		if err != nil {
			fatal(err)
		}
		tokNode := *tok
		if tokNode < 0 {
			tokNode = g.N() - 1
		}
		sc = meetpoly.Scenario{
			Name:      "esstsim",
			Kind:      meetpoly.ScenarioESST,
			Graph:     spec,
			Starts:    []int{*ex, tokNode},
			Adversary: *advName,
			Budget:    *budget,
		}
	}
	if *dump {
		data, err := sc.JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", data)
		return
	}

	res, err := eng.Run(context.Background(), sc)
	if res == nil {
		fatal(err)
	}
	g, gerr := sc.BuildGraph()
	if gerr != nil {
		fatal(gerr)
	}
	eres := res.ESST
	fmt.Printf("graph=%s explorer@%d token@%d\n", g, sc.Starts[0], sc.Starts[1])
	if !eres.Done {
		fmt.Println("procedure did not terminate within the budget")
		os.Exit(1)
	}
	fmt.Printf("terminated in phase %d (Theorem 2.1 bound: 9n+3 = %d)\n", eres.Phase, 9*g.N()+3)
	fmt.Printf("cost: %d traversals (bound for that phase: %d)\n",
		eres.Cost, esst.CostBound(eng.Env().Catalog(), eres.Phase))
	fmt.Printf("derived size bound E(n) = %d (actual n = %d)\n", eres.EUpper, g.N())
	fmt.Printf("all %d edges covered: %v\n", g.M(), eres.Covered)
}
