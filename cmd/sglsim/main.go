// Command sglsim runs Algorithm SGL (Strong Global Learning) for a team
// of agents and reports all four application outputs, or regenerates
// table E8. Flags map 1:1 onto a serialized meetpoly.Scenario
// (-dump / -scenario).
//
// Usage:
//
//	sglsim -graph star -n 5 -starts 1,2,3 -labels 4,2,7
//	sglsim -graph path -n 4 -starts 0,3 -labels 1,5 -trace
//	sglsim -table E8
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"meetpoly"
	"meetpoly/internal/buildinfo"
	"meetpoly/internal/experiments"
)

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	gkind := flag.String("graph", "star", "path|ring|star|clique|bintree|random")
	n := flag.Int("n", 5, "graph size")
	seed := flag.Int64("seed", 1, "seed for random graphs and the catalog")
	startsFlag := flag.String("starts", "1,2,3", "comma-separated start nodes")
	labelsFlag := flag.String("labels", "4,2,7", "comma-separated labels")
	advName := flag.String("adv", "roundrobin",
		"roundrobin|avoider|random[:seed]|biased[:w1,w2]|latewake[:hold[:agent]]|any registered family")
	budget := flag.Int("budget", 40_000_000, "scheduler event budget")
	table := flag.Bool("table", false, "print table E8 over the default instance suite")
	famMax := flag.Int("family", 6, "catalog family max size")
	scenarioFile := flag.String("scenario", "", "run a serialized scenario JSON file instead of flags")
	dump := flag.Bool("dump", false, "print the scenario JSON implied by the flags and exit")
	trace := flag.Bool("trace", false, "stream traversal/meeting/phase events while running")
	version := flag.Bool("version", false, "print version information and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("sglsim"))
		return
	}

	opts := []meetpoly.Option{meetpoly.WithMaxN(*famMax), meetpoly.WithSeed(*seed)}
	if *table {
		// The table engine carries no observer: -trace never enters a table.
		experiments.E8SGL(meetpoly.NewEngine(opts...), experiments.DefaultSGLInstances(), *budget).Render(os.Stdout)
		return
	}
	if *trace {
		opts = append(opts, meetpoly.WithObserver(meetpoly.NewTraceObserver(os.Stdout)))
	}
	eng := meetpoly.NewEngine(opts...)

	var sc meetpoly.Scenario
	if *scenarioFile != "" {
		var err error
		sc, err = meetpoly.LoadScenarioFile(*scenarioFile, meetpoly.ScenarioSGL)
		if err != nil {
			fatal(err)
		}
	} else {
		starts, err := parseInts(*startsFlag)
		if err != nil {
			fatal(fmt.Errorf("bad -starts: %w", err))
		}
		rawLabels, err := parseInts(*labelsFlag)
		if err != nil {
			fatal(fmt.Errorf("bad -labels: %w", err))
		}
		labs := make([]meetpoly.Label, len(rawLabels))
		for i, v := range rawLabels {
			labs[i] = meetpoly.Label(v)
		}
		sc = meetpoly.Scenario{
			Name:      "sglsim",
			Kind:      meetpoly.ScenarioSGL,
			Graph:     meetpoly.GraphSpec{Kind: *gkind, N: *n, Seed: *seed},
			Starts:    starts,
			Labels:    labs,
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
	sres := res.SGL
	fmt.Printf("graph=%s team k=%d total cost=%d all-output=%v\n",
		g, len(sc.Labels), sres.TotalCost, sres.AllOutput)
	for _, a := range sres.Agents {
		if !a.HasOutput {
			fmt.Printf("  L%-4d state=%-9s NO OUTPUT (raise -budget)\n", a.Label, a.State)
			continue
		}
		fmt.Printf("  L%-4d state=%-9s team=%d leader=L%d newname=%d traversals=%d output=%v\n",
			a.Label, a.State, a.TeamSize, a.Leader, a.NewName, a.Traversals, a.Output)
	}
}
