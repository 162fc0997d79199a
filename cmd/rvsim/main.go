// Command rvsim runs Algorithm RV-asynch-poly on a chosen graph under a
// chosen adversary, optionally certifying the exact worst case with the
// exhaustive lattice adversary, and can regenerate the measured tables
// E4 and E6 of EXPERIMENTS.md.
//
// Every flag maps 1:1 onto a serialized meetpoly.Scenario: -dump prints
// the scenario JSON instead of running, and -scenario runs a JSON file
// produced that way (or by any other tool).
//
// Usage:
//
//	rvsim -graph path -n 4 -s1 0 -s2 3 -l1 2 -l2 5 -adv avoider
//	rvsim -graph ring -n 5 -adv random:7 -dump > sc.json
//	rvsim -scenario sc.json -trace
//	rvsim -certify 4000 -graph star -n 4
//	rvsim -table E4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"meetpoly"
	"meetpoly/internal/buildinfo"
	"meetpoly/internal/core"
	"meetpoly/internal/costmodel"
	"meetpoly/internal/experiments"
	"meetpoly/internal/sched"
)

// specFromFlags translates the -graph/-n/-seed flags into a GraphSpec;
// "ring-shuffled" is kept as an alias for ring+shuffle.
func specFromFlags(kind string, n int, seed int64) meetpoly.GraphSpec {
	if kind == "ring-shuffled" {
		return meetpoly.GraphSpec{Kind: "ring", N: n, Seed: seed, Shuffle: true}
	}
	return meetpoly.GraphSpec{Kind: kind, N: n, Seed: seed}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	gkind := flag.String("graph", "path", "path|ring|ring-shuffled|star|clique|bintree|random")
	n := flag.Int("n", 4, "graph size")
	seed := flag.Int64("seed", 1, "seed for random/shuffled graphs and the catalog")
	s1 := flag.Int("s1", 0, "start node of agent 1")
	s2 := flag.Int("s2", -1, "start node of agent 2 (-1 = last node)")
	l1 := flag.Uint64("l1", 2, "label of agent 1")
	l2 := flag.Uint64("l2", 5, "label of agent 2")
	advName := flag.String("adv", "roundrobin",
		"roundrobin|avoider|random[:seed]|biased[:w1,w2]|latewake[:hold[:agent]]|any registered family")
	budget := flag.Int("budget", 2_000_000, "adversary event budget")
	certify := flag.Int("certify", 0, "if > 0, certify the worst case on route prefixes of this length")
	replay := flag.Bool("replay", false, "with -certify: replay the reconstructed worst-case schedule")
	table := flag.String("table", "", "regenerate a measured table instead: E4|E4s|E6")
	famMax := flag.Int("family", 8, "catalog family max size")
	scenarioFile := flag.String("scenario", "", "run a serialized scenario JSON file instead of flags")
	dump := flag.Bool("dump", false, "print the scenario JSON implied by the flags and exit")
	trace := flag.Bool("trace", false, "stream traversal/meeting/phase events while running")
	version := flag.Bool("version", false, "print version information and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("rvsim"))
		return
	}

	opts := []meetpoly.Option{meetpoly.WithMaxN(*famMax), meetpoly.WithSeed(*seed)}
	if *table != "" {
		// The table engine carries no observer: -trace never enters a table.
		eng := meetpoly.NewEngine(opts...)
		var t *experiments.Table
		switch *table {
		case "E4":
			t = experiments.E4Measured(eng, experiments.DefaultRVInstances(), *budget)
		case "E4s":
			t = experiments.E4Symmetry(eng, *budget)
		case "E6":
			t = experiments.E6Certified(eng, experiments.DefaultRVInstances(), 4000)
		default:
			fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
			os.Exit(2)
		}
		t.Render(os.Stdout)
		return
	}
	if *trace {
		opts = append(opts, meetpoly.WithObserver(meetpoly.NewTraceObserver(os.Stdout)))
	}
	eng := meetpoly.NewEngine(opts...)

	var sc meetpoly.Scenario
	if *scenarioFile != "" {
		var err error
		sc, err = meetpoly.LoadScenarioFile(*scenarioFile,
			meetpoly.ScenarioRendezvous, meetpoly.ScenarioCertify)
		if err != nil {
			fatal(err)
		}
	} else {
		spec := specFromFlags(*gkind, *n, *seed)
		g, err := spec.Build()
		if err != nil {
			fatal(err)
		}
		start2 := *s2
		if start2 < 0 {
			start2 = g.N() - 1
		}
		sc = meetpoly.Scenario{
			Name:      "rvsim",
			Kind:      meetpoly.ScenarioRendezvous,
			Graph:     spec,
			Starts:    []int{*s1, start2},
			Labels:    []meetpoly.Label{meetpoly.Label(*l1), meetpoly.Label(*l2)},
			Adversary: *advName,
			Budget:    *budget,
		}
		if *certify > 0 {
			sc.Kind = meetpoly.ScenarioCertify
			sc.Moves = *certify
			sc.Budget = 0
			sc.Adversary = ""
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

	if sc.Kind == meetpoly.ScenarioCertify {
		cres := *res.Cert
		fmt.Printf("exhaustive adversary on %d-move prefixes: %v\n", sc.Moves, cres)
		if *replay && cres.Forced {
			replayWorst(eng, sc)
		}
		return
	}

	rres := res.Rendezvous
	g, _ := sc.BuildGraph()
	fmt.Printf("graph=%s agents: L%d@%d vs L%d@%d adversary=%q\n",
		g, sc.Labels[0], sc.Starts[0], sc.Labels[1], sc.Starts[1], sc.Adversary)
	fmt.Printf("Theorem 3.1 bound Pi(n, |Lmin|): ~2^%.1f (%d bits)\n",
		costmodel.ApproxLog2(rres.Bound), rres.Bound.BitLen())
	if !rres.Met {
		fmt.Printf("no meeting within %d events (budget << bound; raise -budget)\n", sc.Budget)
		return
	}
	where := fmt.Sprintf("node %d", rres.Meeting.Node)
	if rres.Meeting.InEdge {
		where = fmt.Sprintf("inside edge %v", rres.Meeting.Edge)
	}
	fmt.Printf("MET at %s after %d completed traversals (step %d)\n",
		where, rres.Meeting.Cost, rres.Meeting.Step)
	fmt.Printf("per-agent traversals: %v\n", rres.Summary.Traversals)
}

// replayWorst reconstructs the certified worst-case schedule and drives
// a live run along it, cross-checking the certifier against the
// simulator.
func replayWorst(eng *meetpoly.Engine, sc meetpoly.Scenario) {
	g, err := sc.Graph.Build()
	if err != nil {
		fatal(err)
	}
	ra := core.Route(g, sc.Starts[0], sc.Labels[0], eng.Env(), sc.Moves)
	rb := core.Route(g, sc.Starts[1], sc.Labels[1], eng.Env(), sc.Moves)
	schedule, cert, err := sched.WorstSchedule(ra, rb)
	if err != nil {
		fatal(err)
	}
	rr, err := eng.Run(context.Background(), meetpoly.Scenario{
		Name:              "rvsim-replay",
		Kind:              meetpoly.ScenarioRendezvous,
		GraphInstance:     g,
		Starts:            sc.Starts,
		Labels:            sc.Labels,
		AdversaryInstance: &sched.ScheduleAdversary{Schedule: schedule},
		Budget:            len(schedule) + 10,
	})
	if err != nil && !errors.Is(err, meetpoly.ErrBudgetExhausted) {
		fatal(err)
	}
	if rr.Rendezvous.Met {
		fmt.Printf("replayed worst schedule: met at cost %d (certified %d)\n",
			rr.Rendezvous.Meeting.Cost, cert.WorstCompleted)
	} else {
		fmt.Println("replay inconsistency: no meeting (bug)")
		os.Exit(1)
	}
}
