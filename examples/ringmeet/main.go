// Ringmeet demonstrates a structural phenomenon of asynchronous
// rendezvous this reproduction surfaced: on an ORIENTED ring (port 0 =
// clockwise everywhere) with rotation-equivalent starts, both agents'
// early trajectories coincide (every modified label begins 11), their
// walks are exact rotations of one another, and no schedule produces a
// meeting until the first differing label bit. For labels 1 and 3 on
// this example's catalog, even for n = 4, the paper's exact trajectory
// definitions place that bit's segment (S_3 of piece 3)
// D = 211,403,783,987,330,144 traversals out. The engine answers such a
// run in closed form instead of walking its budget (DESIGN.md §2.2).
// Shuffling the ports breaks the translation symmetry and the same agents
// meet within a few hundred traversals.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"meetpoly"
)

func run(eng *meetpoly.Engine, name string, spec meetpoly.GraphSpec) {
	res, err := eng.Run(context.Background(), meetpoly.Scenario{
		Name:      name,
		Kind:      meetpoly.ScenarioRendezvous,
		Graph:     spec,
		Starts:    []int{0, 2},
		Labels:    []meetpoly.Label{1, 3},
		Adversary: "roundrobin",
		Budget:    200_000,
	})
	if err != nil && !errors.Is(err, meetpoly.ErrBudgetExhausted) {
		log.Fatal(err)
	}
	if rv := res.Rendezvous; rv.Met {
		fmt.Printf("%-14s met after %d traversals\n", name, rv.Meeting.Cost)
	} else {
		fmt.Printf("%-14s no meeting within budget (symmetric walks never coincide)\n", name)
	}
}

func main() {
	eng := meetpoly.NewEngine(meetpoly.WithMaxN(6), meetpoly.WithSeed(1))
	fmt.Println("labels 1 and 3, starts 0 and 2, round-robin schedule, budget 200k events")
	fmt.Println()
	run(eng, "oriented ring", meetpoly.GraphSpec{Kind: "ring", N: 4})
	run(eng, "shuffled ports", meetpoly.GraphSpec{Kind: "ring", N: 4, Seed: 4, Shuffle: true})
	fmt.Println()
	fmt.Println("The guarantee of Theorem 3.1 is intact in both cases — on the oriented")
	fmt.Println("ring it is simply enforced by the label-bit machinery, whose pieces the")
	fmt.Println("exact definitions make astronomically long (see cmd/costtable -table E3).")
}
