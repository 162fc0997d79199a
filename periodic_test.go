package meetpoly

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"testing"

	"meetpoly/internal/sched"
)

// periodic pins the engine's periodic decision (DESIGN.md §2.2,
// "Decided periodic cells") to the simulation: eng runs each scenario
// under a round-robin or avoider instance, ref under the same adversary
// wrapped in perEvent, which is never decided nor stretched.
type periodic struct {
	eng, ref    *Engine
	reg, refReg *Metrics
	// decided and events count the runs the engine must decide, and the
	// events it must leave unsimulated, derived from the reference since
	// the counters read decided0 and events0.
	decided, events, runs int
	decided0, events0     float64
}

// newPeriodic builds the two engines, each with its own metrics.
func newPeriodic() *periodic {
	p := &periodic{reg: NewMetrics(), refReg: NewMetrics()}
	p.eng, p.ref = NewEngine(WithTelemetry(p.reg)), NewEngine(WithTelemetry(p.refReg))
	return p
}

// cover runs one event of a scenario on spec on both engines, so that
// the catalog covers the graph before any length is read: an extension
// moves the lengths with the catalog's generation.
func (p *periodic) cover(t *testing.T, spec GraphSpec, starts []int) {
	t.Helper()
	sc := Scenario{Kind: ScenarioRendezvous, Graph: spec, Starts: starts, Labels: []Label{1, 2},
		Budget: 1, AdversaryInstance: perEvent{&sched.RoundRobin{}}}
	for _, e := range []*Engine{p.eng, p.ref} {
		if _, err := e.Run(context.Background(), sc); err != nil && !errors.Is(err, ErrBudgetExhausted) {
			t.Fatal(err)
		}
	}
}

// opening returns 4L and 4H for a walker run of kind on an n-node graph
// under env, from the trajectory lengths: the rendezvous opening repeats
// Y(2) through S_1(1) = B(2)B(2), and the baseline repeats X(n) through
// the smaller label's CostBound.
func opening(env *Env, kind ScenarioKind, n int, l1, l2 Label) (fourL, fourH *big.Int) {
	if kind == ScenarioBaseline {
		return new(big.Int).Lsh(env.LenX(n), 2), fourD(env, kind, n, l1, l2)
	}
	return new(big.Int).Lsh(env.LenY(2), 2), new(big.Int).Lsh(env.LenB(2), 3)
}

// check runs sc, on g, under newAdv(rot) on the engine and on the
// reference and compares the whole result, the error text and the
// adversary's final state. It then counts the run if the engine must
// decide it: a clean-symmetric run whose budget is at most 4D, and
// otherwise an unmet run with 4L < B ≤ 4H whose round-robin reference
// from the same rotation is unmet at 4L.
func (p *periodic) check(t *testing.T, g *Graph, sc Scenario, newAdv func(rot int) Adversary, rot int) {
	t.Helper()
	ctx := context.Background()
	adv, refAdv := newAdv(rot), newAdv(rot)
	sc.AdversaryInstance = adv
	res, err := p.eng.Run(ctx, sc)
	sc.AdversaryInstance = perEvent{refAdv}
	refRes, refErr := p.ref.Run(ctx, sc)
	got, want := walkerOutcome(res), walkerOutcome(refRes)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result %+v, simulated %+v", sc.Name, got, want)
	}
	if errText(err) != errText(refErr) {
		t.Fatalf("%s: error %q, simulated %q", sc.Name, errText(err), errText(refErr))
	}
	if !reflect.DeepEqual(adv, refAdv) {
		t.Fatalf("%s: adversary ends as %+v, simulated %+v", sc.Name, adv, refAdv)
	}
	p.runs++

	env, n, l1, l2, budget := p.eng.Env(), g.N(), sc.Labels[0], sc.Labels[1], big.NewInt(int64(sc.Budget))
	if g.CleanSymmetric(sc.Starts[0], sc.Starts[1]) && budget.Cmp(fourD(env, sc.Kind, n, l1, l2)) <= 0 {
		p.decided++
		p.events += sc.Budget
		return
	}
	fourL, fourH := opening(env, sc.Kind, n, l1, l2)
	if want == nil || want.Met || budget.Cmp(fourL) <= 0 || budget.Cmp(fourH) > 0 {
		return
	}
	sc.Budget = int(fourL.Int64())
	sc.AdversaryInstance = perEvent{withRotation(t, &sched.RoundRobin{}, rot)}
	rr, err := p.ref.Run(ctx, sc)
	if rr == nil || walkerOutcome(rr).Met || !errors.Is(err, ErrBudgetExhausted) {
		return
	}
	p.decided++
	p.events += int(budget.Int64()) - sc.Budget
}

// begin starts a new count: verify compares the decided counters'
// growth from here.
func (p *periodic) begin() {
	p.decided, p.events, p.runs = 0, 0, 0
	p.decided0 = counterSum(p.reg, "meetpoly_engine_cells_decided_total")
	p.events0 = counterSum(p.reg, "meetpoly_engine_events_decided_total")
}

// verify compares the decided counters' growth since begin with the runs
// check counted, and the engines' route bytes.
func (p *periodic) verify(t *testing.T) {
	t.Helper()
	if got := counterSum(p.reg, "meetpoly_engine_cells_decided_total") - p.decided0; got != float64(p.decided) {
		t.Errorf("decided counter grew by %v, want the %d qualifying runs (of %d)", got, p.decided, p.runs)
	}
	if got := counterSum(p.reg, "meetpoly_engine_events_decided_total") - p.events0; got != float64(p.events) {
		t.Errorf("decided events counter grew by %v, want %d", got, p.events)
	}
	if got := counterSum(p.refReg, "meetpoly_engine_cells_decided_total"); got != 0 {
		t.Errorf("the perEvent engine decided %v runs", got)
	}
	if bytes, refBytes := routeBytesGauge(t, p.reg), routeBytesGauge(t, p.refReg); bytes > refBytes {
		t.Errorf("route books hold %d bytes with decided runs, %d simulated", bytes, refBytes)
	}
}

// TestPeriodicMatchesSimulated pins the periodic decision to the
// simulation, run by run, through Engine.Run. The matrix holds
// hypercube 3, petersen, clique 4–6, the 2×4 grid, path 5, star 5,
// tree 6 and ring 6 shuffled with seed 3, none of them clean-symmetric;
// every ordered start pair, or every third above 6 nodes; six label
// pairs; both walker kinds; budgets 4L − 1, 4L, 4L + 1, 8L + 3 and
// 20,000, plus 4H − 1, 4H and 4H + 1 where the baseline's 4H is at most
// 20,000; round-robin and avoider instances at starting rotations 0, 1
// and 2. Each run must match the perEvent reference in result, error
// text and final adversary state. The decided counters must equal an
// independent count from the reference runs, which must be positive,
// and route bytes may only fall. The race build drops the 20,000 budget
// and keeps the start pairs from node 0.
func TestPeriodicMatchesSimulated(t *testing.T) {
	specs := []GraphSpec{
		{Kind: "hypercube", N: 3}, {Kind: "petersen"},
		{Kind: "clique", N: 4}, {Kind: "clique", N: 5}, {Kind: "clique", N: 6},
		{Kind: "grid", Rows: 2, Cols: 4}, {Kind: "path", N: 5}, {Kind: "star", N: 5},
		{Kind: "tree", N: 6}, {Kind: "ring", N: 6, Seed: 3, Shuffle: true},
	}
	labelPairs := [][]Label{{1, 2}, {1, 3}, {2, 5}, {3, 12}, {7, 6}, {15, 44}}
	p, boundary := newPeriodic(), 0
	graphs, starts := make([]*Graph, len(specs)), make([][][]int, len(specs))
	for i, spec := range specs {
		g, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = g
		k := 0
		for s1 := 0; s1 < g.N(); s1++ {
			for s2 := 0; s2 < g.N(); s2++ {
				if s1 == s2 {
					continue
				}
				if g.CleanSymmetric(s1, s2) {
					t.Fatalf("%s: starts %d, %d are clean-symmetric", spec, s1, s2)
				}
				if (g.N() <= 6 || k%3 == 0) && (!raceEnabled || s1 == 0) {
					starts[i] = append(starts[i], []int{s1, s2})
				}
				k++
			}
		}
		p.cover(t, spec, starts[i][0])
	}
	for i, spec := range specs {
		g := graphs[i]
		for _, st := range starts[i] {
			for _, labels := range labelPairs {
				for _, kind := range []ScenarioKind{ScenarioRendezvous, ScenarioBaseline} {
					fourL, fourH := opening(p.eng.Env(), kind, g.N(), labels[0], labels[1])
					l := int(fourL.Int64()) / 4
					budgets := []int{4*l - 1, 4 * l, 4*l + 1, 8*l + 3}
					if !raceEnabled {
						budgets = append(budgets, 20000)
					}
					if h := fourH.Int64(); h <= 20000 {
						budgets = append(budgets, int(h)-1, int(h), int(h)+1)
						boundary++
					}
					for advName, newAdv := range alternators(t) {
						for rot := 0; rot <= 2; rot++ {
							for _, budget := range budgets {
								p.check(t, g, Scenario{
									Name: fmt.Sprintf("%s/%v/%v/%s/%s:%d/%d", spec, st, labels, kind, advName, rot, budget),
									Kind: kind, Graph: spec, Starts: st, Labels: labels, Budget: budget,
								}, newAdv, rot)
							}
						}
					}
				}
			}
		}
	}
	p.verify(t)
	if p.decided == 0 {
		t.Error("no run was decided: the matrix misses the periodic path")
	}
	if boundary == 0 {
		t.Error("no baseline run straddles 4H: the matrix misses the boundary")
	}
	t.Logf("%d runs, %d decided (%d events unsimulated), %d baseline boundaries", p.runs, p.decided, p.events, boundary)
}

// TestPeriodicRunAllocatesNoMoreThanStretch pins the periodic path's
// allocations, as TestDecidedRunAllocatesNoMoreThanStretch does the
// symmetric one's: a baseline run on clique 4 from starts 0 and 3, which
// are not clean-symmetric, is decided at budget 4H after simulating one
// period, and must allocate no more than the same run simulated one
// event past its horizon.
func TestPeriodicRunAllocatesNoMoreThanStretch(t *testing.T) {
	decidedAllocs(t, GraphSpec{Kind: "clique", N: 4}, []int{0, 3})
}

// fuzzKinds are the built-in graph kinds FuzzPeriodicMatchesSimulated
// shuffles.
var fuzzKinds = []string{"ring", "path", "star", "clique", "tree", "hypercube", "petersen", "grid"}

// FuzzPeriodicMatchesSimulated checks the periodic decision on fuzzed
// runs exactly as TestPeriodicMatchesSimulated does: the result, the
// error text and the final adversary state must match the perEvent
// reference, the decided counters must grow by the independent count
// and route bytes may only fall. An input decodes into
//   - a graph: a random spec of 3–8 nodes with one of eight seeds, or a
//     built-in kind with its ports shuffled by one of two seeds;
//   - a start pair and two distinct labels in 1–64;
//   - a walker kind, a round-robin or avoider instance and a starting
//     rotation;
//   - a budget of 4L − 3 … 4L + 3, or 4L·k + r with k in 1–8 and
//     0 ≤ r < 4L.
//
// The engines live for the whole fuzzing process, so the catalog
// extends once per distinct graph. The seeds run in plain go test; CI
// fuzzes for 30 s.
func FuzzPeriodicMatchesSimulated(f *testing.F) {
	// shape, graph seed, starts, labels, kind/adversary/rotation, budget
	f.Add(uint8(1), uint8(1), uint8(0), uint8(3), uint8(0), uint8(1), uint8(0), uint16(1))
	f.Add(uint8(7), uint8(2), uint8(0), uint8(3), uint8(1), uint8(2), uint8(3), uint16(5))
	f.Add(uint8(11), uint8(0), uint8(0), uint8(5), uint8(2), uint8(11), uint8(6), uint16(0x93))
	f.Add(uint8(10), uint8(5), uint8(2), uint8(7), uint8(0), uint8(63), uint8(9), uint16(0x111))
	// Decided runs: both kinds, both adversaries, random and shuffled graphs.
	f.Add(uint8(125), uint8(176), uint8(123), uint8(24), uint8(233), uint8(20), uint8(30), uint16(59307))
	f.Add(uint8(109), uint8(19), uint8(25), uint8(73), uint8(34), uint8(151), uint8(176), uint16(56797))
	f.Add(uint8(12), uint8(130), uint8(156), uint8(136), uint8(42), uint8(33), uint8(7), uint16(9667))
	f.Add(uint8(81), uint8(197), uint8(136), uint8(144), uint8(74), uint8(176), uint8(81), uint16(40843))
	f.Add(uint8(79), uint8(57), uint8(86), uint8(76), uint8(28), uint8(67), uint8(133), uint16(7663))
	f.Add(uint8(145), uint8(8), uint8(78), uint8(83), uint8(84), uint8(196), uint8(167), uint16(57659))
	// An avoider period that dodges and whose round-robin check meets:
	// the whole run is simulated from the avoider's starting rotation.
	f.Add(uint8(13), uint8(0), uint8(2), uint8(4), uint8(34), uint8(7), uint8(6), uint16(13335))
	p := newPeriodic()
	f.Fuzz(func(t *testing.T, shape, gseed, s1, s2, l1, l2, mode uint8, budget uint16) {
		spec := GraphSpec{Kind: "random", N: 3 + int(shape>>1)%6, Seed: 1 + int64(gseed%8)}
		if shape&1 != 0 {
			spec = GraphSpec{Kind: fuzzKinds[int(shape>>1)%len(fuzzKinds)], Seed: 1 + int64(gseed/6%2), Shuffle: true}
			switch spec.Kind {
			case "hypercube":
				spec.N = 2 + int(gseed%2)
			case "grid":
				spec.Rows, spec.Cols = 2, 2+int(gseed%3)
			case "petersen":
			default:
				spec.N = 3 + int(gseed%6)
			}
		}
		g, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		n := g.N()
		starts := []int{int(s1) % n, int(s2) % n}
		if starts[0] == starts[1] {
			starts[1] = (starts[0] + 1) % n
		}
		labels := []Label{Label(1 + l1%64), Label(1 + l2%64)}
		if labels[0] == labels[1] {
			labels[1] = labels[0]%64 + 1
		}
		kind, advName, rot := ScenarioRendezvous, "roundrobin", int(mode>>2)%3
		if mode&1 != 0 {
			kind = ScenarioBaseline
		}
		if mode&2 != 0 {
			advName = "avoider"
		}
		p.cover(t, spec, starts)
		fourL, _ := opening(p.eng.Env(), kind, n, labels[0], labels[1])
		l4 := int(fourL.Int64())
		b := l4 + int(budget>>1)%7 - 3
		if budget&1 != 0 {
			b = l4*(1+int(budget>>1)%8) + int(budget>>4)%l4
		}
		sc := Scenario{
			Name: fmt.Sprintf("%s/%v/%v/%s/%s:%d/%d", spec, starts, labels, kind, advName, rot, b),
			Kind: kind, Graph: spec, Starts: starts, Labels: labels, Budget: b,
		}
		p.begin()
		p.check(t, g, sc, alternators(t)[advName], rot)
		p.verify(t)
		t.Logf("%s: 4L = %d, %d decided", sc.Name, l4, p.decided)
	})
}
