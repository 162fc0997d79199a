package meetpoly

import (
	"errors"
	"fmt"
	"sort"

	"meetpoly/internal/campaign"
)

// The campaign sweep subsystem: a SweepSpec declares the cross product
// of graph families × sizes × start pairs × label pairs × adversary
// specs × scenario kinds, Engine.Sweep expands it into concrete
// Scenarios, fans them out over the engine's worker pool, checks every
// run against oracle predicates derived from the paper's cost bounds,
// and aggregates the results into a cost-statistics report.
//
// Determinism is the point: each cell's seed string ("<spec seed>#<i>")
// pins its starts, labels and adversary seed, so any failing cell
// replays from the spec plus that one string (Engine.ReplayCell).

// SweepSpec declares a campaign. See internal/campaign.Spec for the
// field-by-field contract; load one from JSON with SweepSpecFromJSON or
// LoadSweepSpecFile.
type SweepSpec = campaign.Spec

// SweepGraphAxis is one graph family × size axis of a SweepSpec.
type SweepGraphAxis = campaign.GraphAxis

// SweepCell is one fully-resolved scenario descriptor of a sweep.
type SweepCell = campaign.Cell

// SweepOutcome is the engine-agnostic record of one executed cell that
// oracles judge.
type SweepOutcome = campaign.Outcome

// SweepOracle is a machine-checked predicate over one executed cell.
type SweepOracle = campaign.Oracle

// SweepCellResult pairs a cell with its outcome and oracle verdicts.
type SweepCellResult = campaign.CellResult

// SweepOracleFailure is one failed oracle verdict of a cell result.
type SweepOracleFailure = campaign.OracleFailure

// SweepReport is the aggregate outcome of a campaign.
type SweepReport = campaign.Report

// CellScenario converts an expanded campaign cell into the Scenario it
// executes. The conversion is 1:1 and deterministic, so a replayed cell
// runs exactly the scenario the sweep ran.
func CellScenario(c SweepCell) Scenario {
	sc := Scenario{
		Name:      c.ID,
		Kind:      ScenarioKind(c.Kind),
		Graph:     cellGraphSpec(c),
		Starts:    append([]int(nil), c.Starts...),
		Adversary: c.Adversary,
		Budget:    c.Budget,
		Moves:     c.Moves,
	}
	for _, l := range c.Labels {
		sc.Labels = append(sc.Labels, Label(l))
	}
	return sc
}

// cellGraphSpec projects a sweep cell's graph parameters into the
// GraphSpec its Scenario declares. Cells with equal specs resolve,
// through the prepared-scenario cache, to the same built *Graph.
func cellGraphSpec(c SweepCell) GraphSpec {
	return GraphSpec{
		Kind: c.Graph.Kind, N: c.Graph.N,
		Rows: c.Graph.Rows, Cols: c.Graph.Cols,
		P: c.Graph.P, Seed: c.Graph.Seed, Shuffle: c.Graph.Shuffle,
	}
}

// ExpandSweep expands a sweep spec into its cells and the scenarios
// they execute, index-aligned. It materializes both slices; callers
// that only need to iterate or count use WalkSweep/CountSweep, which
// expand in bounded memory.
func ExpandSweep(spec SweepSpec) ([]SweepCell, []Scenario, error) {
	cells, err := campaign.Expand(spec)
	if err != nil {
		return nil, nil, fmt.Errorf("%v: %w", err, ErrInvalidScenario)
	}
	scs := make([]Scenario, len(cells))
	for i, c := range cells {
		scs[i] = CellScenario(c)
	}
	return cells, scs, nil
}

// WalkSweep streams the spec's cells to yield in expansion order
// (identical to ExpandSweep's), holding one cell at a time: the
// bounded-memory path Engine.Sweep and `rvsweep -expand` use. yield
// returning false stops the walk early.
func WalkSweep(spec SweepSpec, yield func(SweepCell) bool) error {
	if err := campaign.Walk(spec, yield); err != nil {
		return fmt.Errorf("%v: %w", err, ErrInvalidScenario)
	}
	return nil
}

// WalkSweepRange streams only the cells whose index falls in the
// half-open range [lo, hi), in expansion order. Cell i yielded by any
// range is identical to cell i of a full WalkSweep — the invariant
// sharded campaigns (Engine.SweepStreamRange, rvserved's shards) are
// built on. A hi beyond the expansion ends at the last cell.
func WalkSweepRange(spec SweepSpec, lo, hi int, yield func(SweepCell) bool) error {
	if err := campaign.WalkRange(spec, lo, hi, yield); err != nil {
		return fmt.Errorf("%v: %w", err, ErrInvalidScenario)
	}
	return nil
}

// CountSweep returns how many cells the spec expands to, by axis
// arithmetic alone — no cells are derived.
func CountSweep(spec SweepSpec) (int, error) {
	n, err := campaign.Count(spec)
	if err != nil {
		return 0, fmt.Errorf("%v: %w", err, ErrInvalidScenario)
	}
	return n, nil
}

// sweepGraphSpecs resolves the spec's unique graph cells into the
// GraphSpecs their scenarios build — the engine's sweep pre-pass warms
// exactly these through the prepared-scenario cache.
func sweepGraphSpecs(spec SweepSpec) ([]GraphSpec, error) {
	gps, err := campaign.Graphs(spec)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrInvalidScenario)
	}
	out := make([]GraphSpec, len(gps))
	for i, gp := range gps {
		out[i] = GraphSpec{
			Kind: gp.Kind, N: gp.N,
			Rows: gp.Rows, Cols: gp.Cols,
			P: gp.P, Seed: gp.Seed, Shuffle: gp.Shuffle,
		}
	}
	return out, nil
}

// sweepOutcome classifies one batch result into the engine-agnostic
// outcome the campaign oracles consume.
func sweepOutcome(cell SweepCell, br BatchResult) SweepOutcome {
	o := SweepOutcome{Consistent: true}
	g := br.Graph
	if g == nil {
		// Replayed cells arrive without the prepared graph; the
		// build is deterministic, so rebuilding preserves the facts.
		if built, err := br.Scenario.BuildGraph(); err == nil {
			g = built
		}
	}
	if g != nil {
		o.N, o.M = g.N(), g.M()
	}
	if br.Err != nil {
		o.Err = br.Err.Error()
		switch {
		case errors.Is(br.Err, ErrCanceled):
			o.Canceled = true
		case errors.Is(br.Err, ErrBudgetExhausted):
			o.Exhausted = true
		case errors.Is(br.Err, ErrInvalidScenario), errors.Is(br.Err, ErrCatalogUncovered):
			o.Invalid = true
		default:
			o.EndedEarly = true
		}
	}
	res := br.Result
	if res == nil {
		return o
	}
	// Per-kind classification is the registered kind's Outcome hook —
	// built-ins surface goal costs and scheduler accounting through
	// theirs; a custom kind without one gets the generic reading that an
	// error-free run met its goal.
	if def, ok := lookupScenarioKind(br.Scenario.Kind); ok && def.Outcome != nil {
		def.Outcome(res, br.Err, &o)
	} else if br.Err == nil {
		o.Met = true
	}
	return o
}

// sglInconsistency checks the semantic invariants of a completed Strong
// Global Learning run: every agent output the same label set, agreed on
// the leader (the smallest label), reported the true team size, and took
// a distinct new name in 1..k. It returns "" when all hold.
func sglInconsistency(r *SGLResult) string {
	k := len(r.Agents)
	var ref []Label
	names := make(map[int]bool, k)
	minLabel := Label(0)
	for _, a := range r.Agents {
		if a.Label < minLabel || minLabel == 0 {
			minLabel = a.Label
		}
	}
	for i, a := range r.Agents {
		if !a.HasOutput {
			return fmt.Sprintf("agent %d has no output despite AllOutput", i)
		}
		if a.TeamSize != k {
			return fmt.Sprintf("agent %d reports team size %d, want %d", i, a.TeamSize, k)
		}
		if a.Leader != minLabel {
			return fmt.Sprintf("agent %d elected leader %d, want %d", i, a.Leader, minLabel)
		}
		if a.NewName < 1 || a.NewName > k || names[a.NewName] {
			return fmt.Sprintf("agent %d renamed to %d (not a fresh name in 1..%d)", i, a.NewName, k)
		}
		names[a.NewName] = true
		out := append([]Label(nil), a.Output...)
		sort.Slice(out, func(x, y int) bool { return out[x] < out[y] })
		if ref == nil {
			ref = out
			continue
		}
		if len(out) != len(ref) {
			return fmt.Sprintf("agent %d output %d labels, agent 0 output %d", i, len(out), len(ref))
		}
		for j := range out {
			if out[j] != ref[j] {
				return fmt.Sprintf("agent %d output disagrees with agent 0 at position %d", i, j)
			}
		}
	}
	return ""
}
