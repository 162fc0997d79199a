package campaign

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"meetpoly/internal/registry"
)

// OracleFailure records one oracle's verdict on one cell.
type OracleFailure struct {
	Oracle string `json:"oracle"`
	Err    string `json:"err"`
}

// CellResult pairs an executed cell with its outcome and any oracle
// failures. A failing result carries the cell's replay seed string, so
// reproducing it needs nothing but the spec and that one string.
type CellResult struct {
	Cell     Cell            `json:"cell"`
	Outcome  Outcome         `json:"outcome"`
	Failures []OracleFailure `json:"failures,omitempty"`
}

// Failed reports whether any oracle rejected the run.
func (cr CellResult) Failed() bool { return len(cr.Failures) > 0 }

// GroupKey maps a cell to the aggregation bucket it belongs to.
type GroupKey func(Cell) string

// ByKindGraph groups results by scenario kind and graph cell — the
// default report shape.
func ByKindGraph(c Cell) string {
	var buf [64]byte
	b := append(buf[:0], c.Kind...)
	b = append(b, '/')
	return string(appendAxisLabel(b, c.Graph))
}

// GroupStats aggregates the cells of one bucket.
type GroupStats struct {
	Group     string `json:"group"`
	Runs      int    `json:"runs"`
	Met       int    `json:"met"`
	Exhausted int    `json:"exhausted"`
	Canceled  int    `json:"canceled"`
	// Other counts runs in none of the above buckets: invalid expanded
	// cells and runs that ended without goal or typed sentinel. The
	// termination oracle fails each of them, but the column keeps the
	// table rows summing to Runs.
	Other  int `json:"other,omitempty"`
	Failed int `json:"failed"` // oracle failures
	// Cost statistics over met runs (the goal cost).
	MinCost int   `json:"min_cost"`
	MaxCost int   `json:"max_cost"`
	CostSum int64 `json:"cost_sum"`
}

// MeanCost returns the mean goal cost over met runs (0 when none met).
func (g GroupStats) MeanCost() float64 {
	if g.Met == 0 {
		return 0
	}
	return float64(g.CostSum) / float64(g.Met)
}

// Report is the aggregate outcome of one campaign.
type Report struct {
	Name  string `json:"name,omitempty"`
	Seed  string `json:"seed"`
	Cells int    `json:"cells"`
	Met   int    `json:"met"`
	Ex    int    `json:"exhausted"`
	Canc  int    `json:"canceled"`
	Other int    `json:"other,omitempty"`
	Fail  int    `json:"failed"`
	// Events is the total number of adversary events executed across
	// all cells — the work denominator behind cells/sec comparisons.
	Events int64        `json:"events"`
	Group  []GroupStats `json:"groups"`
	// Failures lists every oracle-failing cell, replayable by seed.
	Failures []CellResult `json:"failures,omitempty"`
}

// OK reports whether the campaign was fully verified: every run passed
// every oracle AND no run was canceled. Oracles skip canceled runs by
// design (a canceled run proves nothing), so a sweep cut short by its
// context must not read as a clean verdict.
func (r *Report) OK() bool { return r.Fail == 0 && r.Canc == 0 }

// BuildReport aggregates per-cell results under the given grouping
// (ByKindGraph when key is nil).
func BuildReport(spec Spec, results []CellResult, key GroupKey) *Report {
	a := NewAggregator(spec, key)
	for _, cr := range results {
		a.Add(cr)
	}
	return a.Report()
}

// Aggregator folds cell results into a Report incrementally, in any
// arrival order: the streaming half of Engine.Sweep feeds it from the
// worker pool as cells finish, so a million-cell campaign aggregates in
// memory proportional to its groups, failures and completed-index
// intervals, not its cells. The
// final Report is byte-identical regardless of arrival order (groups
// sort by name, failures by cell index). Add and Report are not safe
// for concurrent use; callers serialize (the engine holds a mutex).
type Aggregator struct {
	key    GroupKey // nil: ByKindGraph, looked up through byCell
	r      *Report
	groups map[string]*GroupStats
	// byCell finds a cell's ByKindGraph group without building its
	// name: the name depends only on the cell's kind and graph.
	byCell map[kindGraph]*GroupStats
	// seen guards against the same cell being folded twice. Within one
	// campaign a cell's seed string "<seed>#<index>" and its index are a
	// bijection, so the index — coalescing into a handful of intervals —
	// is the memory-bounded form of a seed-string set. The duplicate
	// hazard is real, not theoretical: a checkpoint-resumed sweep replays
	// its recovered results and then re-executes the gaps, and a cell
	// completed right at a checkpoint boundary can arrive on both paths.
	seen IndexSet
}

// NewAggregator returns an empty aggregator for one campaign
// (ByKindGraph grouping when key is nil).
func NewAggregator(spec Spec, key GroupKey) *Aggregator {
	return &Aggregator{
		key:    key,
		r:      &Report{Name: spec.Name, Seed: spec.Seed},
		groups: make(map[string]*GroupStats),
		byCell: make(map[kindGraph]*GroupStats),
	}
}

// kindGraph is what ByKindGraph reads of a cell.
type kindGraph struct {
	kind  string
	graph registry.GraphSpec
}

// group returns the stats bucket of a cell, creating it on first use.
func (a *Aggregator) group(c Cell) *GroupStats {
	if a.key != nil {
		return a.named(a.key(c))
	}
	kg := kindGraph{c.Kind, c.Graph}
	g, ok := a.byCell[kg]
	if !ok {
		g = a.named(ByKindGraph(c))
		if !math.IsNaN(c.Graph.P) { // a NaN key would never be found again
			a.byCell[kg] = g
		}
	}
	return g
}

// named returns the group called name, creating it on first use.
func (a *Aggregator) named(name string) *GroupStats {
	g, ok := a.groups[name]
	if !ok {
		g = &GroupStats{Group: name}
		a.groups[name] = g
	}
	return g
}

// Add folds one cell result into the aggregate. Feeding the same cell
// (by seed string, equivalently by index) twice is a no-op: the second
// Add changes nothing, so replay-plus-resume pipelines cannot double
// count a boundary cell.
func (a *Aggregator) Add(cr CellResult) {
	if !a.seen.Add(cr.Cell.Index) {
		return
	}
	r := a.r
	r.Cells++
	r.Events += int64(cr.Outcome.Steps)
	g := a.group(cr.Cell)
	g.Runs++
	o := cr.Outcome
	switch {
	case o.Met:
		r.Met++
		g.Met++
		if g.Met == 1 || o.Cost < g.MinCost {
			g.MinCost = o.Cost
		}
		if o.Cost > g.MaxCost {
			g.MaxCost = o.Cost
		}
		g.CostSum += int64(o.Cost)
	case o.Exhausted:
		r.Ex++
		g.Exhausted++
	case o.Canceled:
		r.Canc++
		g.Canceled++
	default:
		r.Other++
		g.Other++
	}
	if cr.Failed() {
		r.Fail++
		g.Failed++
		r.Failures = append(r.Failures, cr)
	}
}

// Report finalizes and returns the aggregate. The aggregator must not
// be used afterwards.
func (a *Aggregator) Report() *Report {
	r := a.r
	for _, g := range a.groups {
		r.Group = append(r.Group, *g)
	}
	sort.Slice(r.Group, func(i, j int) bool { return r.Group[i].Group < r.Group[j].Group })
	sort.Slice(r.Failures, func(i, j int) bool { return r.Failures[i].Cell.Index < r.Failures[j].Cell.Index })
	return r
}

// Table renders the report as an aligned text table, one row per group,
// with a totals row and a failure list (each entry replayable from its
// seed string).
func (r *Report) Table() string {
	var sb strings.Builder
	title := r.Name
	if title == "" {
		title = "campaign"
	}
	fmt.Fprintf(&sb, "== %s (seed %q): %d cells ==\n", title, r.Seed, r.Cells)
	rows := [][]string{{"group", "runs", "met", "exhausted", "canceled", "other", "oracle-fail", "min-cost", "mean-cost", "max-cost"}}
	for _, g := range r.Group {
		min, mean, max := "-", "-", "-"
		if g.Met > 0 {
			min = fmt.Sprint(g.MinCost)
			mean = fmt.Sprintf("%.1f", g.MeanCost())
			max = fmt.Sprint(g.MaxCost)
		}
		rows = append(rows, []string{g.Group, fmt.Sprint(g.Runs), fmt.Sprint(g.Met),
			fmt.Sprint(g.Exhausted), fmt.Sprint(g.Canceled), fmt.Sprint(g.Other),
			fmt.Sprint(g.Failed), min, mean, max})
	}
	rows = append(rows, []string{"TOTAL", fmt.Sprint(r.Cells), fmt.Sprint(r.Met),
		fmt.Sprint(r.Ex), fmt.Sprint(r.Canc), fmt.Sprint(r.Other), fmt.Sprint(r.Fail), "", "", ""})
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for ri, row := range rows {
		for i, c := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if pad := widths[i] - len(c); pad > 0 && i < len(row)-1 {
				sb.WriteString(strings.Repeat(" ", pad))
			}
		}
		sb.WriteByte('\n')
		if ri == 0 {
			for i, w := range widths {
				if i > 0 {
					sb.WriteString("  ")
				}
				sb.WriteString(strings.Repeat("-", w))
			}
			sb.WriteByte('\n')
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&sb, "FAIL %s (replay seed %q):", f.Cell.ID, f.Cell.Seed)
		for _, of := range f.Failures {
			fmt.Fprintf(&sb, " [%s] %s", of.Oracle, of.Err)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
