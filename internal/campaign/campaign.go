// Package campaign implements the sweep engine behind the public
// Campaign/Sweep API: it expands a declarative sweep specification (the
// cross product of graph families × sizes × start pairs × label pairs ×
// adversary specs × scenario kinds) into concrete scenario cells with
// deterministic per-cell seeds, checks every run against oracle
// predicates derived from the paper's cost bounds (internal/costmodel),
// and aggregates per-cell results into cost-statistics tables.
//
// The package is deliberately engine-agnostic: it produces Cells (plain
// scenario descriptors) and consumes Outcomes (plain run summaries), so
// the root package owns the only dependency on the Engine. Everything
// here is deterministic — expanding the same Spec always yields the same
// cells in the same order, which is what lets a single seed string like
// "nightly#412" replay any failing cell exactly (see Replay).
package campaign

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"meetpoly/internal/lazyrand"
	"meetpoly/internal/registry"
	"meetpoly/internal/uxs"
)

// Scenario kind names of the built-in kinds, mirroring the root
// package's ScenarioKind values (an internal package cannot import the
// root facade). Custom kinds registered through the root package's
// RegisterScenarioKind are sweepable by their registered name.
const (
	KindRendezvous = "rendezvous"
	KindBaseline   = "baseline"
	KindESST       = "esst"
	KindSGL        = "sgl"
	KindCertify    = "certify"
)

// AllKinds lists the built-in scenario kinds in canonical sweep order —
// the default Kinds axis. Custom registered kinds are deliberately not
// included (a spec that omits Kinds must expand identically on every
// machine, regardless of which extensions are linked in); name them
// explicitly to sweep them.
func AllKinds() []string {
	return registry.BuiltinKinds()
}

// MaxCells caps the number of cells a spec may expand into. A sweep
// spec is user input like any other declarative descriptor, and without
// this cap "start_pairs": 2e9 would make Expand an allocation bomb.
// 2^18 cells is two orders of magnitude beyond the acceptance campaign.
const MaxCells = 1 << 18

// Spec declaratively describes a campaign: the axes whose cross product
// becomes the cell set. It round-trips through JSON so campaigns are
// files, not code.
type Spec struct {
	// Name identifies the campaign in reports.
	Name string `json:"name,omitempty"`
	// Seed is the campaign master seed string. Every cell's replay seed
	// is "<Seed>#<index>", and all derived randomness (start pairs,
	// label values, random-adversary seeds) hashes off that string, so
	// one seed string pins one exact scenario.
	Seed string `json:"seed"`
	// Kinds are the scenario kinds to sweep (default: all five).
	Kinds []string `json:"kinds,omitempty"`
	// Graphs are the graph axes (family × sizes).
	Graphs []GraphAxis `json:"graphs"`
	// StartPairs is how many start placements to derive per graph cell
	// (default 1). Placement sp is shared by every cell with the same
	// graph and sp index — across kinds, label pairs and adversaries —
	// so those axes compare the same instances. Distinct sp values are
	// independent draws and can coincide on very small graphs.
	StartPairs int `json:"start_pairs,omitempty"`
	// LabelPairs is how many label assignments to derive per placement
	// for labeled kinds (default 1; ESST ignores it). Assignment lp is
	// likewise shared across kinds and adversaries; distinct lp values
	// are independent draws and may occasionally coincide.
	LabelPairs int `json:"label_pairs,omitempty"`
	// Adversaries are adversary spec strings in the root package's
	// ParseAdversary syntax (default: [""], the round-robin schedule).
	// A bare "random" is specialized per cell with a derived seed so
	// cells differ; "random:<seed>" pins one seed for every cell.
	Adversaries []string `json:"adversaries,omitempty"`
	// Budget bounds adversary events per run (all kinds but certify).
	Budget int `json:"budget"`
	// Moves is the certify route-prefix length (default 200).
	Moves int `json:"moves,omitempty"`
}

// GraphAxis describes one graph family × size axis of the sweep.
type GraphAxis struct {
	// Kind names a root GraphSpec builder: path|ring|star|clique|
	// bintree|tree|random|grid|torus|hypercube|lollipop|petersen.
	Kind string `json:"kind"`
	// Sizes are the N values to sweep (ignored by grid/torus/lollipop/
	// petersen; for hypercube each size is the dimension).
	Sizes []int `json:"sizes,omitempty"`
	// Rows and Cols size grid/torus cells (clique size and tail length
	// for lollipop).
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// P is the edge probability for random graphs (0 = builder default).
	P float64 `json:"p,omitempty"`
	// Seed drives random generation and port shuffling. Zero selects
	// the family-default derivation (the seeds uxs.DefaultFamily uses),
	// so expanded graphs are recognized by a default verified catalog
	// without extending it — except shuffled "random" axes, where one
	// seed cannot match both the family's generation and shuffle seeds;
	// those cells run fine but extend the engine's catalog (or fail
	// with WithAutoExtend(false)).
	Seed int64 `json:"seed,omitempty"`
	// Shuffle applies adversarially permuted port numbers.
	Shuffle bool `json:"shuffle,omitempty"`
}

// graphCell is one resolved graph cell of an axis: the descriptor its
// cells carry (the size axis collapsed, seeds made explicit), its node
// count, for start-pair derivation, and its axisLabel, which every cell
// ID and draw key of the graph cell embeds.
type graphCell struct {
	spec  registry.GraphSpec
	nodes int
	label string
}

// Cell is one fully-resolved scenario descriptor of the sweep.
type Cell struct {
	// Index is the cell's position in expansion order.
	Index int `json:"index"`
	// ID is the human-readable cell identity (kind/graph/axes).
	ID string `json:"id"`
	// Seed is the replay seed string "<spec seed>#<index>": Replay
	// re-derives this exact cell from it.
	Seed string `json:"seed"`

	Kind      string             `json:"kind"`
	Graph     registry.GraphSpec `json:"graph"`
	Starts    []int              `json:"starts"`
	Labels    []uint64           `json:"labels,omitempty"`
	Adversary string             `json:"adversary,omitempty"`
	Budget    int                `json:"budget,omitempty"`
	Moves     int                `json:"moves,omitempty"`
}

// normalized returns the spec with defaults applied.
func (s Spec) normalized() Spec {
	if len(s.Kinds) == 0 {
		s.Kinds = AllKinds()
	}
	if s.StartPairs < 1 {
		s.StartPairs = 1
	}
	if s.LabelPairs < 1 {
		s.LabelPairs = 1
	}
	if len(s.Adversaries) == 0 {
		s.Adversaries = []string{""}
	}
	if s.Moves == 0 {
		s.Moves = 200
	}
	return s
}

// Validate checks the spec's own consistency (scenario-level validity is
// re-checked by the engine on every expanded cell).
func (s Spec) Validate() error {
	s = s.normalized()
	if s.Seed == "" {
		return fmt.Errorf("campaign: spec needs a seed string")
	}
	if len(s.Graphs) == 0 {
		return fmt.Errorf("campaign: spec needs at least one graph axis")
	}
	needsBudget := false
	for _, k := range s.Kinds {
		meta, ok := registry.LookupKindMeta(k)
		if !ok {
			return fmt.Errorf("campaign: unknown scenario kind %q", k)
		}
		if meta.UsesBudget {
			needsBudget = true
		}
	}
	if needsBudget && s.Budget <= 0 {
		return fmt.Errorf("campaign: spec needs a positive budget for kinds %v", s.Kinds)
	}
	if s.Moves < 0 {
		return fmt.Errorf("campaign: negative moves")
	}
	graphCells := 0
	for _, ga := range s.Graphs {
		cs, err := ga.cells()
		if err != nil {
			return err
		}
		graphCells += len(cs)
	}
	// Project the expanded cell count with saturating arithmetic so
	// oversized axes cannot overflow their way past the cap. The axis
	// shape comes from each kind's registered metadata: the label axis
	// applies to labeled kinds, the adversary axis to scheduled ones.
	perGraph := 0
	for _, k := range s.Kinds {
		meta, _ := registry.LookupKindMeta(k)
		per := s.StartPairs
		if meta.Labeled {
			per = satMul(per, s.LabelPairs)
		}
		if meta.UsesAdversary {
			per = satMul(per, len(s.Adversaries))
		}
		perGraph = satAdd(perGraph, per)
	}
	if total := satMul(graphCells, perGraph); total > MaxCells {
		return fmt.Errorf("campaign: spec expands to %d cells, over the %d-cell cap", total, MaxCells)
	}
	return nil
}

// satMul and satAdd saturate at MaxCells+1, enough to fail the cap
// check without risking integer overflow on hostile axis sizes.
func satMul(a, b int) int {
	if a < 0 || b < 0 {
		return MaxCells + 1
	}
	if a == 0 || b == 0 {
		return 0
	}
	if a > (MaxCells+1)/b+1 {
		return MaxCells + 1
	}
	p := a * b
	if p > MaxCells+1 || p/b != a {
		return MaxCells + 1
	}
	return p
}

func satAdd(a, b int) int {
	s := a + b
	if s > MaxCells+1 || s < 0 {
		return MaxCells + 1
	}
	return s
}

// cells collapses the axis into resolved graph cells. The axis shape
// (sized families vs fixed rows×cols descriptors), minimum sizes, and
// derived defaults all come from the kind's registry entry, so a custom
// registered kind sweeps exactly like a built-in.
func (ga GraphAxis) cells() ([]graphCell, error) {
	k, ok := registry.LookupGraph(ga.Kind)
	if !ok {
		return nil, fmt.Errorf("campaign: unknown graph kind %q", ga.Kind)
	}
	// finish applies the defaults every resolved cell shares: the
	// kind's own axis defaults (family seeds, edge probability), then
	// the family shuffle seed for a cell shuffled with a zero seed, so
	// such cells are recognized by a default verified catalog without
	// extending it.
	finish := func(spec registry.GraphSpec, nodes int) graphCell {
		if k.AxisDefaults != nil {
			k.AxisDefaults(&spec)
		}
		if spec.Shuffle && spec.Seed == 0 {
			spec.Seed = uxs.DefaultShuffleSeed(nodes)
		}
		return graphCell{spec: spec, nodes: nodes, label: axisLabel(spec)}
	}
	if k.Sized {
		if len(ga.Sizes) == 0 {
			return nil, fmt.Errorf("campaign: graph axis %q needs sizes", ga.Kind)
		}
		out := make([]graphCell, 0, len(ga.Sizes))
		for _, n := range ga.Sizes {
			nodes, err := k.NodeCount(n, 0, 0)
			if err != nil {
				return nil, fmt.Errorf("campaign: %v", err)
			}
			if k.CheckAxis != nil {
				if err := k.CheckAxis(ga.Kind, n, 0, 0); err != nil {
					return nil, fmt.Errorf("campaign: %v", err)
				}
			}
			out = append(out, finish(registry.GraphSpec{Kind: ga.Kind, N: n,
				P: ga.P, Seed: ga.Seed, Shuffle: ga.Shuffle}, nodes))
		}
		return out, nil
	}
	if k.CheckAxis != nil {
		if err := k.CheckAxis(ga.Kind, 0, ga.Rows, ga.Cols); err != nil {
			return nil, fmt.Errorf("campaign: %v", err)
		}
	}
	nodes, err := k.NodeCount(0, ga.Rows, ga.Cols)
	if err != nil {
		return nil, fmt.Errorf("campaign: %v", err)
	}
	return []graphCell{finish(registry.GraphSpec{Kind: ga.Kind, Rows: ga.Rows, Cols: ga.Cols,
		P: ga.P, Seed: ga.Seed, Shuffle: ga.Shuffle}, nodes)}, nil
}

// axisLabel renders the graph cell identity for cell IDs. The shape is
// registry-agnostic: rows×cols descriptors label as "-RxC", sized ones
// as "-N", and dimensionless kinds (petersen) as the bare name.
func axisLabel(p registry.GraphSpec) string {
	var buf [64]byte
	return string(appendAxisLabel(buf[:0], p))
}

func appendAxisLabel(b []byte, p registry.GraphSpec) []byte {
	b = append(b, p.Kind...)
	switch {
	case p.Rows != 0 || p.Cols != 0:
		b = append(b, '-')
		b = strconv.AppendInt(b, int64(p.Rows), 10)
		b = append(b, 'x')
		b = strconv.AppendInt(b, int64(p.Cols), 10)
	case p.N != 0:
		b = append(b, '-')
		b = strconv.AppendInt(b, int64(p.N), 10)
	}
	if p.Shuffle {
		b = append(b, "-shuf"...)
	}
	return b
}

// hash64 hashes a seed string to the int64 that drives a cell's derived
// randomness: 64-bit FNV-1a, as hash/fnv computes it, without its
// allocations. Stability across builds matters more than quality here,
// and FNV-1a is fixed by its definition.
func hash64[S string | []byte](s S) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return int64(h & (1<<63 - 1))
}

// CellSeed returns the replay seed string of cell index under master.
func CellSeed(master string, index int) string {
	var buf [64]byte
	return string(appendCellSeed(buf[:0], master, index))
}

func appendCellSeed(b []byte, master string, index int) []byte {
	b = append(b, master...)
	b = append(b, '#')
	return strconv.AppendInt(b, int64(index), 10)
}

// ParseCellSeed splits a replay seed string into master seed and index.
func ParseCellSeed(seed string) (master string, index int, err error) {
	i := strings.LastIndexByte(seed, '#')
	if i < 0 {
		return "", 0, fmt.Errorf("campaign: seed %q has no #index suffix", seed)
	}
	idx, err := strconv.Atoi(seed[i+1:])
	if err != nil || idx < 0 {
		return "", 0, fmt.Errorf("campaign: seed %q has a malformed index", seed)
	}
	return seed[:i], idx, nil
}

// kindMeta resolves a kind's registered campaign metadata. Walk
// validates the spec first, so lookups cannot miss.
func kindMeta(kind string) registry.KindMeta {
	m, _ := registry.LookupKindMeta(kind)
	return m
}

// Expand resolves the spec's cross product into concrete cells, in a
// deterministic order: kind, then graph axis, then size, then start
// pair, then label pair, then adversary. Certify cells skip the
// adversary axis (the certifier ranges over all schedules), and ESST
// cells skip the label axis (its agents are anonymous).
//
// Expand materializes the full cell slice; Walk streams the same cells
// one at a time in the same order, and Count projects how many there
// are, both without the O(cells) allocation — the shapes Engine.Sweep
// and `rvsweep -expand` consume.
func Expand(spec Spec) ([]Cell, error) {
	n, err := Count(spec)
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, 0, n)
	if err := Walk(spec, func(c Cell) bool {
		cells = append(cells, c)
		return true
	}); err != nil {
		return nil, err
	}
	return cells, nil
}

// expander carries the streaming expansion state: the cell counter, the
// per-expansion memo of derived instance draws, and the one random
// source every draw re-seeds. The memo exists because placements and
// label assignments are shared across every cell with the same
// (graph, sp[, lp]) key, and a memo hit skips the source altogether.
// The source is a lazyrand.Source: re-seeding it yields exactly the
// stream a fresh rand.NewSource would, and a key's two draws build 32
// of its register words instead of filling all 607.
//
// A draw is seeded by the hash of its key string,
// "<seed>/<axis label>/start<sp>[/label<lp>]". The memos are keyed by
// (axis label, sp, lp) instead, which determines that string, so the
// string is formatted (into buf) and hashed only on a miss.
type expander struct {
	spec  Spec
	index int

	rng       *rand.Rand
	startMemo map[drawKey][2]int
	labelMemo map[drawKey][2]uint64
	buf       []byte
}

// drawKey identifies a memoized draw: the graph cell's axis label, the
// start pair index and, for a label assignment, the label pair index.
type drawKey struct {
	label  string
	sp, lp int
}

func newExpander(spec Spec) *expander {
	return &expander{
		spec:      spec,
		rng:       rand.New(lazyrand.New(0)),
		startMemo: make(map[drawKey][2]int),
		labelMemo: make(map[drawKey][2]uint64),
	}
}

// seedDraw re-seeds the source from the hash of the draw's key string;
// lp < 0 selects a start placement's key, which has no label part.
func (x *expander) seedDraw(label string, sp, lp int) {
	b := append(x.buf[:0], x.spec.Seed...)
	b = append(b, '/')
	b = append(b, label...)
	b = append(b, "/start"...)
	b = strconv.AppendInt(b, int64(sp), 10)
	if lp >= 0 {
		b = append(b, "/label"...)
		b = strconv.AppendInt(b, int64(lp), 10)
	}
	x.buf = b
	x.rng.Seed(hash64(b))
}

// starts returns the (shared) start placement for (graph cell, sp).
func (x *expander) starts(gp graphCell, sp int) [2]int {
	key := drawKey{label: gp.label, sp: sp}
	if s, ok := x.startMemo[key]; ok {
		return s
	}
	x.seedDraw(gp.label, sp, -1)
	s1 := x.rng.Intn(gp.nodes)
	s2 := x.rng.Intn(gp.nodes - 1)
	if s2 >= s1 {
		s2++
	}
	out := [2]int{s1, s2}
	x.startMemo[key] = out
	return out
}

// labels returns the (shared) label assignment for (graph cell, sp, lp).
func (x *expander) labels(gp graphCell, sp, lp int) [2]uint64 {
	key := drawKey{label: gp.label, sp: sp, lp: lp}
	if l, ok := x.labelMemo[key]; ok {
		return l
	}
	x.seedDraw(gp.label, sp, lp)
	l1 := uint64(1 + x.rng.Intn(64))
	l2 := uint64(1 + x.rng.Intn(63))
	if l2 >= l1 {
		l2++
	}
	out := [2]uint64{l1, l2}
	x.labelMemo[key] = out
	return out
}

// cell resolves one concrete cell of the cross product. Its strings are
// appended into stack buffers, one allocation each.
func (x *expander) cell(meta registry.KindMeta, gp graphCell, sp, lp int, adversary string) Cell {
	idx := x.index
	x.index++
	var buf [128]byte
	seed := string(appendCellSeed(buf[:0], x.spec.Seed, idx))
	c := Cell{
		Index: idx,
		Seed:  seed,
		Kind:  meta.Name,
		Graph: gp.spec,
	}
	// Instance derivation is keyed on the graph cell and the sp/lp
	// axis indices — NOT on the cell index — so cells that differ
	// only in kind, label pair or adversary run the SAME placement
	// (and, per placement, the same labels). That is what lets cells
	// of different kinds or adversaries compare like against like,
	// and what the s<sp>/l<lp> components of the cell ID assert.
	s := x.starts(gp, sp)
	c.Starts = []int{s[0], s[1]}
	if meta.Labeled {
		l := x.labels(gp, sp, lp)
		c.Labels = []uint64{l[0], l[1]}
	}
	if meta.UsesBudget {
		c.Budget = x.spec.Budget
	}
	if meta.UsesMoves {
		c.Moves = x.spec.Moves
	}
	if name, hasParams := splitAdversary(adversary); !hasParams && name != "" {
		// Families registered with per-cell seeding (the built-in
		// "random") specialize a bare spec with a seed derived from the
		// cell's replay string, so cells differ while each stays
		// individually replayable.
		if am, ok := registry.LookupAdversaryMeta(name); ok && am.PerCellSeed {
			h := hash64(append(append(buf[:0], seed...), "/adv"...))
			b := append(buf[:0], name...)
			b = append(b, ':')
			adversary = string(strconv.AppendInt(b, h, 10))
		}
	}
	c.Adversary = adversary
	advLabel := adversary
	if advLabel == "" {
		advLabel = "roundrobin"
	}
	b := append(buf[:0], meta.Name...)
	b = append(b, '/')
	b = append(b, gp.label...)
	b = append(b, "/s"...)
	b = strconv.AppendInt(b, int64(sp), 10)
	b = append(b, "/l"...)
	b = strconv.AppendInt(b, int64(lp), 10)
	b = append(b, '/')
	b = append(b, advLabel...)
	c.ID = string(b)
	return c
}

// Walk streams the spec's cells to yield in expansion order (identical
// to Expand's), stopping early when yield returns false. It holds one
// cell at a time: million-cell campaigns expand in bounded memory.
func Walk(spec Spec, yield func(Cell) bool) error {
	return WalkRange(spec, 0, MaxCells, yield)
}

// WalkRange streams only the cells whose Index falls in the half-open
// range [lo, hi), in expansion order, stopping early when yield returns
// false. A hi beyond the expansion simply ends at the last cell.
//
// Range expansion is the unit sharded sweeps are built on, so its
// contract is strict: cell i yielded by any range is byte-identical to
// cell i of a full Walk. That holds because the derived instance draws
// (start placements, label assignments, per-cell adversary seeds) are
// keyed on the campaign seed and the axis coordinates — never on what
// was expanded before them — and skipped positions advance only the
// index counter, none of the derivation.
func WalkRange(spec Spec, lo, hi int, yield func(Cell) bool) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if lo < 0 || hi < lo {
		return fmt.Errorf("campaign: invalid cell range [%d, %d)", lo, hi)
	}
	spec = spec.normalized()
	x := newExpander(spec)
	// emit advances one cross-product position: positions below lo skip
	// their derivation entirely, positions at or past hi end the walk.
	emit := func(meta registry.KindMeta, gp graphCell, sp, lp int, adv string) bool {
		if x.index >= hi {
			return false
		}
		if x.index < lo {
			x.index++
			return true
		}
		return yield(x.cell(meta, gp, sp, lp, adv))
	}
	for _, kind := range spec.Kinds {
		meta := kindMeta(kind)
		for _, ga := range spec.Graphs {
			gps, err := ga.cells()
			if err != nil {
				return err
			}
			for _, gp := range gps {
				for sp := 0; sp < spec.StartPairs; sp++ {
					labelPairs := spec.LabelPairs
					if !meta.Labeled {
						labelPairs = 1
					}
					for lp := 0; lp < labelPairs; lp++ {
						if !meta.UsesAdversary {
							if !emit(meta, gp, sp, lp, "") {
								return nil
							}
							continue
						}
						for _, adv := range spec.Adversaries {
							if !emit(meta, gp, sp, lp, adv) {
								return nil
							}
						}
					}
				}
			}
		}
	}
	return nil
}

// splitAdversary splits an adversary spec string into its family name
// and whether any ':'-separated parameters follow.
func splitAdversary(spec string) (name string, hasParams bool) {
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		return spec[:i], true
	}
	return spec, false
}

// Graphs returns the resolved graph cells of the spec's axes — the
// unique graphs a sweep touches, which is what the engine's pre-pass
// prepares (build + coverage) before any run is in flight, so catalog
// extensions never happen mid-sweep.
func Graphs(spec Spec) ([]registry.GraphSpec, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var out []registry.GraphSpec
	for _, ga := range spec.Graphs {
		gcs, err := ga.cells()
		if err != nil {
			return nil, err
		}
		for _, gc := range gcs {
			out = append(out, gc.spec)
		}
	}
	return out, nil
}

// Count returns how many cells the spec expands to, by axis arithmetic
// alone — no cells are derived.
func Count(spec Spec) (int, error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	spec = spec.normalized()
	graphCells := 0
	for _, ga := range spec.Graphs {
		cs, err := ga.cells()
		if err != nil {
			return 0, err
		}
		graphCells += len(cs)
	}
	perGraph := 0
	for _, k := range spec.Kinds {
		meta := kindMeta(k)
		per := spec.StartPairs
		if meta.Labeled {
			per *= spec.LabelPairs
		}
		if meta.UsesAdversary {
			per *= len(spec.Adversaries)
		}
		perGraph += per
	}
	return graphCells * perGraph, nil
}

// Replay re-derives the single cell a replay seed string identifies.
// The spec must be the campaign the seed came from: its master seed is
// checked against the string's prefix.
func Replay(spec Spec, seed string) (Cell, error) {
	master, idx, err := ParseCellSeed(seed)
	if err != nil {
		return Cell{}, err
	}
	if master != spec.Seed {
		return Cell{}, fmt.Errorf("campaign: seed %q is from campaign %q, spec has %q", seed, master, spec.Seed)
	}
	var (
		found Cell
		ok    bool
	)
	// The range walk derives exactly this one cell: positions before idx
	// advance the index counter without deriving anything, and the keyed
	// instance draws make the result identical to a full expansion's.
	if err := WalkRange(spec, idx, idx+1, func(c Cell) bool {
		found, ok = c, true
		return false // stop: replay needs exactly this cell
	}); err != nil {
		return Cell{}, err
	}
	if !ok {
		n, _ := Count(spec)
		return Cell{}, fmt.Errorf("campaign: seed %q indexes cell %d of %d", seed, idx, n)
	}
	return found, nil
}
