// Package registry is the open-world dispatch table behind the public
// extension API: graph kinds, scenario kinds and adversary families all
// resolve through the registries here instead of through switches, so a
// kind registered by a third party flows through exactly the code paths
// the built-ins use — declarative specs, campaign axis expansion, the
// prepared-scenario cache, and sweep aggregation (DESIGN.md §4,
// "extension points").
//
// The package deliberately holds no execution logic. A graph kind's
// entry carries everything the *declarative* layers need — axis shape,
// deterministic sizing, axis defaults, the builder, and a cache
// fingerprint — while scenario kinds and adversaries are represented
// here only by the metadata the campaign expander consumes (does the
// label axis apply? does the adversary axis apply? is a bare spec
// specialized per cell?). Their runners and parsers are root-package
// values and live in the root package's half of the registry; an
// internal package cannot name those types.
//
// Registries are process-wide and append-only: registration is intended
// for init functions or test setup, never for concurrent mutation with
// running engines. Metadata registration is idempotent when the entry is
// identical, which lets the root package re-register the built-ins
// through the same public path a third party would use.
package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"meetpoly/internal/graph"
	"meetpoly/internal/rverr"
	"meetpoly/internal/uxs"
)

// MaxSpecNodes caps the node count a declarative graph descriptor may
// request. The builders themselves are driven by trusted code and take
// any size, but a spec is user input (JSON files, CLI flags, fuzzers),
// and an unchecked "clique of 10^9 nodes" is an allocation bomb, not a
// scenario. The cap is far above the small-graph regime the verified
// catalogs target, and is shared by campaign axis validation, scenario
// validation and custom-kind sizing so the layers can never disagree
// about which descriptors fit under it.
const MaxSpecNodes = 2048

// maxHypercubeDim is the largest hypercube dimension under the cap
// (2^11 = 2048).
const maxHypercubeDim = 11

// GraphSpec declaratively describes a graph: the one graph descriptor
// of the module. Scenarios declare it (the root package aliases it as
// meetpoly.GraphSpec), campaign cells carry it, every registered kind's
// Build and AxisDefaults receive it, and the engine's prepared-scenario
// cache keys on it. Builders are deterministic: the same spec always
// yields the same port-numbered graph, which is what lets a shared
// verified catalog recognize rebuilt family members without
// re-verification, and what lets the spec act as the content address
// of the prepared-scenario cache.
type GraphSpec struct {
	// Kind names a registered graph kind: one of the built-ins
	// (path|ring|star|clique|bintree|tree|random|grid|torus|hypercube|
	// lollipop|petersen) or any kind added with meetpoly.RegisterGraphKind.
	Kind string `json:"kind"`
	// N is the node count (ignored for petersen; for hypercube it is
	// the dimension; for grid/torus/lollipop see Rows/Cols).
	N int `json:"n,omitempty"`
	// Rows and Cols size grid and torus graphs; for lollipop they are
	// the clique size and tail length.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// P is the edge probability for random graphs (default 0.3).
	P float64 `json:"p,omitempty"`
	// Seed drives random graph generation and port shuffling.
	Seed int64 `json:"seed,omitempty"`
	// Shuffle applies adversarially permuted port numbers (ShufflePorts
	// with Seed) to the built graph.
	Shuffle bool `json:"shuffle,omitempty"`
}

// String renders the spec compactly for error messages and logs:
// "ring/64", "grid/3x4", "ring/64?shuffle=7", "random/12?p=0.4&seed=3".
// Only meaningful fields appear — sized kinds print "/N", rows×cols
// kinds "/RxC", dimensionless kinds just the name — so a failing spec
// reads like the descriptor that was written, not a dump of every
// zero-valued field.
func (s GraphSpec) String() string {
	var sb strings.Builder
	sb.WriteString(s.Kind)
	switch {
	case s.Rows != 0 || s.Cols != 0:
		fmt.Fprintf(&sb, "/%dx%d", s.Rows, s.Cols)
	case s.N != 0:
		fmt.Fprintf(&sb, "/%d", s.N)
	}
	sep := byte('?')
	param := func(format string, args ...any) {
		sb.WriteByte(sep)
		sep = '&'
		fmt.Fprintf(&sb, format, args...)
	}
	if s.P != 0 {
		param("p=%g", s.P)
	}
	switch {
	case s.Shuffle:
		param("shuffle=%d", s.Seed)
	case s.Seed != 0:
		param("seed=%d", s.Seed)
	}
	return sb.String()
}

// Build constructs the described graph through the graph-kind registry.
// All failures wrap rverr.ErrInvalidScenario.
func (s GraphSpec) Build() (g *graph.Graph, err error) {
	k, ok := LookupGraph(s.Kind)
	if !ok {
		return nil, fmt.Errorf("unknown graph kind %q: %w", s.Kind, rverr.ErrInvalidScenario)
	}
	// Size-cap the request before building: the kind's NodeCount is the
	// single sizing formula shared with sweep-spec validation, so a
	// sweep spec that validates never expands into cells rejected here.
	if _, err := k.NodeCount(s.N, s.Rows, s.Cols); err != nil {
		return nil, fmt.Errorf("graph spec %s: %v: %w", s, err, rverr.ErrInvalidScenario)
	}
	defer func() {
		// The generators panic on out-of-range parameters (they are
		// driven by trusted code); a declarative spec is user input, so
		// convert panics into typed errors.
		if rec := recover(); rec != nil {
			g, err = nil, fmt.Errorf("graph spec %s: %v: %w", s, rec, rverr.ErrInvalidScenario)
		}
	}()
	g, err = k.Build(s)
	if err != nil {
		return nil, fmt.Errorf("graph spec %s: %v: %w", s, err, rverr.ErrInvalidScenario)
	}
	if g == nil {
		return nil, fmt.Errorf("graph spec %s: builder returned no graph: %w", s, rverr.ErrInvalidScenario)
	}
	// Port shuffling is applied here, outside the builders, so every
	// registered kind supports it without writing any code.
	if s.Shuffle {
		g = graph.ShufflePorts(g, s.Seed)
	}
	return g, nil
}

// GraphKind is one registered graph family. Build and NodeCount must be
// deterministic pure functions of their parameters: determinism is what
// lets a GraphSpec act as the content address of the engine's
// prepared-scenario cache, and what makes campaign cells replayable from
// a single seed string.
type GraphKind struct {
	// Name is the primary kind name ("ring", "grid", ...).
	Name string
	// Aliases are additional accepted spellings ("complete" for
	// "clique"). Lookup resolves them to this entry; descriptors keep
	// the spelling they were written with.
	Aliases []string
	// Sized reports the campaign axis shape: a sized kind sweeps over
	// GraphAxis.Sizes (one graph cell per size), a fixed kind resolves
	// to exactly one cell from Rows/Cols (or from nothing, like
	// petersen).
	Sized bool
	// NodeCount resolves the node count a descriptor requests and
	// enforces MaxSpecNodes; dimensions must be range-checked before
	// multiplying so oversized inputs cannot overflow. nil defaults to
	// "N, capped at MaxSpecNodes".
	NodeCount func(n, rows, cols int) (int, error)
	// CheckAxis validates axis-level parameters (minimum sizes, missing
	// dimensions). name is the spelling the descriptor used, for error
	// messages. nil accepts everything NodeCount accepts.
	CheckAxis func(name string, n, rows, cols int) error
	// AxisDefaults fills derived defaults on a resolved campaign cell
	// (family seeds, default edge probability). nil leaves the cell
	// as expanded. Build must apply the same value defaults itself —
	// direct scenarios do not pass through axis resolution.
	AxisDefaults func(spec *GraphSpec)
	// Build constructs the graph. Port shuffling (GraphSpec.Shuffle) is
	// applied by GraphSpec.Build, so every kind gets it for free.
	Build func(spec GraphSpec) (*graph.Graph, error)
	// Fingerprint versions the builder for content-addressed caches: an
	// engine's prepared-scenario cache keys on (spec, fingerprint), so
	// a builder that closes over external configuration must encode
	// that configuration here. Built-ins use "" (the builder is fully
	// determined by the spec).
	Fingerprint string
}

// KindMeta is the campaign-facing shape of one scenario kind: which
// sweep axes apply to its cells and which budget field they carry. The
// kind's validator and runner are root-package values registered with
// the root half of the registry.
type KindMeta struct {
	// Name is the ScenarioKind string.
	Name string
	// Labeled kinds take agent labels; the campaign label axis applies.
	Labeled bool
	// UsesAdversary kinds run under a schedule; the campaign adversary
	// axis applies. (The certifier ranges over all schedules instead.)
	UsesAdversary bool
	// UsesBudget kinds bound adversary events; cells carry Spec.Budget
	// and Scenario.Budget must be positive.
	UsesBudget bool
	// UsesMoves kinds consume a route-prefix length; cells carry
	// Spec.Moves.
	UsesMoves bool
}

// AdversaryMeta is the campaign-facing shape of one adversary family
// name. The parser itself is a root-package value.
type AdversaryMeta struct {
	// Name is the family name as it appears before any ':' in a spec
	// string. Aliases are registered as separate entries.
	Name string
	// PerCellSeed makes sweeps specialize a bare spec (no parameters)
	// with a seed derived from each cell's replay string, so cells
	// differ while staying individually replayable.
	PerCellSeed bool
}

var (
	mu         sync.RWMutex
	graphKinds = make(map[string]*GraphKind)
	kindMetas  = make(map[string]KindMeta)
	advMetas   = make(map[string]AdversaryMeta)

	// builtinKinds preserves the canonical sweep order of the built-in
	// scenario kinds (campaign.AllKinds and every default Kinds axis).
	builtinKinds []string
)

// RegisterGraph adds a graph kind. Every name and alias must be new:
// graph entries carry function values, so idempotent re-registration
// cannot be verified and is rejected outright.
func RegisterGraph(k GraphKind) error {
	if k.Name == "" {
		return fmt.Errorf("registry: graph kind needs a name")
	}
	if k.Build == nil {
		return fmt.Errorf("registry: graph kind %q needs a Build function", k.Name)
	}
	if k.NodeCount == nil {
		k.NodeCount = defaultNodeCount(k.Name)
	}
	mu.Lock()
	defer mu.Unlock()
	names := append([]string{k.Name}, k.Aliases...)
	for _, n := range names {
		if _, dup := graphKinds[n]; dup {
			return fmt.Errorf("registry: graph kind %q is already registered", n)
		}
	}
	for _, n := range names {
		graphKinds[n] = &k
	}
	return nil
}

// LookupGraph resolves a kind name or alias to its entry.
func LookupGraph(name string) (*GraphKind, bool) {
	mu.RLock()
	defer mu.RUnlock()
	k, ok := graphKinds[name]
	return k, ok
}

// GraphNames returns every registered graph kind name and alias, sorted.
func GraphNames() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(graphKinds))
	for n := range graphKinds {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RegisterKindMeta adds one scenario kind's campaign metadata. A
// re-registration with identical metadata is a no-op (the root package
// registers built-ins through the same public path a third party uses,
// after this package has already self-registered them for internal
// consumers); conflicting metadata is an error.
func RegisterKindMeta(m KindMeta) error {
	if m.Name == "" {
		return fmt.Errorf("registry: scenario kind needs a name")
	}
	mu.Lock()
	defer mu.Unlock()
	if prev, ok := kindMetas[m.Name]; ok {
		if prev == m {
			return nil
		}
		return fmt.Errorf("registry: scenario kind %q is already registered with different metadata", m.Name)
	}
	kindMetas[m.Name] = m
	return nil
}

// LookupKindMeta resolves a scenario kind name to its metadata.
func LookupKindMeta(name string) (KindMeta, bool) {
	mu.RLock()
	defer mu.RUnlock()
	m, ok := kindMetas[name]
	return m, ok
}

// BuiltinKinds returns the built-in scenario kinds in canonical sweep
// order. Custom kinds are deliberately excluded: a SweepSpec that omits
// Kinds must expand to the same cells on every machine, regardless of
// which extensions happen to be linked in — name custom kinds
// explicitly to sweep them.
func BuiltinKinds() []string {
	mu.RLock()
	defer mu.RUnlock()
	return append([]string(nil), builtinKinds...)
}

// RegisterAdversaryMeta adds one adversary family's campaign metadata,
// idempotently when identical (see RegisterKindMeta).
func RegisterAdversaryMeta(m AdversaryMeta) error {
	return RegisterAdversaryMetas([]AdversaryMeta{m})
}

// RegisterAdversaryMetas registers a family's metadata entries (name
// plus aliases) atomically: every entry is validated under the lock
// before any is inserted, so a duplicate or conflicting alias cannot
// leave the earlier names behind in a half-registered family.
func RegisterAdversaryMetas(ms []AdversaryMeta) error {
	mu.Lock()
	defer mu.Unlock()
	for _, m := range ms {
		if m.Name == "" {
			return fmt.Errorf("registry: adversary needs a name")
		}
		if prev, ok := advMetas[m.Name]; ok && prev != m {
			return fmt.Errorf("registry: adversary %q is already registered with different metadata", m.Name)
		}
	}
	for _, m := range ms {
		advMetas[m.Name] = m
	}
	return nil
}

// LookupAdversaryMeta resolves an adversary family name to its metadata.
func LookupAdversaryMeta(name string) (AdversaryMeta, bool) {
	mu.RLock()
	defer mu.RUnlock()
	m, ok := advMetas[name]
	return m, ok
}

// defaultNodeCount is the sizing of plain sized kinds: N nodes, capped.
func defaultNodeCount(name string) func(n, rows, cols int) (int, error) {
	return func(n, _, _ int) (int, error) {
		if n > MaxSpecNodes {
			return 0, fmt.Errorf("%s size %d exceeds the %d-node spec cap", name, n, MaxSpecNodes)
		}
		return n, nil
	}
}

// minSize returns the CheckAxis of a sized kind with a size floor.
func minSize(min int) func(name string, n, rows, cols int) error {
	return func(name string, n, _, _ int) error {
		if n < min {
			return fmt.Errorf("%s needs size >= %d, got %d", name, min, n)
		}
		return nil
	}
}

// The built-in graph kinds. They are registered here, at registry init,
// through the exact Register call the public RegisterGraphKind wrapper
// uses, so internal consumers (the campaign expander and its tests) see
// them without importing the root package — there is one dispatch path,
// not a built-in one and an extension one.
func init() {
	builtins := []GraphKind{
		{
			Name: "path", Sized: true,
			CheckAxis: minSize(2),
			Build:     func(p GraphSpec) (*graph.Graph, error) { return graph.Path(p.N), nil },
		},
		{
			Name: "ring", Sized: true,
			CheckAxis: minSize(3),
			Build:     func(p GraphSpec) (*graph.Graph, error) { return graph.Ring(p.N), nil },
		},
		{
			Name: "star", Sized: true,
			CheckAxis: minSize(3),
			Build:     func(p GraphSpec) (*graph.Graph, error) { return graph.Star(p.N), nil },
		},
		{
			Name: "clique", Aliases: []string{"complete"}, Sized: true,
			CheckAxis: minSize(3),
			Build:     func(p GraphSpec) (*graph.Graph, error) { return graph.Complete(p.N), nil },
		},
		{
			Name: "bintree", Sized: true,
			CheckAxis: minSize(3),
			Build:     func(p GraphSpec) (*graph.Graph, error) { return graph.BinaryTree(p.N), nil },
		},
		{
			Name: "tree", Sized: true,
			CheckAxis: minSize(2),
			AxisDefaults: func(p *GraphSpec) {
				if p.Seed == 0 {
					p.Seed = uxs.DefaultTreeSeed(p.N)
				}
			},
			Build: func(p GraphSpec) (*graph.Graph, error) { return graph.RandomTree(p.N, p.Seed), nil },
		},
		{
			Name: "random", Sized: true,
			CheckAxis: minSize(2),
			AxisDefaults: func(p *GraphSpec) {
				if p.P == 0 {
					p.P = uxs.DefaultRandomP
				}
				if p.Seed == 0 {
					p.Seed = uxs.DefaultRandomSeed(p.N)
				}
			},
			Build: func(p GraphSpec) (*graph.Graph, error) {
				prob := p.P
				if prob == 0 {
					prob = uxs.DefaultRandomP
				}
				return graph.RandomConnected(p.N, prob, p.Seed), nil
			},
		},
		{
			Name: "hypercube", Sized: true,
			NodeCount: func(n, _, _ int) (int, error) {
				if n > maxHypercubeDim {
					return 0, fmt.Errorf("hypercube dimension %d exceeds the cap of %d (2^%d = %d nodes)",
						n, maxHypercubeDim, maxHypercubeDim, MaxSpecNodes)
				}
				if n < 1 {
					return 0, nil
				}
				return 1 << n, nil
			},
			CheckAxis: func(name string, n, _, _ int) error {
				if n < 1 {
					return fmt.Errorf("hypercube dimension %d out of range", n)
				}
				return nil
			},
			Build: func(p GraphSpec) (*graph.Graph, error) { return graph.Hypercube(p.N), nil },
		},
		{
			Name:      "grid",
			NodeCount: gridNodeCount("grid"),
			CheckAxis: gridCheckAxis,
			Build:     func(p GraphSpec) (*graph.Graph, error) { return graph.Grid(p.Rows, p.Cols), nil },
		},
		{
			Name:      "torus",
			NodeCount: gridNodeCount("torus"),
			CheckAxis: gridCheckAxis,
			Build:     func(p GraphSpec) (*graph.Graph, error) { return graph.Torus(p.Rows, p.Cols), nil },
		},
		{
			Name: "lollipop",
			NodeCount: func(_, rows, cols int) (int, error) {
				// Check each dimension before summing: the sum of two
				// near-max ints overflows negative and would sneak past
				// the cap.
				if rows < 0 || cols < 0 || rows > MaxSpecNodes || cols > MaxSpecNodes || rows+cols > MaxSpecNodes {
					return 0, fmt.Errorf("lollipop %d+%d exceeds the %d-node spec cap", rows, cols, MaxSpecNodes)
				}
				return rows + cols, nil
			},
			CheckAxis: func(name string, _, rows, cols int) error {
				if rows < 2 || cols < 1 {
					return fmt.Errorf("lollipop needs clique size (rows) >= 2 and tail (cols) >= 1")
				}
				return nil
			},
			Build: func(p GraphSpec) (*graph.Graph, error) { return graph.Lollipop(p.Rows, p.Cols), nil },
		},
		{
			Name:      "petersen",
			NodeCount: func(_, _, _ int) (int, error) { return 10, nil },
			Build:     func(p GraphSpec) (*graph.Graph, error) { return graph.Petersen(), nil },
		},
	}
	for _, k := range builtins {
		if err := RegisterGraph(k); err != nil {
			panic(err)
		}
	}

	// Built-in scenario kind metadata, in canonical sweep order. The
	// root package attaches the validators and runners through the
	// public RegisterScenarioKind (idempotent over this metadata).
	builtinKinds = []string{"rendezvous", "baseline", "esst", "sgl", "certify"}
	for _, m := range []KindMeta{
		{Name: "rendezvous", Labeled: true, UsesAdversary: true, UsesBudget: true},
		{Name: "baseline", Labeled: true, UsesAdversary: true, UsesBudget: true},
		{Name: "esst", Labeled: false, UsesAdversary: true, UsesBudget: true},
		{Name: "sgl", Labeled: true, UsesAdversary: true, UsesBudget: true},
		{Name: "certify", Labeled: true, UsesAdversary: false, UsesMoves: true},
	} {
		if err := RegisterKindMeta(m); err != nil {
			panic(err)
		}
	}

	// Built-in adversary family metadata (aliases are separate entries;
	// the empty spelling "" — the round-robin default — carries no
	// metadata and is resolved by the root package's parser registry
	// alone). Parsers live in the root package and are attached through
	// the public RegisterAdversary.
	for _, m := range []AdversaryMeta{
		{Name: "roundrobin"},
		{Name: "round-robin"},
		{Name: "avoider"},
		{Name: "random", PerCellSeed: true},
		{Name: "biased"},
		{Name: "latewake"},
		{Name: "late-wake"},
	} {
		if err := RegisterAdversaryMeta(m); err != nil {
			panic(err)
		}
	}
}

// gridNodeCount sizes the two rows×cols lattice kinds.
func gridNodeCount(name string) func(n, rows, cols int) (int, error) {
	return func(_, rows, cols int) (int, error) {
		if rows < 0 || cols < 0 || rows > MaxSpecNodes || cols > MaxSpecNodes || rows*cols > MaxSpecNodes {
			return 0, fmt.Errorf("%s %dx%d exceeds the %d-node spec cap", name, rows, cols, MaxSpecNodes)
		}
		return rows * cols, nil
	}
}

// gridCheckAxis validates the two lattice kinds' axis parameters.
func gridCheckAxis(name string, _, rows, cols int) error {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		return fmt.Errorf("%s needs rows and cols (got %dx%d)", name, rows, cols)
	}
	return nil
}
