package meetpoly

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"meetpoly/internal/campaign"
	"meetpoly/internal/graph"
	"meetpoly/internal/registry"
	"meetpoly/internal/sched"
)

// ScenarioKind selects which of the paper's algorithms a Scenario runs.
type ScenarioKind string

// Scenario kinds.
const (
	// ScenarioRendezvous runs Algorithm RV-asynch-poly (Theorem 3.1).
	ScenarioRendezvous ScenarioKind = "rendezvous"
	// ScenarioBaseline runs the exponential-cost comparator.
	ScenarioBaseline ScenarioKind = "baseline"
	// ScenarioESST runs Procedure ESST (Theorem 2.1): Starts[0] is the
	// explorer, Starts[1] the parked token; Labels are unused.
	ScenarioESST ScenarioKind = "esst"
	// ScenarioSGL runs Algorithm SGL (Theorem 4.1) for a team of
	// len(Starts) agents.
	ScenarioSGL ScenarioKind = "sgl"
	// ScenarioCertify runs the exhaustive lattice adversary on the two
	// agents' route prefixes of Moves traversals each; Budget and
	// Adversary are ignored (the certifier ranges over ALL schedules).
	ScenarioCertify ScenarioKind = "certify"
)

// GraphSpec declaratively describes a graph so that scenarios round-trip
// through JSON. Builders are deterministic: the same spec always yields
// the same port-numbered graph, which is what lets a shared verified
// catalog recognize rebuilt family members without re-verification, and
// what lets the spec act as the content address of the engine's
// prepared-scenario cache.
type GraphSpec struct {
	// Kind names a registered graph kind: one of the built-ins
	// (path|ring|star|clique|bintree|tree|random|grid|torus|hypercube|
	// lollipop|petersen) or any kind added with RegisterGraphKind.
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

// MaxSpecNodes caps the node count a declarative GraphSpec may request.
// The builders themselves are driven by trusted code and take any size,
// but a spec is user input (JSON files, CLI flags, fuzzers), and an
// unchecked "clique of 10^9 nodes" is an allocation bomb, not a
// scenario. The cap is far above the small-graph regime the verified
// catalogs target, and is shared with campaign sweep validation so a
// SweepSpec that validates never expands into cells this check rejects.
const MaxSpecNodes = campaign.MaxSpecNodes

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
// All failures wrap ErrInvalidScenario.
func (s GraphSpec) Build() (g *Graph, err error) {
	k, ok := registry.LookupGraph(s.Kind)
	if !ok {
		return nil, fmt.Errorf("unknown graph kind %q: %w", s.Kind, ErrInvalidScenario)
	}
	// Size-cap the request before building: the kind's NodeCount is the
	// single sizing formula shared with sweep-spec validation, so a
	// SweepSpec that validates never expands into cells rejected here.
	if _, err := k.NodeCount(s.N, s.Rows, s.Cols); err != nil {
		return nil, fmt.Errorf("graph spec %s: %v: %w", s, err, ErrInvalidScenario)
	}
	defer func() {
		// The generators panic on out-of-range parameters (they are
		// driven by trusted code); a declarative spec is user input, so
		// convert panics into typed errors.
		if rec := recover(); rec != nil {
			g, err = nil, fmt.Errorf("graph spec %s: %v: %w", s, rec, ErrInvalidScenario)
		}
	}()
	g, err = k.Build(s.registryParams())
	if err != nil {
		return nil, fmt.Errorf("graph spec %s: %v: %w", s, err, ErrInvalidScenario)
	}
	if g == nil {
		return nil, fmt.Errorf("graph spec %s: builder returned no graph: %w", s, ErrInvalidScenario)
	}
	// Port shuffling is applied here, outside the builders, so every
	// registered kind supports it without writing any code.
	if s.Shuffle {
		g = graph.ShufflePorts(g, s.Seed)
	}
	return g, nil
}

// GraphKindDef describes a custom graph kind for RegisterGraphKind.
type GraphKindDef struct {
	// Kind is the name GraphSpec.Kind and campaign axes select the
	// builder by; Aliases are additional accepted spellings.
	Kind    string
	Aliases []string
	// Sized declares the campaign axis shape: a sized kind sweeps over
	// GraphAxis.Sizes (one graph cell per size, spec.N carries it), a
	// fixed kind resolves to one cell from Rows/Cols (or from nothing).
	Sized bool
	// NodeCount deterministically resolves the node count a spec
	// requests and enforces the MaxSpecNodes cap. nil defaults to "N,
	// capped". It is consulted by scenario validation, campaign axis
	// validation and sweep expansion, so sizing can never disagree
	// across layers.
	NodeCount func(n, rows, cols int) (int, error)
	// CheckAxis validates campaign axis parameters (minimum sizes,
	// required dimensions). nil accepts everything NodeCount accepts.
	CheckAxis func(n, rows, cols int) error
	// AxisDefaults fills derived defaults (family seeds, probabilities)
	// on each resolved campaign cell. Build must apply the same value
	// defaults itself: direct scenarios bypass axis resolution.
	AxisDefaults func(spec *GraphSpec)
	// Build deterministically constructs the graph from the spec. Port
	// shuffling (spec.Shuffle) is applied by the caller. The builder
	// must be a pure function of the spec fields — that is what lets
	// the spec act as the content address of the prepared-scenario
	// cache and what makes sweep cells replayable.
	Build func(spec GraphSpec) (*Graph, error)
	// Fingerprint versions the builder for the prepared-scenario cache:
	// the cache keys on (spec, fingerprint), so a builder that closes
	// over external configuration must encode that configuration here.
	Fingerprint string
}

// RegisterGraphKind adds a graph kind to the open world: registered
// kinds build everywhere a built-in does — Scenario and SweepSpec JSON,
// campaign graph axes, CLI flags — and participate in the engine's
// prepared-scenario cache and route-book reuse exactly like built-ins
// (one build + coverage check per unique spec, cached deterministic
// trajectories per catalog epoch). The built-ins go through the same
// underlying registry at init. Duplicate names are rejected.
func RegisterGraphKind(def GraphKindDef) error {
	if def.Kind == "" {
		return fmt.Errorf("meetpoly: graph kind needs a name")
	}
	if def.Build == nil {
		return fmt.Errorf("meetpoly: graph kind %q needs a Build function", def.Kind)
	}
	rk := registry.GraphKind{
		Name:        def.Kind,
		Aliases:     def.Aliases,
		Sized:       def.Sized,
		NodeCount:   def.NodeCount,
		Fingerprint: def.Fingerprint,
		Build: func(p registry.GraphParams) (*graph.Graph, error) {
			return def.Build(graphSpecFromParams(p))
		},
	}
	if def.CheckAxis != nil {
		check := def.CheckAxis
		rk.CheckAxis = func(_ string, n, rows, cols int) error { return check(n, rows, cols) }
	}
	if def.AxisDefaults != nil {
		defaults := def.AxisDefaults
		rk.AxisDefaults = func(p *registry.GraphParams) {
			spec := graphSpecFromParams(*p)
			defaults(&spec)
			*p = spec.registryParams()
		}
	}
	if err := registry.RegisterGraph(rk); err != nil {
		return fmt.Errorf("meetpoly: %v", err)
	}
	return nil
}

// graphSpecFromParams and GraphSpec.registryParams are the single
// conversion pair between the public spec and the registry's shared
// parameter form. Keep them inverse: a field added to GraphSpec must be
// threaded through BOTH, or builders silently receive its zero value
// while the prepared cache (keyed on the full spec) treats it as
// significant.
func graphSpecFromParams(p registry.GraphParams) GraphSpec {
	return GraphSpec{Kind: p.Kind, N: p.N, Rows: p.Rows, Cols: p.Cols,
		P: p.P, Seed: p.Seed, Shuffle: p.Shuffle}
}

func (s GraphSpec) registryParams() registry.GraphParams {
	return registry.GraphParams{Kind: s.Kind, N: s.N, Rows: s.Rows, Cols: s.Cols,
		P: s.P, Seed: s.Seed, Shuffle: s.Shuffle}
}

// Scenario is a declarative, JSON-serializable description of one
// execution: which algorithm, on which graph, with which agents, under
// which adversary, and for how long. Execute it with Engine.Run.
type Scenario struct {
	// Name is a free-form identifier echoed in results and errors.
	Name string       `json:"name,omitempty"`
	Kind ScenarioKind `json:"kind"`
	// Graph describes the network declaratively.
	Graph GraphSpec `json:"graph"`
	// GraphInstance, when non-nil, overrides Graph with an
	// already-built value (not serialized): the way to run a concrete,
	// caller-built graph through the engine.
	GraphInstance *Graph `json:"-"`
	// Starts are the agents' starting nodes (distinct). For ESST:
	// [explorer, token].
	Starts []int `json:"starts"`
	// Labels are the agents' labels: two distinct positive values for
	// rendezvous/baseline/certify, one per agent for SGL, unused for
	// ESST.
	Labels []Label `json:"labels,omitempty"`
	// Values are SGL gossip inputs (defaults to "value-of-<label>").
	Values []string `json:"values,omitempty"`
	// Adversary is a ParseAdversary spec string; "" = round-robin.
	Adversary string `json:"adversary,omitempty"`
	// AdversaryInstance, when non-nil, overrides Adversary with an
	// already-built strategy (not serialized).
	AdversaryInstance Adversary `json:"-"`
	// Budget bounds the number of adversary events (all kinds except
	// certify).
	Budget int `json:"budget,omitempty"`
	// Moves is the certify route-prefix length (certify only).
	Moves int `json:"moves,omitempty"`
}

// BuildGraph returns the scenario's graph: GraphInstance when set,
// otherwise the graph built from the declarative spec.
func (s Scenario) BuildGraph() (*Graph, error) {
	if s.GraphInstance != nil {
		return s.GraphInstance, nil
	}
	return s.Graph.Build()
}

// resolveAdversary returns the scenario's adversary strategy. The spec
// string is parsed with the scenario's agent count in scope, so family
// parsers can apply agent-dependent defaults (bare "biased" becomes the
// 1:5:9:... skew) and validate agent-dependent parameters (weight
// counts, latewake agent indices) that ParseAdversary alone cannot.
func (s Scenario) resolveAdversary() (Adversary, error) {
	if s.AdversaryInstance != nil {
		return s.AdversaryInstance, nil
	}
	return parseAdversarySpec(s.Adversary, len(s.Starts))
}

// Validate checks the scenario against the model's requirements. All
// failures wrap ErrInvalidScenario.
func (s Scenario) Validate() error {
	g, err := s.BuildGraph()
	if err != nil {
		return err
	}
	return s.validateWith(g)
}

// validateWith is Validate against an already-built graph, so callers
// that need the graph anyway (the engine) build it exactly once. The
// generic model requirements (starts in range and distinct, a
// resolvable adversary) are checked here; everything kind-specific is
// the registered kind's validator.
func (s Scenario) validateWith(g *Graph) error {
	seen := make(map[int]bool, len(s.Starts))
	for _, v := range s.Starts {
		if v < 0 || v >= g.N() {
			return scenarioFail(s, "start node %d out of range [0,%d)", v, g.N())
		}
		if seen[v] {
			return scenarioFail(s, "duplicate start node %d", v)
		}
		seen[v] = true
	}
	adv, err := s.resolveAdversary()
	if err != nil {
		return err
	}
	// Spec-string adversaries validate agent-dependent parameters in
	// their parsers; a caller-supplied instance bypasses parsing, so
	// the one mismatch that would panic inside the runner (it is a
	// programming error there) is re-checked here.
	if s.AdversaryInstance != nil {
		if b, ok := adv.(*sched.Biased); ok && len(b.Weights) != len(s.Starts) {
			return scenarioFail(s, "biased adversary has %d weights for %d agents", len(b.Weights), len(s.Starts))
		}
	}
	def, ok := lookupScenarioKind(s.Kind)
	if !ok {
		return scenarioFail(s, "unknown kind %q", s.Kind)
	}
	if def.Validate != nil {
		return def.Validate(s, g)
	}
	return defaultKindValidate(def, s)
}

// JSON renders the scenario as indented JSON.
func (s Scenario) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// ScenarioFromJSON parses and validates a serialized scenario.
func ScenarioFromJSON(data []byte) (Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return Scenario{}, fmt.Errorf("scenario JSON: %v: %w", err, ErrInvalidScenario)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// SweepSpecJSON renders a campaign sweep spec as indented JSON, the
// same declarative-descriptor convention Scenario.JSON follows.
func SweepSpecJSON(s SweepSpec) ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// SweepSpecFromJSON parses and validates a serialized sweep spec.
// Malformed or inconsistent specs wrap ErrInvalidScenario, like every
// other declarative descriptor.
func SweepSpecFromJSON(data []byte) (SweepSpec, error) {
	var s SweepSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return SweepSpec{}, fmt.Errorf("sweep spec JSON: %v: %w", err, ErrInvalidScenario)
	}
	if err := s.Validate(); err != nil {
		return SweepSpec{}, fmt.Errorf("%v: %w", err, ErrInvalidScenario)
	}
	return s, nil
}

// LoadSweepSpecFile reads, parses and validates a sweep spec JSON file.
func LoadSweepSpecFile(path string) (SweepSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SweepSpec{}, err
	}
	return SweepSpecFromJSON(data)
}

// LoadScenarioFile reads, parses and validates a scenario JSON file,
// optionally restricting the accepted kinds (the per-algorithm
// commands each run only their own kind).
func LoadScenarioFile(path string, kinds ...ScenarioKind) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, err
	}
	s, err := ScenarioFromJSON(data)
	if err != nil {
		return Scenario{}, err
	}
	if len(kinds) > 0 {
		ok := false
		for _, k := range kinds {
			if s.Kind == k {
				ok = true
			}
		}
		if !ok {
			return Scenario{}, fmt.Errorf("%s: scenario kind %q not accepted here (want %v): %w",
				path, s.Kind, kinds, ErrInvalidScenario)
		}
	}
	return s, nil
}
