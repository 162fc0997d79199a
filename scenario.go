package meetpoly

import (
	"encoding/json"
	"fmt"
	"os"

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
// through JSON: a registered graph kind plus its size, probability,
// seed and port shuffling. It is the one graph descriptor of the module
// — campaign cells carry it, registered builders receive it, and the
// engine's prepared-scenario cache keys on it. See
// internal/registry.GraphSpec for the field-by-field contract; Build
// constructs the graph and String renders it compactly ("ring/64",
// "grid/3x4", "ring/64?shuffle=7").
type GraphSpec = registry.GraphSpec

// MaxSpecNodes caps the node count a declarative GraphSpec may request.
// The builders themselves are driven by trusted code and take any size,
// but a spec is user input (JSON files, CLI flags, fuzzers), and an
// unchecked "clique of 10^9 nodes" is an allocation bomb, not a
// scenario. The cap is far above the small-graph regime the verified
// catalogs target, and is shared with campaign sweep validation so a
// SweepSpec that validates never expands into cells this check rejects.
const MaxSpecNodes = registry.MaxSpecNodes

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
		Name:         def.Kind,
		Aliases:      def.Aliases,
		Sized:        def.Sized,
		NodeCount:    def.NodeCount,
		AxisDefaults: def.AxisDefaults,
		Build:        def.Build,
		Fingerprint:  def.Fingerprint,
	}
	if def.CheckAxis != nil {
		check := def.CheckAxis
		rk.CheckAxis = func(_ string, n, rows, cols int) error { return check(n, rows, cols) }
	}
	if err := registry.RegisterGraph(rk); err != nil {
		return fmt.Errorf("meetpoly: %v", err)
	}
	return nil
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

// Validate checks the scenario against the model's requirements. All
// failures wrap ErrInvalidScenario.
func (s Scenario) Validate() error {
	g, err := s.BuildGraph()
	if err != nil {
		return err
	}
	_, err = s.validateWith(g)
	return err
}

// validateWith is Validate against an already-built graph, so callers
// that need the graph anyway (the engine) build it exactly once. It
// returns the adversary it resolved, so the engine parses the spec once
// per run. The generic model requirements (starts in range and
// distinct, a resolvable adversary) are checked here; everything
// kind-specific is the registered kind's validator.
func (s Scenario) validateWith(g *Graph) (Adversary, error) {
	seen := make(map[int]bool, len(s.Starts))
	for _, v := range s.Starts {
		if v < 0 || v >= g.N() {
			return nil, scenarioFail(s, "start node %d out of range [0,%d)", v, g.N())
		}
		if seen[v] {
			return nil, scenarioFail(s, "duplicate start node %d", v)
		}
		seen[v] = true
	}
	// The spec string is parsed with the scenario's agent count in
	// scope, so family parsers can apply agent-dependent defaults (bare
	// "biased" becomes the 1:5:9:... skew) and validate agent-dependent
	// parameters (weight counts, latewake agent indices) that
	// ParseAdversary alone cannot. A caller-supplied instance bypasses
	// parsing, so the one mismatch that would panic inside the runner
	// (it is a programming error there) is re-checked here.
	adv := s.AdversaryInstance
	var err error
	if adv == nil {
		if adv, err = parseAdversarySpec(s.Adversary, len(s.Starts)); err != nil {
			return nil, err
		}
	} else if b, ok := adv.(*sched.Biased); ok && len(b.Weights) != len(s.Starts) {
		return nil, scenarioFail(s, "biased adversary has %d weights for %d agents", len(b.Weights), len(s.Starts))
	}
	def, ok := lookupScenarioKind(s.Kind)
	if !ok {
		return nil, scenarioFail(s, "unknown kind %q", s.Kind)
	}
	if def.Validate != nil {
		err = def.Validate(s, g)
	} else {
		err = defaultKindValidate(def, s)
	}
	if err != nil {
		return nil, err
	}
	return adv, nil
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
