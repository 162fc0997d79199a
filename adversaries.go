package meetpoly

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"meetpoly/internal/registry"
	"meetpoly/internal/sched"
)

// AdversaryArgs is the structured form of an adversary spec string,
// handed to a registered parser: the family name, the ':'-separated
// parameters after it, and the scenario facts a parser may validate
// against. The splitting is done once, centrally, so parsers never
// re-tokenize the raw string.
type AdversaryArgs struct {
	// Spec is the full original spec string, for error messages.
	Spec string
	// Name is the family name (the part before the first ':').
	Name string
	// Params are the ':'-separated parameters after the name. A
	// trailing or doubled ':' yields empty strings, which parsers
	// conventionally treat as "use the default".
	Params []string
	// HasParams distinguishes "biased" (no parameter section at all)
	// from "biased:" (an empty one): some families default differently.
	HasParams bool
	// Agents is the number of agents in the scenario being validated,
	// or 0 when the spec is parsed outside any scenario (ParseAdversary,
	// CLI flags). Parsers should validate agent-dependent parameters —
	// weight counts, agent indices — only when it is known.
	Agents int
}

// Param returns the i-th parameter, or "" when absent.
func (a AdversaryArgs) Param(i int) string {
	if i < 0 || i >= len(a.Params) {
		return ""
	}
	return a.Params[i]
}

// Rest joins every parameter back into the raw text after the name —
// for families whose single argument may itself contain ':'-free
// structure (the biased weight list).
func (a AdversaryArgs) Rest() string { return strings.Join(a.Params, ":") }

// Errf builds the conventional parse error: it names the offending
// spec and wraps ErrInvalidScenario, like every built-in parser.
func (a AdversaryArgs) Errf(format string, args ...any) error {
	return fmt.Errorf("adversary %q: %s: %w", a.Spec, fmt.Sprintf(format, args...), ErrInvalidScenario)
}

// AdversaryDef describes one adversary family for RegisterAdversary.
type AdversaryDef struct {
	// Name is the family name as written before any ':' in spec strings.
	Name string
	// Aliases are additional accepted spellings ("late-wake" for
	// "latewake"; "" makes the family the default for empty specs).
	Aliases []string
	// PerCellSeed makes campaign sweeps specialize a bare spec (no
	// parameters) into "<name>:<seed>" with a seed derived from each
	// cell's replay string, so cells differ while staying individually
	// replayable — the behaviour the built-in "random" family has.
	PerCellSeed bool
	// Parse builds the strategy from structured parameters. It must be
	// deterministic and return errors wrapping ErrInvalidScenario
	// (args.Errf does both conventions).
	Parse func(args AdversaryArgs) (Adversary, error)
}

// adversaryDefs maps every registered family name and alias to its
// definition (string -> *AdversaryDef). adversaryRegMu serializes
// registrations so the multi-name check-then-insert below is atomic;
// lookups stay lock-free on the sync.Map.
var (
	adversaryDefs  sync.Map
	adversaryRegMu sync.Mutex
)

// RegisterAdversary adds an adversary family to the open world:
// registered names parse everywhere a built-in does — Scenario and
// SweepSpec JSON, ParseAdversary, campaign adversary axes and CLI
// flags — and round-trip through the same spec-string syntax. The
// built-ins are registered through this exact path at package init.
// Duplicate names are rejected, and rejection is all-or-nothing: a
// duplicate alias does not leave the family's earlier names behind.
func RegisterAdversary(def AdversaryDef) error {
	if def.Name == "" {
		return fmt.Errorf("meetpoly: adversary needs a name")
	}
	if def.Parse == nil {
		return fmt.Errorf("meetpoly: adversary %q needs a Parse function", def.Name)
	}
	adversaryRegMu.Lock()
	defer adversaryRegMu.Unlock()
	names := append([]string{def.Name}, def.Aliases...)
	metas := make([]registry.AdversaryMeta, 0, len(names))
	for _, n := range names {
		if _, dup := adversaryDefs.Load(n); dup {
			return fmt.Errorf("meetpoly: adversary %q is already registered", n)
		}
		if n != "" {
			// The empty spelling (default family) has no campaign
			// metadata: a bare "" never specializes per cell.
			metas = append(metas, registry.AdversaryMeta{Name: n, PerCellSeed: def.PerCellSeed})
		}
	}
	// The metadata batch validates-then-inserts under one registry
	// lock, so this either takes effect for every name or for none.
	if err := registry.RegisterAdversaryMetas(metas); err != nil {
		return fmt.Errorf("meetpoly: %v", err)
	}
	for _, n := range names {
		adversaryDefs.Store(n, &def)
	}
	return nil
}

// ParseAdversary resolves a declarative adversary spec string to a
// strategy through the adversary registry, so serialized scenarios and
// command-line flags reach every registered family — built-in or
// custom. The built-in syntax:
//
//	""                        round-robin (the default)
//	"roundrobin"              round-robin ("round-robin" also accepted)
//	"avoider"                 the strongest online meeting dodger
//	"random"                  seeded random schedule, seed 42
//	"random:<seed>"           seeded random schedule
//	"biased:<w1>,<w2>,…"      per-agent speed weights
//	"latewake:<hold>"         all but agent 0 dormant for <hold> events
//	"latewake:<hold>:<agent>" all but <agent> dormant for <hold> events
//	                          ("late-wake:…" also accepted)
//
// Unknown or malformed specs wrap ErrInvalidScenario. Bare "biased"
// needs an agent count and is therefore rejected here but accepted
// inside a Scenario, where it defaults to the 1:5:9:... speed skew —
// parsers see the scenario's agent count through AdversaryArgs.Agents,
// which is 0 for this free-standing entry point.
func ParseAdversary(spec string) (Adversary, error) {
	return parseAdversarySpec(spec, 0)
}

// parseAdversarySpec is ParseAdversary with the scenario's agent count
// threaded through to the family parser (0 = unknown).
func parseAdversarySpec(spec string, agents int) (Adversary, error) {
	name, rest, hasParams := spec, "", false
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		name, rest, hasParams = spec[:i], spec[i+1:], true
	}
	v, ok := adversaryDefs.Load(name)
	if !ok {
		return nil, fmt.Errorf("unknown adversary %q: %w", spec, ErrInvalidScenario)
	}
	args := AdversaryArgs{Spec: spec, Name: name, HasParams: hasParams, Agents: agents}
	if hasParams {
		args.Params = strings.Split(rest, ":")
	}
	return v.(*AdversaryDef).Parse(args)
}

// The built-in adversary families, registered through the public
// RegisterAdversary — the same path a third party uses.
func init() {
	mustRegisterAdversary := func(def AdversaryDef) {
		if err := RegisterAdversary(def); err != nil {
			panic(err)
		}
	}
	mustRegisterAdversary(AdversaryDef{
		Name: "roundrobin", Aliases: []string{"round-robin", ""},
		Parse: func(args AdversaryArgs) (Adversary, error) { return &sched.RoundRobin{}, nil },
	})
	mustRegisterAdversary(AdversaryDef{
		Name:  "avoider",
		Parse: func(args AdversaryArgs) (Adversary, error) { return &sched.Avoider{}, nil },
	})
	mustRegisterAdversary(AdversaryDef{
		Name: "random", PerCellSeed: true,
		Parse: func(args AdversaryArgs) (Adversary, error) {
			seed := int64(42)
			if s := args.Rest(); s != "" {
				v, err := strconv.ParseInt(s, 10, 64)
				if err != nil {
					return nil, args.Errf("bad seed")
				}
				seed = v
			}
			return sched.NewRandom(seed), nil
		},
	})
	mustRegisterAdversary(AdversaryDef{
		Name:  "biased",
		Parse: parseBiased,
	})
	mustRegisterAdversary(AdversaryDef{
		Name: "latewake", Aliases: []string{"late-wake"},
		Parse: parseLateWake,
	})
}

// parseBiased parses "biased:<w1>,<w2>,…". A bare "biased" (no
// parameter section) inside a scenario defaults to the 1:5:9:... speed
// skew over the scenario's agents; outside one the agent count is
// unknown, so it is rejected.
func parseBiased(args AdversaryArgs) (Adversary, error) {
	arg := args.Rest()
	if arg == "" {
		if !args.HasParams && args.Agents > 0 {
			ws := make([]int, args.Agents)
			for i := range ws {
				ws[i] = 1 + 4*i
			}
			return &sched.Biased{Weights: ws}, nil
		}
		return nil, args.Errf("biased needs weights")
	}
	parts := strings.Split(arg, ",")
	ws := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return nil, args.Errf("bad weight %q", p)
		}
		ws[i] = v
	}
	// A weight/agent mismatch panics inside the runner (a programming
	// error there); from a declarative descriptor it is user input, so
	// reject it during scenario validation, when the count is known.
	if args.Agents > 0 && len(ws) != args.Agents {
		return nil, args.Errf("%d weights for %d agents", len(ws), args.Agents)
	}
	return &sched.Biased{Weights: ws}, nil
}

// parseLateWake parses "latewake:<hold>" and "latewake:<hold>:<agent>":
// every agent except <agent> (default 0) stays dormant for <hold>
// events (default 200), so sweeps can starve any agent, not just the
// first.
func parseLateWake(args AdversaryArgs) (Adversary, error) {
	if len(args.Params) > 2 {
		return nil, args.Errf("too many parameters (want <hold> or <hold>:<agent>)")
	}
	hold, primary := 200, 0
	if s := args.Param(0); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			return nil, args.Errf("bad hold")
		}
		hold = v
	}
	if s := args.Param(1); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			return nil, args.Errf("bad agent %q", s)
		}
		primary = v
	}
	// An out-of-range primary would index past the runner's agent
	// slice; like biased weights, it is rejected here when the
	// scenario's agent count is known.
	if args.Agents > 0 && primary >= args.Agents {
		return nil, args.Errf("agent %d out of range for %d agents", primary, args.Agents)
	}
	return &sched.LateWake{Primary: primary, Hold: hold}, nil
}
