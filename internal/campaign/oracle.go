package campaign

import (
	"fmt"
	"slices"

	"meetpoly/internal/costmodel"
	"meetpoly/internal/labels"
)

// Outcome is the engine-agnostic record of one executed cell: what the
// run achieved, what it cost, and how it ended. The root package fills
// it from the engine's typed results; oracles judge it against the
// paper's bounds.
type Outcome struct {
	// N and M are the executed graph's node and edge counts.
	N int `json:"n"`
	M int `json:"m"`

	// Met reports that the run reached its kind's goal: a meeting
	// (rendezvous/baseline), full exploration (esst), all agents output
	// (sgl), or a completed certification (certify).
	Met bool `json:"met"`
	// Consistent is false when a met run violated a semantic invariant
	// of its algorithm (e.g. ESST Done without edge coverage, SGL
	// agents disagreeing on the leader); Detail names the violation.
	Consistent bool   `json:"consistent"`
	Detail     string `json:"detail,omitempty"`

	// Cost is the goal cost in the paper's measure: total completed
	// edge traversals at the meeting (rendezvous/baseline), the
	// explorer's traversals (esst), the team total (sgl), or the
	// certifier's worst completed cost (certify). For runs that missed
	// their goal it is the cost when the run ended.
	Cost int `json:"cost"`
	// Steps is the number of adversary events the run executed (0 for
	// certify, which ranges over schedules instead of executing one).
	// Reports sum it into Events, the denominator of steady-state
	// allocation and throughput accounting.
	Steps int `json:"steps,omitempty"`
	// MaxPerAgent is the largest single agent's traversal count — the
	// quantity Π(n, ℓ) bounds directly. Per-agent detail stays on the
	// engine result's Summary.Traversals.
	MaxPerAgent int `json:"max_per_agent"`
	// Committed additionally counts traversals in progress at run end.
	Committed int `json:"committed"`

	// Exactly which sentinel (if any) ended the run.
	Exhausted  bool   `json:"exhausted,omitempty"`
	Canceled   bool   `json:"canceled,omitempty"`
	Invalid    bool   `json:"invalid,omitempty"`
	EndedEarly bool   `json:"ended_early,omitempty"` // no goal, no typed sentinel
	Err        string `json:"err,omitempty"`
}

// Oracle is a machine-checked predicate over one executed cell. Check
// returns nil when the run passes. Oracles must be safe for concurrent
// Check calls.
type Oracle interface {
	Name() string
	Check(c Cell, o Outcome) error
}

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc struct {
	ID string
	F  func(c Cell, o Outcome) error
}

// Name implements Oracle.
func (o OracleFunc) Name() string { return o.ID }

// Check implements Oracle.
func (o OracleFunc) Check(c Cell, out Outcome) error { return o.F(c, out) }

// Termination returns the oracle enforcing the campaign's liveness
// contract: no run may end without either reaching its goal or carrying
// a typed sentinel (budget exhaustion or cancellation). An expanded cell
// that the engine rejects as invalid is an expander bug and fails too.
func Termination() Oracle {
	return OracleFunc{ID: "termination", F: func(c Cell, o Outcome) error {
		switch {
		case o.Invalid:
			return fmt.Errorf("expanded cell was rejected as invalid: %s", o.Err)
		case o.Met, o.Exhausted, o.Canceled:
			return nil
		default:
			return fmt.Errorf("run ended without goal or typed sentinel: %s", o.Err)
		}
	}}
}

// Consistency returns the oracle failing any met run whose result
// violated a semantic invariant of its algorithm.
func Consistency() Oracle {
	return OracleFunc{ID: "consistency", F: func(c Cell, o Outcome) error {
		if o.Met && !o.Consistent {
			return fmt.Errorf("inconsistent result: %s", o.Detail)
		}
		return nil
	}}
}

// Bound returns the cost-bound oracle over a model bound to the
// executing engine's catalog lengths (costmodel.NewFromLengths):
//
//   - rendezvous: either agent's traversals <= Π(n, ℓ) and the meeting
//     cost <= 2Π(n, ℓ) (Theorem 3.1);
//   - baseline: meeting cost within the exponential comparator's bound;
//   - esst: a completed exploration traversed every edge at least once
//     and its derived size upper bound covers the true size
//     (Theorem 2.1);
//   - sgl and certify carry no per-run cost bound here (Theorem 4.1's
//     bound is exercised by the E9 cost table).
//
// Canceled and invalid runs are skipped; budget-exhausted runs are still
// bounded (a partial cost can only be below the full bound).
func Bound(m *costmodel.Model) Oracle {
	return OracleFunc{ID: "pi-bound", F: func(c Cell, o Outcome) error {
		if o.Canceled || o.Invalid {
			return nil
		}
		switch c.Kind {
		case KindRendezvous:
			mLen := labels.Label(slices.Min(c.Labels)).Len()
			if !m.WithinPi(o.N, mLen, int64(o.MaxPerAgent)) {
				return fmt.Errorf("agent traversals %d exceed Pi(%d, %d)", o.MaxPerAgent, o.N, mLen)
			}
			if o.Met && !m.WithinPiTotal(o.N, mLen, int64(o.Cost)) {
				return fmt.Errorf("meeting cost %d exceeds 2*Pi(%d, %d)", o.Cost, o.N, mLen)
			}
		case KindBaseline:
			if !o.Met {
				return nil
			}
			ok, err := m.WithinBaseline(o.N, c.Labels[0], c.Labels[1], int64(o.Cost))
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("baseline meeting cost %d exceeds its bound on n=%d labels %v", o.Cost, o.N, c.Labels)
			}
		case KindESST:
			if !o.Met {
				return nil
			}
			if o.Cost < o.M {
				return fmt.Errorf("esst done after %d traversals but the graph has %d edges", o.Cost, o.M)
			}
			if o.Cost+1 < o.N {
				return fmt.Errorf("esst size upper bound %d below true size %d", o.Cost+1, o.N)
			}
		}
		return nil
	}}
}

// Lemmas returns the oracle asserting that every counting inequality of
// Lemmas 3.2-3.6 and Theorem 3.1 holds at each (n, ℓ) combination a
// labeled cell touches. The model caches verdicts per combination, so
// every suite over one model (one catalog epoch) pays for each (n, ℓ)
// once.
func Lemmas(m *costmodel.Model) Oracle {
	return OracleFunc{ID: "lemmas", F: func(c Cell, o Outcome) error {
		if len(c.Labels) == 0 || o.Invalid || o.N < 2 {
			return nil
		}
		n, l := o.N, costmodel.ModifiedLen(labels.Label(slices.Min(c.Labels)).Len())
		if holds, name := m.LemmasHold(n, l); !holds {
			return fmt.Errorf("lemma inequality %q fails at n=%d l=%d", name, n, l)
		}
		return nil
	}}
}

// DefaultOracles returns the paper-bound oracle suite every sweep runs
// unless the caller overrides it: termination, consistency, cost bounds
// and lemma inequalities, all parameterized by the engine's catalog.
func DefaultOracles(m *costmodel.Model) []Oracle {
	return []Oracle{Termination(), Consistency(), Bound(m), Lemmas(m)}
}
