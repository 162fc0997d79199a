// Package meetpoly is a from-scratch Go implementation of
//
//	Yoann Dieudonné, Andrzej Pelc, Vincent Villain,
//	"How to Meet Asynchronously at Polynomial Cost", PODC 2013
//	(full version: arXiv:1301.7119).
//
// It provides deterministic asynchronous rendezvous of two labelled
// mobile agents in arbitrary unknown port-numbered graphs at cost
// polynomial in the graph size and in the length of the smaller label
// (Algorithm RV-asynch-poly, Theorem 3.1), exploration with a
// semi-stationary token (Procedure ESST, Theorem 2.1), and Strong Global
// Learning for teams of agents with its four applications — team size,
// leader election, perfect renaming and gossiping (Algorithm SGL,
// Theorem 4.1) — together with the exponential-cost baseline the paper
// supersedes, exact big-integer cost models for every bound in the
// proofs, a deterministic adversary simulator with an exhaustive
// worst-case certifier, and the benchmark harness regenerating the
// paper's quantitative claims.
//
// The public API is the Engine/Scenario pair: an Engine is built once
// (it owns a shared, verified exploration-sequence catalog) and executes
// declarative, JSON-serializable Scenarios with context cancellation,
// typed sentinel errors, execution observers and concurrent batches.
// The full machinery lives in the internal packages documented in
// DESIGN.md:
//
//	internal/graph      the anonymous port-numbered network model
//	internal/uxs        universal exploration sequences (Reingold substitute)
//	internal/labels     the modified-label transformation M(x)
//	internal/trajectory the trajectory algebra X, Q, Y, Z, A, B, K, Ω
//	internal/costmodel  exact evaluation of Π(n, m) and friends
//	internal/sched      the half-step adversary, strategies, certifier
//	internal/core       Algorithm RV-asynch-poly
//	internal/esst       Procedure ESST
//	internal/baseline   the exponential comparator
//	internal/sgl        Algorithm SGL + applications
//	internal/rverr      the sentinel errors re-exported by this facade
//	internal/experiments the table generators for EXPERIMENTS.md
//	internal/campaign   the sweep engine behind Engine.Sweep: spec
//	                    expansion, per-cell seed derivation, paper-bound
//	                    oracles, aggregation
//
// # Quick start
//
//	eng := meetpoly.NewEngine(meetpoly.WithMaxN(6), meetpoly.WithSeed(1))
//	res, err := eng.Run(ctx, meetpoly.Scenario{
//		Kind:   meetpoly.ScenarioRendezvous,
//		Graph:  meetpoly.GraphSpec{Kind: "path", N: 4},
//		Starts: []int{0, 3},
//		Labels: []meetpoly.Label{2, 5},
//		Budget: 1_000_000,
//	})
//
// Engine.RunBatch fans a slice of scenarios out over a worker pool;
// errors are matched with errors.Is against ErrBudgetExhausted,
// ErrInvalidScenario, ErrCatalogUncovered and ErrCanceled. Engine.Sweep
// expands a declarative SweepSpec into thousands of scenarios and
// checks every run against oracles derived from the paper's cost
// bounds, with single-seed-string replay for failures; Engine.SweepStream
// yields the same judged cells incrementally for campaigns too large to
// hold as one report.
//
// The execution surface is an open world: RegisterGraphKind,
// RegisterAdversary and RegisterScenarioKind add custom graph families,
// schedule strategies and whole scenario kinds that flow through every
// surface above on the same terms as the built-ins (which register
// through the same calls) — declarative JSON, sweeps, replay seeds and
// the prepared-scenario cache. See DESIGN.md §4 and examples/customkind
// for the contracts. See examples/ for runnable programs.
package meetpoly

import (
	"math/big"

	"meetpoly/internal/baseline"
	"meetpoly/internal/core"
	"meetpoly/internal/costmodel"
	"meetpoly/internal/esst"
	"meetpoly/internal/graph"
	"meetpoly/internal/labels"
	"meetpoly/internal/sched"
	"meetpoly/internal/sgl"
	"meetpoly/internal/trajectory"
	"meetpoly/internal/uxs"
)

// Label is an agent label: a strictly positive integer. Agents know only
// their own label; rendezvous cost depends on the length of the smaller
// one.
type Label = labels.Label

// Graph is the anonymous port-numbered network model.
type Graph = graph.Graph

// Env binds the algorithms to an exploration-sequence catalog.
type Env = trajectory.Env

// Adversary schedules agent movement; nil selects round-robin.
type Adversary = sched.Adversary

// RendezvousResult reports a two-agent rendezvous execution.
type RendezvousResult = core.Result

// BaselineResult reports an exponential-baseline rendezvous execution.
type BaselineResult = baseline.Result

// SGLResult reports an SGL run.
type SGLResult = sgl.Result

// ESSTResult reports an exploration-with-token run.
type ESSTResult = esst.Result

// CertResult is the exhaustive adversary's verdict.
type CertResult = sched.CertResult

// NewEnv returns an environment whose exploration sequences are verified
// on the standard graph families up to maxN nodes (uxs.DefaultFamily).
// For graphs outside that family, call EnsureFor before running.
func NewEnv(maxN int, seed int64) *Env {
	return trajectory.NewEnv(uxs.NewVerified(uxs.DefaultFamily(maxN), seed))
}

// EnsureFor extends a verified catalog so its integrality guarantee
// covers g. No-op for non-verified catalogs and for graphs structurally
// identical to a family member. The Engine does this automatically
// (see WithAutoExtend).
func EnsureFor(env *Env, g *Graph) {
	if v, ok := env.Catalog().(*uxs.Verified); ok && !v.Covers(g) && !v.CoversEqual(g) {
		v.Extend(g)
	}
}

// PiBound returns Π(n, min(|L1|, |L2|)) — Theorem 3.1's guarantee on the
// traversals either agent performs before meeting is certain — for the
// environment's catalog.
func PiBound(env *Env, n int, l1, l2 Label) *big.Int {
	return core.PiBound(env, n, l1, l2)
}

// CostModel returns the exact big-integer cost model over a generic
// exploration-length polynomial P(k) = c * k^d (the paper's abstract P).
func CostModel(c, d int) *costmodel.Model {
	return costmodel.New(costmodel.PPoly(c, d))
}

// Graph builders re-exported for facade users; the full set (grids,
// tori, hypercubes, lollipops, random graphs, port shuffling, ...) lives
// in internal/graph.

// GraphBuilder assembles a custom port-numbered graph edge by edge:
// ports are numbered in insertion order at each endpoint, so a fixed
// edge sequence always yields the same graph — the determinism custom
// graph kinds registered with RegisterGraphKind must provide.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for a graph on n nodes. Add edges
// with AddEdge and finish with Graph(name); the result must be
// connected to be a valid scenario network.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// Ring returns the oriented cycle on n >= 3 nodes.
func Ring(n int) *Graph { return graph.Ring(n) }

// Path returns the path graph on n >= 2 nodes.
func Path(n int) *Graph { return graph.Path(n) }

// Complete returns the clique K_n.
func Complete(n int) *Graph { return graph.Complete(n) }

// Star returns the star K_{1,n-1}.
func Star(n int) *Graph { return graph.Star(n) }

// ShufflePorts returns a copy of g with adversarially permuted port
// numbers.
func ShufflePorts(g *Graph, seed int64) *Graph { return graph.ShufflePorts(g, seed) }

// RoundRobin returns the fair baseline adversary.
func RoundRobin() Adversary { return &sched.RoundRobin{} }

// Avoider returns the strongest online meeting-dodging adversary.
func Avoider() Adversary { return &sched.Avoider{} }

// RandomAdversary returns a seeded random scheduler.
func RandomAdversary(seed int64) Adversary { return sched.NewRandom(seed) }

// Version identifies this reproduction.
const Version = "1.0.0"
