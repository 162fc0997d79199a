// Package uxs implements universal exploration sequences (UXS), the
// building block the paper imports from Reingold's log-space connectivity
// result [34]: for every k there is a fixed sequence of port offsets of
// polynomial length P(k) such that following it in any graph of size at
// most k, from any start node, traverses all edges.
//
// Reingold's explicit construction (zig-zag product expander walks) is
// impractical to reproduce; every proof in the paper consumes only three
// properties of R(k, v):
//
//	P1: the trajectory's length P(k) is independent of the graph and of
//	    the start node;
//	P2: in a graph of size <= k the trajectory traverses all edges
//	    ("integral" trajectories);
//	P3: P is non-decreasing.
//
// This package provides sequences with those properties made explicit and
// checkable: pseudorandom sequences of cubic length (universal with
// overwhelming probability, verifiable per graph) and family-verified
// compact catalogs whose integrality on a concrete graph family is proven
// by exhaustive walking. See DESIGN.md §2.1 for the substitution argument.
package uxs

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"meetpoly/internal/graph"
)

// Sequence is a universal exploration sequence: a list of port offsets.
// An agent that entered the current node of degree d by port p exits by
// port (p + x) mod d for the next offset x. At the very start of a walk
// the entry port is taken to be 0.
type Sequence []int

// Walk follows seq in g from start and returns the sequence of visited
// nodes (length len(seq)+1). On a graph whose start node has degree 0
// (the single-node graph) the walk stays put and the trace has length 1.
func Walk(g *graph.Graph, start int, seq Sequence) []int {
	nodes := make([]int, 1, len(seq)+1)
	nodes[0] = start
	cur, entry := start, 0
	for _, x := range seq {
		d := g.Degree(cur)
		if d == 0 {
			return nodes
		}
		port := (entry + x) % d
		cur, entry = g.Succ(cur, port)
		nodes = append(nodes, cur)
	}
	return nodes
}

// Integral reports whether following seq in g from start traverses every
// edge of g (the paper's notion of an integral trajectory). The edge set
// is tracked in a dense []bool indexed by graph.EdgeIndex rather than a
// map: this runs on the walk-verification hot path (every Verified.Seq
// search candidate, every campaign cell) and the flat array removes the
// hashing and allocation that dominated the map version.
func Integral(g *graph.Graph, start int, seq Sequence) bool {
	if g.M() == 0 {
		return true
	}
	covered := make([]bool, g.M())
	remaining := g.M()
	cur, entry := start, 0
	for _, x := range seq {
		d := g.Degree(cur)
		if d == 0 {
			return false
		}
		port := (entry + x) % d
		if id := g.EdgeIndex(cur, port); !covered[id] {
			covered[id] = true
			remaining--
			if remaining == 0 {
				return true
			}
		}
		cur, entry = g.Succ(cur, port)
	}
	return remaining == 0
}

// UniversalFor reports whether seq is integral on every graph in gs from
// every start node.
func UniversalFor(seq Sequence, gs []*graph.Graph) bool {
	for _, g := range gs {
		for v := 0; v < g.N(); v++ {
			if !Integral(g, v, seq) {
				return false
			}
		}
	}
	return true
}

// FirstFailure returns the first (graph, start) on which seq is not
// integral, for diagnostics. ok is false when seq is universal for gs.
func FirstFailure(seq Sequence, gs []*graph.Graph) (g *graph.Graph, start int, ok bool) {
	for _, g := range gs {
		for v := 0; v < g.N(); v++ {
			if !Integral(g, v, seq) {
				return g, v, true
			}
		}
	}
	return nil, 0, false
}

// Generate returns a deterministic pseudorandom sequence of length
// PCubic(k, c). Random sequences of this length are universal for graphs
// of size <= k with overwhelming probability; use UniversalFor to check
// against concrete graphs.
func Generate(k, c int, seed int64) Sequence {
	rng := rand.New(rand.NewSource(mixSeed(seed, k)))
	seq := make(Sequence, PCubic(k, c))
	for i := range seq {
		seq[i] = rng.Intn(maxOffset)
	}
	return seq
}

// mixSeed derives a per-k RNG seed from the catalog seed, keeping
// sequences for distinct k statistically independent.
func mixSeed(seed int64, k int) int64 {
	const golden = int64(0x9e3779b97f4a7c15 & 0x7fffffffffffffff)
	return seed ^ (int64(k)+1)*golden
}

// maxOffset bounds the stored offsets. Offsets are reduced mod degree at
// walk time, so any bound at least the largest degree in play is harmless;
// a fixed bound keeps sequences graph-independent.
const maxOffset = 1 << 16

// PCubic is the length function of Generate: c*k^3*(floor(log2 k)+1),
// and at least 1. It is non-decreasing in k (property P3).
func PCubic(k, c int) int {
	if k < 1 {
		return 1
	}
	bits := 0
	for x := k; x > 0; x >>= 1 {
		bits++
	}
	n := c * k * k * k * bits
	if n < 1 {
		n = 1
	}
	return n
}

// Catalog supplies exploration sequences per size parameter k. The
// contract mirrors the paper's R(k, v):
//
//   - Seq(k) always returns the same sequence for the same k;
//   - P(k) == len(Seq(k)) and is non-decreasing in k;
//   - Seq(k) is integral on the graphs the catalog covers up to size k
//     (exactly which graphs depends on the implementation; see Verified
//     and Formula).
type Catalog interface {
	Seq(k int) Sequence
	P(k int) int
}

// Formula is a Catalog backed by Generate: pseudorandom cubic-length
// sequences. Universality is probabilistic; VerifyGraph confirms it for a
// concrete graph.
type Formula struct {
	C    int
	Seed int64

	mu    sync.Mutex
	cache map[int]Sequence
}

// NewFormula returns a Formula catalog with multiplier c (>= 1).
func NewFormula(c int, seed int64) *Formula {
	if c < 1 {
		panic("uxs: NewFormula needs c >= 1")
	}
	return &Formula{C: c, Seed: seed, cache: make(map[int]Sequence)}
}

// Seq returns the pseudorandom sequence for parameter k.
func (f *Formula) Seq(k int) Sequence {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.cache[k]; ok {
		return s
	}
	s := Generate(k, f.C, f.Seed)
	f.cache[k] = s
	return s
}

// P returns the sequence length for parameter k.
func (f *Formula) P(k int) int { return PCubic(k, f.C) }

var _ Catalog = (*Formula)(nil)

// Verified is a Catalog whose sequences are checked, by exhaustive
// walking, to be integral on every graph of a fixed family up to size k.
// This trades Reingold's universal guarantee for short sequences with an
// explicitly verified guarantee on the graphs under test, which is all the
// simulation harness needs (DESIGN.md §2.1).
//
// For k at or beyond the family's largest graph the verified graph set
// stops growing, so P(k) becomes constant: still non-decreasing, and all
// trajectories remain integral.
//
// Reads are lock-free once warm: the family and the sequence cache live
// in an immutable snapshot behind an atomic pointer, replaced wholesale
// by writers (copy-on-write). Trajectory composition re-reads Seq(k)
// constantly on the execution hot path, and sweep workers hammer
// Covers/CoversEqual concurrently; serializing every one of those reads
// behind a mutex made the catalog a contention point for the whole
// worker pool.
type Verified struct {
	seed   int64
	greedy bool

	// mu serializes writers (cache fills and Extend); readers go through
	// snap alone.
	mu   sync.Mutex
	snap atomic.Pointer[verifiedSnap]
}

// verifiedSnap is one immutable state of a Verified catalog. Neither the
// slices nor the map are mutated after publication.
type verifiedSnap struct {
	family []*graph.Graph
	cache  map[int]Sequence
	maxN   int
	gen    uint64 // Extend count: see Generation
}

// withCache returns a copy of the snapshot with the extra sequences
// merged into a fresh cache map.
func (s *verifiedSnap) withCache(extra map[int]Sequence) *verifiedSnap {
	n := &verifiedSnap{family: s.family, maxN: s.maxN, gen: s.gen,
		cache: make(map[int]Sequence, len(s.cache)+len(extra))}
	for k, v := range s.cache {
		n.cache[k] = v
	}
	for k, v := range extra {
		n.cache[k] = v
	}
	return n
}

// NewVerifiedGreedy returns a verified catalog whose sequences come from
// the deterministic greedy construction (GreedyFor): minimal lengths,
// seed-independent. See the note on search for why this is NOT the
// simulation default.
func NewVerifiedGreedy(family []*graph.Graph, seed int64) *Verified {
	v := NewVerified(family, seed)
	v.greedy = true
	return v
}

// NewVerified returns a verified catalog over the given family. The
// family is copied; it must contain at least one graph.
func NewVerified(family []*graph.Graph, seed int64) *Verified {
	if len(family) == 0 {
		panic("uxs: NewVerified needs a non-empty family")
	}
	s := &verifiedSnap{
		family: append([]*graph.Graph(nil), family...),
		cache:  make(map[int]Sequence),
	}
	for _, g := range family {
		if g.N() > s.maxN {
			s.maxN = g.N()
		}
	}
	v := &Verified{seed: seed}
	v.snap.Store(s)
	return v
}

// The default family's seed derivations, exported so that declarative
// descriptors (campaign axes, scenario specs) can reproduce family
// members exactly: a zero-seed "tree"/"random" or shuffled cell derives
// these same seeds and is therefore recognized by a default verified
// catalog without extending it. One exception: a *shuffled* random
// graph cannot be family-identical, because a declarative GraphSpec
// drives generation and shuffling with a single seed while the family
// shuffles with the node count — such cells build fine but extend the
// catalog.

// DefaultTreeSeed is the RandomTree seed DefaultFamily uses at size n.
func DefaultTreeSeed(n int) int64 { return int64(n) }

// DefaultRandomSeed is the RandomConnected seed DefaultFamily uses at
// size n.
func DefaultRandomSeed(n int) int64 { return int64(n)*7 + 1 }

// DefaultRandomP is the RandomConnected edge probability DefaultFamily
// uses.
const DefaultRandomP = 0.3

// DefaultShuffleSeed is the ShufflePorts seed DefaultFamily pairs with
// a family graph of the given node count.
func DefaultShuffleSeed(nodes int) int64 { return int64(nodes) }

// DefaultFamily returns a representative family of standard topologies up
// to maxN nodes: rings, paths, cliques, stars, trees, grids and a sprinkle
// of random connected graphs, each with both natural and shuffled ports.
func DefaultFamily(maxN int) []*graph.Graph {
	if maxN < 2 {
		panic("uxs: DefaultFamily needs maxN >= 2")
	}
	var fam []*graph.Graph
	add := func(g *graph.Graph) {
		if g.N() <= maxN {
			fam = append(fam, g, graph.ShufflePorts(g, DefaultShuffleSeed(g.N())))
		}
	}
	for n := 2; n <= maxN; n++ {
		add(graph.Path(n))
		if n >= 3 {
			add(graph.Ring(n))
			add(graph.Complete(n))
			add(graph.Star(n))
			add(graph.BinaryTree(n))
		}
		if n >= 4 {
			add(graph.RandomTree(n, DefaultTreeSeed(n)))
			add(graph.RandomConnected(n, DefaultRandomP, DefaultRandomSeed(n)))
		}
	}
	if maxN >= 6 {
		add(graph.Grid(2, 3))
	}
	if maxN >= 9 {
		add(graph.Grid(3, 3))
	}
	if maxN >= 10 {
		add(graph.Petersen())
	}
	return fam
}

// Family returns the graphs the catalog verifies against.
func (v *Verified) Family() []*graph.Graph {
	s := v.snap.Load()
	return append([]*graph.Graph(nil), s.family...)
}

// Extend adds graphs to the family and invalidates cached sequences, so
// that subsequent Seq calls re-verify. Use before running on a graph not
// in the original family.
func (v *Verified) Extend(gs ...*graph.Graph) {
	v.mu.Lock()
	defer v.mu.Unlock()
	old := v.snap.Load()
	n := &verifiedSnap{
		family: append(append([]*graph.Graph(nil), old.family...), gs...),
		cache:  make(map[int]Sequence),
		maxN:   old.maxN,
		gen:    old.gen + 1,
	}
	for _, g := range gs {
		if g.N() > n.maxN {
			n.maxN = g.N()
		}
	}
	v.snap.Store(n)
}

// Generation counts the catalog's extensions. Sequences, and with them
// P(k), can change only when it moves, so a memo of values derived
// from P (trajectory.Env's lengths) stays valid while it holds still.
func (v *Verified) Generation() uint64 { return v.snap.Load().gen }

// Covers reports whether g is part of the verified family.
func (v *Verified) Covers(g *graph.Graph) bool {
	for _, f := range v.snap.Load().family {
		if f == g {
			return true
		}
	}
	return false
}

// CoversEqual reports whether the family contains a graph structurally
// identical to g (graph.Equal), not merely pointer-identical. Scenario
// descriptors rebuild graphs from deterministic generators, so a
// rebuilt family member is recognized here without extending the family
// — which would needlessly invalidate every cached sequence.
func (v *Verified) CoversEqual(g *graph.Graph) bool {
	for _, f := range v.snap.Load().family {
		if graph.Equal(f, g) {
			return true
		}
	}
	return false
}

// MaxN returns the size of the largest graph in the verified family.
func (v *Verified) MaxN() int { return v.snap.Load().maxN }

// Seq returns a sequence verified to be integral on every family graph of
// size at most k, from every start node. Sequences are found by seeded
// randomized search with growing length, then padded so that P stays
// non-decreasing. Seq panics if no sequence is found within a generous
// search budget, which indicates a family far outside this catalog's
// intended small-graph regime.
//
// The fast path is a single atomic load plus a map read; the search and
// verification run under the writer lock and publish a new snapshot.
func (v *Verified) Seq(k int) Sequence {
	if s, ok := v.snap.Load().cache[k]; ok {
		return s
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	old := v.snap.Load()
	if s, ok := old.cache[k]; ok { // raced with another filler
		return s
	}
	fresh := make(map[int]Sequence)
	s := v.seqInto(old, fresh, k)
	v.snap.Store(old.withCache(fresh))
	return s
}

// seqInto computes Seq(k) against the snapshot's family, reading
// already-verified sequences from the snapshot and recording new ones in
// fresh. Caller holds v.mu.
func (v *Verified) seqInto(snap *verifiedSnap, fresh map[int]Sequence, k int) Sequence {
	if s, ok := snap.cache[k]; ok {
		return s
	}
	if s, ok := fresh[k]; ok {
		return s
	}
	// Beyond the family's largest graph the constraint set no longer
	// grows; reuse the maxN sequence so P plateaus.
	if k > snap.maxN {
		s := v.seqInto(snap, fresh, snap.maxN)
		fresh[k] = s
		return s
	}
	var gs []*graph.Graph
	for _, g := range snap.family {
		if g.N() <= k {
			gs = append(gs, g)
		}
	}
	minLen := 1
	if k > 1 {
		minLen = len(v.seqInto(snap, fresh, k-1))
	}
	found := v.search(k, gs)
	if len(found) < minLen {
		// Pad: extra steps after full coverage cannot reduce coverage.
		pad := make(Sequence, minLen)
		copy(pad, found)
		found = pad
	}
	fresh[k] = found
	return found
}

// search finds a sequence integral for all graphs in gs from all starts.
//
// Two constructions exist: the deterministic greedy set-cover (GreedyFor,
// used when v.greedy is set) yields minimal-length sequences, and seeded
// randomized search yields longer but "richer" walks. Random search is
// the default: the E10 ablation showed that minimal sequences, while
// fully satisfying the paper's integrality property, have such short
// reach (P(2) = 1) that typical-case walks barely overlap and simulated
// meetings slow down by orders of magnitude — the guarantee is untouched,
// but the simulations take the worst-case path. Length is not the only
// quality measure of an exploration sequence.
func (v *Verified) search(k int, gs []*graph.Graph) Sequence {
	if len(gs) == 0 {
		return Sequence{0}
	}
	if v.greedy {
		if seq, ok := GreedyFor(gs, 200*k*k+64); ok {
			return seq
		}
	}
	rng := rand.New(rand.NewSource(mixSeed(v.seed, k)))
	length := 4 * k
	const maxRounds = 60
	for round := 0; round < maxRounds; round++ {
		for try := 0; try < 25; try++ {
			seq := make(Sequence, length)
			for i := range seq {
				seq[i] = rng.Intn(maxOffset)
			}
			if UniversalFor(seq, gs) {
				return seq
			}
		}
		length = length*5/4 + 1
	}
	panic(fmt.Sprintf("uxs: no universal sequence found for k=%d over %d graphs (last length %d)",
		k, len(gs), length))
}

// P returns len(Seq(k)).
func (v *Verified) P(k int) int { return len(v.Seq(k)) }

var _ Catalog = (*Verified)(nil)

// CheckCatalog verifies the Catalog contract up to kMax against the given
// graphs: P non-decreasing, P(k) == len(Seq(k)), and integrality of
// Seq(k) on every g in gs with g.N() <= k. It returns the first violation.
func CheckCatalog(c Catalog, kMax int, gs []*graph.Graph) error {
	prev := 0
	for k := 1; k <= kMax; k++ {
		s := c.Seq(k)
		if len(s) != c.P(k) {
			return fmt.Errorf("uxs: P(%d)=%d but len(Seq)=%d", k, c.P(k), len(s))
		}
		if len(s) < prev {
			return fmt.Errorf("uxs: P not monotone at k=%d (%d < %d)", k, len(s), prev)
		}
		prev = len(s)
		for _, g := range gs {
			if g.N() > k {
				continue
			}
			for vtx := 0; vtx < g.N(); vtx++ {
				if !Integral(g, vtx, s) {
					return fmt.Errorf("uxs: Seq(%d) not integral on %v from %d", k, g, vtx)
				}
			}
		}
	}
	return nil
}
