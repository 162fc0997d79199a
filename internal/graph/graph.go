// Package graph implements the network model of Dieudonné, Pelc and
// Villain (PODC 2013): finite simple undirected connected graphs whose
// nodes are anonymous and whose edges carry local port numbers. Edges
// incident to a node v have distinct labels 0..deg(v)-1; the two endpoints
// of an edge number it independently.
//
// Agents navigating a Graph never observe node identities; they see only
// the degree of the current node and the port by which they entered it.
// Node indices exist solely so that the simulator and test harness can
// track positions.
package graph

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// half is one directed half of an undirected edge: the port points at the
// neighbour to, which sees the same edge as its port toPort.
type half struct {
	to     int
	toPort int
}

// Graph is an immutable port-numbered undirected simple graph.
// The zero value is an empty graph with no nodes.
type Graph struct {
	name string
	adj  [][]half
	m    int // number of undirected edges

	// edgeIdx maps (node, port) to a dense edge identifier in [0, m),
	// built lazily on first EdgeIndex call (the graph is immutable, so
	// one build serves every caller).
	idxOnce sync.Once
	edgeIdx [][]int32

	// diam is the lazily computed diameter (see Diameter): immutability
	// makes it a per-graph constant, and outcome classifiers and oracles
	// may ask for it once per run, so the all-pairs BFS is paid once.
	diamOnce sync.Once
	diam     int

	// sym memoizes CleanSymmetric verdicts by start pair: runs ask once
	// per run, and a warm answer is one locked map lookup.
	symMu sync.Mutex
	sym   map[[2]int32]bool
}

// Builder incrementally constructs a Graph. Nodes are added implicitly by
// AddEdge; ports are assigned at each endpoint in order of insertion.
type Builder struct {
	adj [][]half
	m   int
}

// NewBuilder returns a Builder for a graph with n isolated nodes.
func NewBuilder(n int) *Builder {
	return &Builder{adj: make([][]half, n)}
}

// AddEdge inserts the undirected edge {u, v}, assigning the next free port
// number at each endpoint. It panics on self-loops, duplicate edges or
// out-of-range endpoints: builders are driven by generator code, so a bad
// edge is a programming error, not an input error.
func (b *Builder) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	if u < 0 || v < 0 || u >= len(b.adj) || v >= len(b.adj) {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range (n=%d)", u, v, len(b.adj)))
	}
	for _, h := range b.adj[u] {
		if h.to == v {
			panic(fmt.Sprintf("graph: duplicate edge {%d,%d}", u, v))
		}
	}
	pu, pv := len(b.adj[u]), len(b.adj[v])
	b.adj[u] = append(b.adj[u], half{to: v, toPort: pv})
	b.adj[v] = append(b.adj[v], half{to: u, toPort: pu})
	b.m++
}

// Graph finalizes the builder. The returned graph shares no state with the
// builder. name is a human-readable label used in experiment reports.
func (b *Builder) Graph(name string) *Graph {
	adj := make([][]half, len(b.adj))
	for i, hs := range b.adj {
		adj[i] = append([]half(nil), hs...)
	}
	return &Graph{name: name, adj: adj, m: b.m}
}

// N returns the number of nodes (the paper's "size" of the graph).
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Name returns the generator-assigned label of the graph.
func (g *Graph) Name() string { return g.name }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Succ returns the neighbour of v reached by leaving through port, along
// with the port by which that neighbour sees the edge (the entry port).
// This is the paper's succ(v, i), extended with the entry port that the
// model reveals to an arriving agent.
func (g *Graph) Succ(v, port int) (to, entryPort int) {
	h := g.adj[v][port]
	return h.to, h.toPort
}

// MaxDegree returns the largest degree in the graph (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := range g.adj {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// Edge is an undirected edge described from both endpoints.
type Edge struct {
	U, V         int // endpoints with U < V
	PortU, PortV int // the edge's port number at U and at V
}

// Edges lists all undirected edges sorted by (U, V).
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u := range g.adj {
		for pu, h := range g.adj[u] {
			if u < h.to {
				es = append(es, Edge{U: u, V: h.to, PortU: pu, PortV: h.toPort})
			}
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

// EdgeID returns a canonical identifier for the undirected edge leaving v
// by port, usable as a map key. The identifier is direction-independent.
func (g *Graph) EdgeID(v, port int) [2]int {
	u, _ := g.Succ(v, port)
	if u < v {
		return [2]int{u, v}
	}
	return [2]int{v, u}
}

// EdgeIndex returns a dense direction-independent identifier in [0, M())
// for the undirected edge leaving v by port. Unlike EdgeID it indexes a
// flat array instead of keying a map, which is what edge-coverage checks
// on hot paths want: covered := make([]bool, g.M()).
func (g *Graph) EdgeIndex(v, port int) int {
	g.idxOnce.Do(g.buildEdgeIndex)
	return int(g.edgeIdx[v][port])
}

// buildEdgeIndex numbers the undirected edges 0..m-1 in (min endpoint,
// port at that endpoint) discovery order and records the id at both
// endpoints' half-edges.
func (g *Graph) buildEdgeIndex() {
	idx := make([][]int32, len(g.adj))
	for v := range g.adj {
		idx[v] = make([]int32, len(g.adj[v]))
	}
	var next int32
	for v := range g.adj {
		for p, h := range g.adj[v] {
			if v < h.to {
				idx[v][p] = next
				idx[h.to][h.toPort] = next
				next++
			}
		}
	}
	g.edgeIdx = idx
}

// Equal reports whether a and b are identical port-numbered graphs:
// same node count and same (neighbour, entry port) at every port of
// every node. Builders are deterministic, so two graphs produced by the
// same generator call are Equal even though they are distinct values;
// this is what lets a shared catalog recognize a scenario-built graph as
// a member of its verified family without pointer identity.
func Equal(a, b *Graph) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.N() != b.N() || a.m != b.m {
		return false
	}
	for v := range a.adj {
		if len(a.adj[v]) != len(b.adj[v]) {
			return false
		}
		for p, h := range a.adj[v] {
			if b.adj[v][p] != h {
				return false
			}
		}
	}
	return true
}

// ErrInvalid is wrapped by all Validate failures.
var ErrInvalid = errors.New("graph: invalid")

// Validate checks the structural invariants of the model: port numbers
// contiguous per node, port symmetry (following a port and coming back by
// the reported entry port round-trips), simplicity, and connectivity.
func (g *Graph) Validate() error {
	if g.N() == 0 {
		return fmt.Errorf("%w: graph has no nodes", ErrInvalid)
	}
	for v := range g.adj {
		seen := make(map[int]bool, len(g.adj[v]))
		for p, h := range g.adj[v] {
			if h.to == v {
				return fmt.Errorf("%w: self-loop at node %d", ErrInvalid, v)
			}
			if h.to < 0 || h.to >= g.N() {
				return fmt.Errorf("%w: node %d port %d points outside the graph", ErrInvalid, v, p)
			}
			if seen[h.to] {
				return fmt.Errorf("%w: multi-edge between %d and %d", ErrInvalid, v, h.to)
			}
			seen[h.to] = true
			back := g.adj[h.to]
			if h.toPort < 0 || h.toPort >= len(back) {
				return fmt.Errorf("%w: node %d port %d: reverse port %d out of range at %d",
					ErrInvalid, v, p, h.toPort, h.to)
			}
			if r := back[h.toPort]; r.to != v || r.toPort != p {
				return fmt.Errorf("%w: port asymmetry on edge {%d,%d}", ErrInvalid, v, h.to)
			}
		}
	}
	if !g.Connected() {
		return fmt.Errorf("%w: graph is not connected", ErrInvalid)
	}
	return nil
}

// Connected reports whether the graph is connected. The empty graph is not
// connected; the single-node graph is.
func (g *Graph) Connected() bool {
	if g.N() == 0 {
		return false
	}
	seen := make([]bool, g.N())
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.adj[v] {
			if !seen[h.to] {
				seen[h.to] = true
				count++
				stack = append(stack, h.to)
			}
		}
	}
	return count == g.N()
}

// BFSDistances returns the hop distance from src to every node
// (-1 for unreachable nodes).
func (g *Graph) BFSDistances(src int) []int {
	dist := make([]int, g.N())
	g.bfsInto(dist, make([]int32, 0, g.N()), src)
	return dist
}

// bfsInto runs one BFS from src into the caller's dist buffer (resized
// to N, -1 for unreachable) using queue as scratch, so repeated sweeps
// — Diameter runs N of them — reuse two allocations instead of 2N.
func (g *Graph) bfsInto(dist []int, queue []int32, src int) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], int32(src))
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := dist[v]
		for _, h := range g.adj[v] {
			if dist[h.to] == -1 {
				dist[h.to] = dv + 1
				queue = append(queue, int32(h.to))
			}
		}
	}
}

// Diameter returns the largest pairwise hop distance, computed once per
// graph (the value is memoized: graphs are immutable). It panics if the
// graph is disconnected (validate first).
func (g *Graph) Diameter() int {
	g.diamOnce.Do(func() {
		diam := 0
		dist := make([]int, g.N())
		queue := make([]int32, 0, g.N())
		for v := 0; v < g.N(); v++ {
			g.bfsInto(dist, queue, v)
			for _, d := range dist {
				if d == -1 {
					panic("graph: Diameter on disconnected graph")
				}
				if d > diam {
					diam = d
				}
			}
		}
		g.diam = diam
	})
	return g.diam
}

// CleanSymmetric reports whether a port-preserving automorphism σ of g
// maps s1 to s2 and is clean: σ fixes no node, and no edge {u, v} has
// σ(u) = v and σ(v) = u. Two agents that start at s1 and s2 and emit
// the same ports observe the same degrees and entry ports, so their
// positions stay σ-images of each other; when σ is clean, two such
// positions are never one node and never the two directions of one
// edge. On a connected graph σ is unique when it exists: one BFS over
// ports from s1 builds it in O(n + m). The verdict is memoized per
// start pair, so a warm call allocates nothing.
func (g *Graph) CleanSymmetric(s1, s2 int) bool {
	key := [2]int32{int32(s1), int32(s2)}
	g.symMu.Lock()
	clean, ok := g.sym[key]
	g.symMu.Unlock()
	if ok {
		return clean
	}
	clean = g.cleanSymmetric(s1, s2)
	g.symMu.Lock()
	if g.sym == nil {
		g.sym = make(map[[2]int32]bool)
	}
	g.sym[key] = clean
	g.symMu.Unlock()
	return clean
}

// cleanSymmetric computes CleanSymmetric's verdict. A port-preserving
// automorphism commutes with Succ, so σ(s1) = s2 forces σ on every
// neighbour, port by port; any disagreement in degree or entry port, a
// node mapped twice, or a node left unmapped rules σ out.
func (g *Graph) cleanSymmetric(s1, s2 int) bool {
	n := len(g.adj)
	if len(g.adj[s1]) != len(g.adj[s2]) {
		return false
	}
	buf := make([]int32, 3*n)
	sigma, inv, queue := buf[:n], buf[n:2*n], buf[2*n:2*n]
	for i := range buf[:2*n] {
		buf[i] = -1
	}
	sigma[s1], inv[s2] = int32(s2), int32(s1)
	queue = append(queue, int32(s1))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		image := g.adj[sigma[u]]
		for p, h := range g.adj[u] {
			t := image[p]
			if h.toPort != t.toPort || len(g.adj[h.to]) != len(g.adj[t.to]) {
				return false
			}
			switch sigma[h.to] {
			case -1:
				if inv[t.to] != -1 {
					return false // σ would not be injective
				}
				sigma[h.to], inv[t.to] = int32(t.to), int32(h.to)
				queue = append(queue, int32(h.to))
			case int32(t.to):
			default:
				return false
			}
		}
	}
	if len(queue) != n {
		return false // σ must be total
	}
	for u, su := range sigma {
		if int(su) == u {
			return false
		}
		if int(sigma[su]) != u {
			continue
		}
		for _, h := range g.adj[u] {
			if h.to == int(su) {
				return false // σ swaps the endpoints of edge {u, σ(u)}
			}
		}
	}
	return true
}

// String renders a compact adjacency summary, primarily for debugging.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s{n=%d m=%d}", g.name, g.N(), g.m)
	return sb.String()
}

// DOT renders the graph in Graphviz format with port labels, so that
// failing test cases can be visualized.
func (g *Graph) DOT() string {
	var sb strings.Builder
	sb.WriteString("graph G {\n")
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "  %d -- %d [taillabel=\"%d\", headlabel=\"%d\"];\n",
			e.U, e.V, e.PortU, e.PortV)
	}
	sb.WriteString("}\n")
	return sb.String()
}
