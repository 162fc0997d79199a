package trajectory

import (
	"sync"
	"sync/atomic"

	"meetpoly/internal/graph"
)

// A deterministic trajectory walked in a fixed graph from a fixed start
// is a pure function: the exit port of move i depends only on (graph,
// start, trajectory program), never on the adversary's timing. Cells of
// a sweep that differ only in adversary or schedule therefore walk
// exactly the same routes — the paper's own amortization move (build
// one exploration object, replay it from anywhere), applied to the
// execution layer.
//
// RouteBook caches those routes per graph: the first run per (start,
// trajectory key) materializes its exit-port prefix lazily, in growing
// batches, about as far as the run actually walks; every later run
// replays the flat array. Replay turns the per-move cost from a descent
// through the composite trajectory algebra (Chain → Repeat → Mirror →
// Interleave → UXS, with allocation churn at every excursion) into one
// slice read.

// RouteKey identifies one deterministic trajectory in a RouteBook's
// graph. Kind tags the trajectory family ('R' for the rendezvous master
// schedule, 'B' for the baseline), Param its parameter (the agent
// label). Callers must guarantee that (Kind, Param) fully determines
// the generator's move sequence in this graph.
type RouteKey struct {
	Start int
	Kind  byte
	Param uint64
}

// RouteBook caches materialized route prefixes of deterministic
// trajectories in one fixed graph. It is safe for concurrent use: route
// extension runs under a per-route lock while replays read immutable
// published snapshots.
type RouteBook struct {
	g  *graph.Graph
	mu sync.Mutex
	m  map[RouteKey]*Route

	bytes atomic.Int64 // published port bytes over every route
}

// NewRouteBook returns an empty route cache over g.
func NewRouteBook(g *graph.Graph) *RouteBook {
	return &RouteBook{g: g, m: make(map[RouteKey]*Route)}
}

// Graph returns the graph the book's routes are walked in.
func (b *RouteBook) Graph() *graph.Graph { return b.g }

// Bytes returns the size of the book's published routes: 4 bytes per
// materialized move, summed over every route.
func (b *RouteBook) Bytes() int64 { return b.bytes.Load() }

// route returns the cached route for key, creating it (with gen as the
// trajectory generator factory) on first use.
func (b *RouteBook) route(key RouteKey, gen func() Stepper) *Route {
	b.mu.Lock()
	r, ok := b.m[key]
	if !ok {
		r = &Route{book: b, cur: key.Start, mkGen: gen}
		r.state.Store(&routeState{})
		b.m[key] = r
	}
	b.mu.Unlock()
	return r
}

// Stepper returns a single-use stepper replaying the route identified
// by key, materializing it on demand via gen (called at most once, on
// the route's first use). The replay emits exactly the move sequence
// gen's stepper would produce when walked in this graph from key.Start.
func (b *RouteBook) Stepper(key RouteKey, gen func() Stepper) Stepper {
	return &routeStepper{rt: b.route(key, gen)}
}

// NodeRoute returns the node sequence of the route's first moves
// (length moves+1 including the start, shorter if the trajectory
// completes first) — the shape the exhaustive certifier consumes.
// Routes store exit ports only; the nodes are rebuilt by walking the
// prefix's ports from key.Start.
func (b *RouteBook) NodeRoute(key RouteKey, gen func() Stepper, moves int) []int {
	st := b.route(key, gen).extendTo(moves)
	ports := st.ports[:min(moves, len(st.ports))]
	out := make([]int, 0, len(ports)+1)
	v := key.Start
	out = append(out, v)
	for _, p := range ports {
		v, _ = b.g.Succ(v, int(p))
		out = append(out, v)
	}
	return out
}

// Route is one materialized route prefix. Readers load the immutable
// state snapshot; the extender appends under the route lock and
// publishes a fresh snapshot.
type Route struct {
	book  *RouteBook
	mkGen func() Stepper

	state atomic.Pointer[routeState]

	mu    sync.Mutex
	gen   Stepper // live generator, created on first extension
	cur   int     // generator walk position
	entry int     // entry-port context of the next generator move
}

// routeState is an immutable published prefix: ports[i] is the exit
// port of move i. done means the trajectory completed (or got stuck on
// a degree-0 node) at len(ports) moves.
type routeState struct {
	ports []int32
	done  bool
}

// An extension grows a route by its current length, clamped to
// [minExtend, maxExtend] moves: 64 moves on first use, doubling up to
// 1,024, then 1,024 per extension. Most routes are walked only a few
// dozen moves, so a small first batch keeps short runs from
// materializing far past what they walk; the cap bounds the overshoot
// of long runs while still amortizing locking and snapshot publication.
const (
	minExtend = 64
	maxExtend = 1024
)

// extendTo returns a state holding at least n moves (or the completed
// route, whichever is shorter). It is the only place a route grows, so
// it keeps the book's byte count.
func (r *Route) extendTo(n int) *routeState {
	st := r.state.Load()
	if st.done || len(st.ports) >= n {
		return st
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st = r.state.Load()
	if st.done || len(st.ports) >= n {
		return st
	}
	if r.gen == nil {
		r.gen = r.mkGen()
	}
	target := max(n, len(st.ports)+min(max(len(st.ports), minExtend), maxExtend))
	// Append onto a copy: published snapshots are immutable, so every
	// extension copies the prefix. Doubling keeps that linear up to
	// maxExtend moves; past it, a route of L moves has copied
	// O(L²/maxExtend) ports over its lifetime.
	g := r.book.g
	ports := append(make([]int32, 0, target), st.ports...)
	done := false
	for len(ports) < target {
		deg := g.Degree(r.cur)
		if deg == 0 {
			done = true // stuck forever: a degree-0 start makes no moves
			break
		}
		port, ok := r.gen.Next(deg, r.entry)
		if !ok {
			done = true
			break
		}
		to, entry := g.Succ(r.cur, port)
		ports = append(ports, int32(port))
		r.cur, r.entry = to, entry
	}
	next := &routeState{ports: ports, done: done}
	r.book.bytes.Add(4 * int64(len(ports)-len(st.ports)))
	r.state.Store(next)
	return next
}

// routeStepper replays a cached route. It ignores the caller-supplied
// (deg, entry) observations: the route determines them, by the same
// determinism argument that makes caching sound. Besides Next it
// exposes its published prefix (Published, Skip), so a scheduler can
// walk a stretch of the route straight off the port array.
type routeStepper struct {
	rt  *Route
	st  *routeState
	idx int
}

//rvlint:hotpath
func (s *routeStepper) Next(deg, entry int) (int, bool) {
	if s.st == nil || s.idx >= len(s.st.ports) {
		s.st = s.rt.extendTo(s.idx + 1) // extendTo grows by a batch of up to maxExtend
		if s.idx >= len(s.st.ports) {
			return 0, false
		}
	}
	p := s.st.ports[s.idx]
	s.idx++
	return int(p), true
}

// Published returns the exit ports the next Next calls would return
// without extending the route: the newest published snapshot from the
// replay's position on. It never grows the route, so a caller that
// consumes these ports directly leaves the extension, and the book's
// byte count, to the first Next past them. The slice is immutable.
func (s *routeStepper) Published() []int32 {
	s.st = s.rt.state.Load()
	return s.st.ports[s.idx:]
}

// Skip advances the replay past n moves that Published returned, as if
// Next had returned each of them.
func (s *routeStepper) Skip(n int) { s.idx += n }
