package trajectory

import (
	"sync"
	"testing"

	"meetpoly/internal/graph"
	"meetpoly/internal/uxs"
)

func routeTestEnv() *Env {
	return NewEnv(uxs.NewVerified(uxs.DefaultFamily(6), 1))
}

// TestRouteStepperMatchesGenerator pins route replay to direct
// generation: walking a cached route must visit exactly the nodes and
// exits the composite trajectory stepper produces, across replays and
// from a replay longer than any before (forcing lazy extension).
func TestRouteStepperMatchesGenerator(t *testing.T) {
	env := routeTestEnv()
	for _, g := range []*graph.Graph{graph.Ring(6), graph.Grid(2, 3), graph.ShufflePorts(graph.Complete(5), 3)} {
		book := NewRouteBook(g)
		for start := 0; start < g.N(); start++ {
			key := RouteKey{Start: start, Kind: 'Y', Param: 3}
			gen := func() Stepper { return env.Y(3) }
			want, _ := Run(g, start, env.Y(3), 5000)
			for _, limit := range []int{10, 100, 5000} { // grow the prefix across replays
				got, _ := Run(g, start, book.Stepper(key, gen), limit)
				if got.Moves() != min(limit, want.Moves()) {
					t.Fatalf("%v from %d: replay made %d moves, want %d", g, start, got.Moves(), min(limit, want.Moves()))
				}
				for i := 0; i < got.Moves(); i++ {
					if got.Nodes[i] != want.Nodes[i] || got.Exits[i] != want.Exits[i] {
						t.Fatalf("%v from %d: replay diverges at move %d: (%d,%d) vs (%d,%d)",
							g, start, i, got.Nodes[i], got.Exits[i], want.Nodes[i], want.Exits[i])
					}
				}
			}
		}
	}
}

// TestRouteBookFiniteTrajectory asserts replay of a finite trajectory
// halts at exactly the generator's end.
func TestRouteBookFiniteTrajectory(t *testing.T) {
	env := routeTestEnv()
	g := graph.Ring(5)
	book := NewRouteBook(g)
	key := RouteKey{Start: 0, Kind: 'X', Param: 2}
	gen := func() Stepper { return env.X(2) }
	want, completed := Run(g, 0, env.X(2), 1<<20)
	if !completed {
		t.Fatal("X(2) did not complete (test needs a finite trajectory)")
	}
	got, completed := Run(g, 0, book.Stepper(key, gen), 1<<20)
	if !completed || got.Moves() != want.Moves() {
		t.Fatalf("replay: completed=%v moves=%d, want completed=true moves=%d",
			completed, got.Moves(), want.Moves())
	}
	// NodeRoute past the end clamps to the completed route.
	route := book.NodeRoute(key, gen, want.Moves()+100)
	if len(route) != want.Moves()+1 || route[0] != 0 {
		t.Fatalf("NodeRoute length %d, want %d", len(route), want.Moves()+1)
	}
	for i := 0; i < want.Moves(); i++ {
		if route[i+1] != want.Nodes[i] {
			t.Fatalf("NodeRoute[%d] = %d, want %d", i+1, route[i+1], want.Nodes[i])
		}
	}
}

// TestRouteBookConcurrentReplay races many replayers of one route (and
// its lazy extension) under -race, all of which must observe the same
// walk, alongside NodeRoute readers rebuilding nodes from the ports
// while replays extend the route.
func TestRouteBookConcurrentReplay(t *testing.T) {
	env := routeTestEnv()
	g := graph.Grid(2, 3)
	book := NewRouteBook(g)
	key := RouteKey{Start: 1, Kind: 'Y', Param: 3}
	gen := func() Stepper { return env.Y(3) }
	want, _ := Run(g, 1, env.Y(3), 4000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(2)
		go func(limit int) {
			defer wg.Done()
			got, _ := Run(g, 1, book.Stepper(key, gen), limit)
			for i := 0; i < got.Moves(); i++ {
				if got.Nodes[i] != want.Nodes[i] {
					t.Errorf("concurrent replay diverges at move %d", i)
					return
				}
			}
		}(500 + 500*w)
		go func(moves int) {
			defer wg.Done()
			route := book.NodeRoute(key, gen, moves)
			if len(route) != min(moves, want.Moves())+1 || route[0] != 1 {
				t.Errorf("concurrent NodeRoute(%d) has %d nodes", moves, len(route))
				return
			}
			for i, v := range route[1:] {
				if v != want.Nodes[i] {
					t.Errorf("concurrent NodeRoute(%d) diverges at move %d", moves, i)
					return
				}
			}
		}(300 + 450*w)
	}
	wg.Wait()
}

// materialized returns the moves published over every route in b.
func materialized(b *RouteBook) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, r := range b.m {
		n += len(r.state.Load().ports)
	}
	return n
}

// TestRouteBookGrowth pins the growth rule: a fresh route replayed
// k ≤ 1,024 moves materializes at most max(64, 2k) moves, and a longer
// one at most k+1,024. Bytes reads 4 bytes per published move.
func TestRouteBookGrowth(t *testing.T) {
	env := routeTestEnv()
	g := graph.ShufflePorts(graph.Complete(5), 3)
	gen := func() Stepper { return env.B(2) }
	for _, k := range []int{1, 10, 63, 64, 65, 100, 513, 1000, 1024, 1025, 2500, 5000} {
		book := NewRouteBook(g)
		key := RouteKey{Start: 2, Kind: 'B', Param: 2}
		if book.Bytes() != 0 {
			t.Fatalf("fresh book holds %d bytes", book.Bytes())
		}
		got, completed := Run(g, 2, book.Stepper(key, gen), k)
		if completed || got.Moves() != k {
			t.Fatalf("k=%d: replay made %d moves (completed=%v), want an unfinished %d", k, got.Moves(), completed, k)
		}
		limit := max(64, 2*k)
		if k > 1024 {
			limit = k + 1024
		}
		moves := int(book.Bytes() / 4)
		if moves < k || moves > limit {
			t.Errorf("k=%d: materialized %d moves, want within [%d, %d]", k, moves, k, limit)
		}
		if book.Bytes() != 4*int64(materialized(book)) {
			t.Errorf("k=%d: Bytes() = %d, want 4 × %d published moves", k, book.Bytes(), materialized(book))
		}
	}
}

// TestNodeRouteMatchesGenerator pins NodeRoute, which rebuilds nodes
// from the stored ports, to the generator's node sequence on an
// unfinished trajectory: for prefixes on both sides of every batch
// boundary, before and after replays extend the route.
func TestNodeRouteMatchesGenerator(t *testing.T) {
	env := routeTestEnv()
	for _, g := range []*graph.Graph{graph.Grid(2, 3), graph.ShufflePorts(graph.Complete(5), 3)} {
		const start = 1
		want, completed := Run(g, start, env.B(2), 6000)
		if completed {
			t.Fatal("B(2) completed within 6000 moves (test needs an unfinished trajectory)")
		}
		book := NewRouteBook(g)
		key := RouteKey{Start: start, Kind: 'B', Param: 2}
		gen := func() Stepper { return env.B(2) }
		check := func(when string) {
			for _, moves := range []int{1, 63, 64, 65, 1023, 1025, 3000} {
				route := book.NodeRoute(key, gen, moves)
				if len(route) != moves+1 || route[0] != start {
					t.Fatalf("%v %s: NodeRoute(%d) has %d nodes from %d", g, when, moves, len(route), route[0])
				}
				for i, v := range route[1:] {
					if v != want.Nodes[i] {
						t.Fatalf("%v %s: NodeRoute(%d)[%d] = %d, want %d", g, when, moves, i+1, v, want.Nodes[i])
					}
				}
			}
		}
		check("fresh")
		Run(g, start, book.Stepper(key, gen), 5000) // replay past every prefix
		check("after replay")
	}
}
