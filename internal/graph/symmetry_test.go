package graph

import (
	"fmt"
	"sync"
	"testing"
)

// TestCleanSymmetricBuiltins pins CleanSymmetric on the built-in kinds:
// on an oriented ring every rotation is a clean port-preserving
// automorphism, so every ordered pair of distinct starts is clean; no
// pair is clean on the other kinds below, whose port numberings admit
// no fixed-point-free automorphism without an edge swap. A start pair
// is never clean with itself (σ is the identity and fixes every node).
func TestCleanSymmetricBuiltins(t *testing.T) {
	for n := 3; n <= 8; n++ {
		g := Ring(n)
		for s1 := 0; s1 < n; s1++ {
			for s2 := 0; s2 < n; s2++ {
				if got, want := g.CleanSymmetric(s1, s2), s1 != s2; got != want {
					t.Errorf("%s: CleanSymmetric(%d, %d) = %v, want %v", g, s1, s2, got, want)
				}
			}
		}
	}
	var none []*Graph
	for n := 3; n <= 8; n++ {
		none = append(none, Path(n), Star(n), Complete(n))
	}
	none = append(none, Hypercube(3), Petersen(), Grid(2, 4), Grid(3, 3), ShufflePorts(Ring(6), 3))
	for _, g := range none {
		for s1 := 0; s1 < g.N(); s1++ {
			for s2 := 0; s2 < g.N(); s2++ {
				if g.CleanSymmetric(s1, s2) {
					t.Errorf("%s: CleanSymmetric(%d, %d) = true, want false", g, s1, s2)
				}
			}
		}
	}
}

// TestCleanSymmetricWarmAllocs pins the memo: once a start pair's
// verdict is known, asking again allocates nothing.
func TestCleanSymmetricWarmAllocs(t *testing.T) {
	g := Ring(6)
	g.CleanSymmetric(1, 4)
	if allocs := testing.AllocsPerRun(100, func() { g.CleanSymmetric(1, 4) }); allocs != 0 {
		t.Errorf("warm CleanSymmetric allocates %v times per call", allocs)
	}
}

// TestCleanSymmetricConcurrent asks one graph's memo for every start
// pair from several goroutines at once, as sweep workers sharing a
// prepared graph do; every answer must be the single-threaded one.
func TestCleanSymmetricConcurrent(t *testing.T) {
	g, ref := Ring(7), Ring(7)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s1 := 0; s1 < g.N(); s1++ {
				for s2 := 0; s2 < g.N(); s2++ {
					if got, want := g.CleanSymmetric(s1, s2), ref.cleanSymmetric(s1, s2); got != want {
						t.Errorf("CleanSymmetric(%d, %d) = %v, want %v", s1, s2, got, want)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// fuzzGraph builds a connected port-numbered graph of 2–7 nodes from
// fuzz bytes: either a random spanning tree plus random extra edges
// with shuffled ports, or a circulant C_n(1, k) whose ports are numbered
// by offset in the same order at every node, which makes every rotation
// port-preserving (the positive cases).
func fuzzGraph(data []byte) (*Graph, []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 2 + next()%6
	if next()%2 == 1 && n >= 3 {
		k := 1 + next()%(n-1)
		var offs []int
		for _, d := range []int{1, n - 1, k, n - k} {
			seen := false
			for _, o := range offs {
				seen = seen || o == d
			}
			if !seen {
				offs = append(offs, d)
			}
		}
		for i := len(offs) - 1; i > 0; i-- { // one port order for every node
			j := next() % (i + 1)
			offs[i], offs[j] = offs[j], offs[i]
		}
		port := make(map[int]int, len(offs))
		for p, d := range offs {
			port[d] = p
		}
		adj := make([][]half, n)
		for v := range adj {
			for _, d := range offs {
				adj[v] = append(adj[v], half{to: (v + d) % n, toPort: port[n-d]})
			}
		}
		return &Graph{name: fmt.Sprintf("circulant-%d-%d", n, k), adj: adj, m: n * len(offs) / 2}, data
	}
	b := NewBuilder(n)
	adjacent := make(map[[2]int]bool)
	add := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		if !adjacent[[2]int{u, v}] {
			adjacent[[2]int{u, v}] = true
			b.AddEdge(u, v)
		}
	}
	for v := 1; v < n; v++ {
		add(next()%v, v)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if next()%3 == 0 {
				add(u, v)
			}
		}
	}
	return ShufflePorts(b.Graph(fmt.Sprintf("fuzz-%d", n)), int64(next())), data
}

// bruteCleanSymmetric is CleanSymmetric's reference: it tries all n!
// node permutations π with π(s1) = s2, keeps those that commute with
// Succ (port-preserving automorphisms), and reports how many it found
// and whether one is clean.
func bruteCleanSymmetric(g *Graph, s1, s2 int) (found int, clean bool) {
	n := g.N()
	pi := make([]int, n)
	used := make([]bool, n)
	isAuto := func() bool {
		for u := 0; u < n; u++ {
			if g.Degree(u) != g.Degree(pi[u]) {
				return false
			}
			for p := 0; p < g.Degree(u); p++ {
				v, q := g.Succ(u, p)
				w, r := g.Succ(pi[u], p)
				if w != pi[v] || r != q {
					return false
				}
			}
		}
		return true
	}
	isClean := func() bool {
		for u := 0; u < n; u++ {
			if pi[u] == u {
				return false
			}
		}
		for _, e := range g.Edges() {
			if pi[e.U] == e.V && pi[e.V] == e.U {
				return false
			}
		}
		return true
	}
	var place func(u int)
	place = func(u int) {
		if u == n {
			if isAuto() {
				found++
				clean = clean || isClean()
			}
			return
		}
		if u == s1 {
			place(u + 1)
			return
		}
		for v := 0; v < n; v++ {
			if !used[v] {
				used[v], pi[u] = true, v
				place(u + 1)
				used[v] = false
			}
		}
	}
	pi[s1], used[s2] = s2, true
	place(0)
	return found, clean
}

// FuzzCleanSymmetry checks CleanSymmetric against the brute-force
// search over all node permutations, on connected graphs of 2–7 nodes
// built from the fuzz input. On a connected graph at most one
// port-preserving automorphism maps s1 to s2, so the search must find
// zero or one; the verdict must be "found one, and it is clean", and
// the memoized second answer must equal the first.
func FuzzCleanSymmetry(f *testing.F) {
	for _, seed := range [][]byte{
		{4, 1, 2, 0, 0, 1, 3},    // circulant C_6(1, 3)
		{3, 1, 1, 1, 0, 2, 4},    // circulant C_5(1, 2)
		{5, 1, 3, 2, 1, 0, 0, 5}, // circulant C_7(1, 4), permuted ports
		{2, 1, 0, 0, 0, 3},       // ring 4
		{1, 1, 1, 0, 1, 2},       // ring 3 via C_3(1, 2)
		{6, 0, 0, 1, 2, 3, 4, 5, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 1, 6, 2},
		{0, 0, 0, 7, 0, 1},
		{3, 0, 0, 0, 1, 1, 0, 3, 0, 0, 3, 3, 0, 3, 8, 1, 4},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, rest := fuzzGraph(data)
		if err := g.Validate(); err != nil {
			t.Fatalf("fuzzGraph built an invalid graph: %v", err)
		}
		var s1, s2 int
		if len(rest) >= 2 {
			s1, s2 = int(rest[0])%g.N(), int(rest[1])%g.N()
		}
		found, clean := bruteCleanSymmetric(g, s1, s2)
		if found > 1 {
			t.Fatalf("%s: %d port-preserving automorphisms map %d to %d, want at most 1", g, found, s1, s2)
		}
		want := found == 1 && clean
		if got := g.CleanSymmetric(s1, s2); got != want {
			t.Fatalf("%s (%v): CleanSymmetric(%d, %d) = %v, brute force %v (found %d)",
				g, g.Edges(), s1, s2, got, want, found)
		}
		if got := g.CleanSymmetric(s1, s2); got != want {
			t.Fatalf("%s: memoized CleanSymmetric(%d, %d) = %v, want %v", g, s1, s2, got, want)
		}
	})
}
