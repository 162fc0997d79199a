package lazyrand

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// drawCounts crosses every boundary of the lazy build: the first chunk
// (16), the first tap word a feed draw rewrote (274), the last word
// built (334), the register's wrap (607) and the second wrap (1,214).
var drawCounts = []int{1, 16, 17, 273, 274, 333, 334, 335, 606, 607, 608, 1214, 1215, 2000}

// testSeeds covers seed normalization (0, negatives, multiples of
// 2³¹−1, the int64 extremes) and a few hundred spread-out seeds.
func testSeeds() []int64 {
	seeds := []int64{0, 1, -1, zeroSeed, lehmerM, -lehmerM, 2 * lehmerM, -3 * lehmerM,
		math.MaxInt64, math.MinInt64, 1 << 40}
	r := rand.New(rand.NewSource(2013))
	for i := 0; i < 400; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// methods draw one value each through a Rand method, as bits; Perm
// and Shuffle draw several and pack the permutation a byte per element.
var methods = []struct {
	name string
	draw func(r *rand.Rand) uint64
}{
	{"Int63", func(r *rand.Rand) uint64 { return uint64(r.Int63()) }},
	{"Uint64", func(r *rand.Rand) uint64 { return r.Uint64() }},
	{"Int63n", func(r *rand.Rand) uint64 { return uint64(r.Int63n(1e18 + 7)) }},
	{"Intn", func(r *rand.Rand) uint64 { return uint64(r.Intn(64)) }},
	{"Int31n", func(r *rand.Rand) uint64 { return uint64(r.Int31n(1<<30 + 3)) }},
	{"Float64", func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) }},
	{"Perm", func(r *rand.Rand) uint64 { return pack(r.Perm(5)) }},
	{"Shuffle", func(r *rand.Rand) uint64 {
		a := []int{0, 1, 2, 3, 4, 5, 6}
		r.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		return pack(a)
	}},
}

func pack(a []int) uint64 {
	var h uint64
	for _, v := range a {
		h = h<<8 | uint64(v)
	}
	return h
}

// TestSourceMatchesMathRand compares rand.New over a Source with
// rand.New over rand.NewSource: every seed, through every method, up to
// every draw count. It then re-seeds each partly consumed Source, the
// campaign expander's pattern, and compares again.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		got, want := rand.New(New(seed)), rand.New(rand.NewSource(seed))
		for d := 0; d < 2000; d++ {
			m := methods[d%len(methods)]
			if a, b := m.draw(got), m.draw(want); a != b {
				t.Fatalf("seed %d: call %d (%s) = %d, math/rand %d", seed, d, m.name, a, b)
			}
		}
	}
	for _, m := range methods {
		for _, seed := range []int64{0, -1, lehmerM, math.MinInt64, 7} {
			src := New(seed + 1)
			r := rand.New(src)
			for _, n := range drawCounts {
				for j := 0; j < n; j++ {
					src.Uint64() // leave the register partly consumed
				}
				r.Seed(seed)
				want := rand.New(rand.NewSource(seed))
				for j := 0; j < n; j++ {
					if a, b := m.draw(r), m.draw(want); a != b {
						t.Fatalf("%s seed %d after %d draws and a re-seed: call %d = %d, math/rand %d",
							m.name, seed, n, j, a, b)
					}
				}
			}
		}
	}
}

// TestEveryWordBuilt checks that a seeding builds at most one chunk
// ahead of the feed index, that 334 draws complete the register, and
// that the draws after it are math/rand's.
func TestEveryWordBuilt(t *testing.T) {
	s := New(99)
	for j := 1; j <= rngFeed; j++ {
		s.Uint64()
		if s.edge > s.feed || s.feed-s.edge >= chunk {
			t.Fatalf("draw %d: feed %d, edge %d: the build is not one chunk ahead", j, s.feed, s.edge)
		}
	}
	if s.edge != 0 {
		t.Fatalf("edge %d after %d draws, want 0", s.edge, rngFeed)
	}
	ref := rand.NewSource(99).(rand.Source64)
	for j := 0; j < rngFeed; j++ {
		ref.Uint64()
	}
	for j := 0; j < 3*rngLen; j++ {
		if a, b := s.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("draw %d past the build: %d, math/rand %d", rngFeed+j, a, b)
		}
	}
}

// FuzzSourceMatchesMathRand decodes ops into Rand method calls and
// re-seeds, on a Source and on rand.NewSource side by side.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(-1), []byte{8, 0xff, 9, 0x10})
	f.Add(int64(math.MinInt64), []byte{10, 200, 200, 200, 8, 3})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		got, want := rand.New(New(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < len(ops); i++ {
			op := ops[i]
			switch {
			case op%11 == 8: // re-seed, from the next byte
				s := seed
				if i+1 < len(ops) {
					i++
					s ^= int64(ops[i]) << (ops[i] % 56)
				}
				got.Seed(s)
				want.Seed(s)
			case op%11 >= 9: // a run of raw draws
				for k := 0; k < int(op)*4; k++ {
					if a, b := got.Int63(), want.Int63(); a != b {
						t.Fatalf("op %d: Int63 run draw %d = %d, math/rand %d", i, k, a, b)
					}
				}
			default:
				m := methods[op%11]
				if a, b := m.draw(got), m.draw(want); a != b {
					t.Fatalf("op %d (%s) = %d, math/rand %d", i, m.name, a, b)
				}
			}
		}
	})
}

var sink int64

// BenchmarkSeed seeds a source and draws n values through Int63n, the
// way a random adversary's cell does, on a Source and on math/rand.
func BenchmarkSeed(b *testing.B) {
	for _, n := range []int{10, 15000} {
		b.Run(fmt.Sprintf("lazyrand/draws=%d", n), func(b *testing.B) {
			for b.Loop() {
				r := rand.New(New(int64(n)))
				for j := 0; j < n; j++ {
					sink += r.Int63n(3)
				}
			}
		})
		b.Run(fmt.Sprintf("math-rand/draws=%d", n), func(b *testing.B) {
			for b.Loop() {
				r := rand.New(rand.NewSource(int64(n)))
				for j := 0; j < n; j++ {
					sink += r.Int63n(3)
				}
			}
		})
	}
}
