// Package lazyrand provides a math/rand source that draws exactly the
// stream of rand.NewSource, seed for seed and draw for draw, but whose
// seeding costs only what its draws touch.
//
// math/rand's source is an additive lagged Fibonacci generator over a
// 607-word register. Seeding fills the whole register: 1,841 serial
// steps of the Lehmer generator x → 48271·x mod (2³¹−1), three per word
// after twenty discarded, each word XORed with a fixed "cooked" value.
// A cell that then draws a handful of values pays for all 607 words.
//
// The Lehmer generator's k-th step from seed s is s·48271^k mod
// (2³¹−1), so word i is
//
//	lcg(3i+21)<<40 ^ lcg(3i+22)<<20 ^ lcg(3i+23) ^ cooked[i]
//
// and a power table makes each term one multiplication and a Mersenne
// reduction, independent of every other word. Source keeps the seed and
// builds words only as draws reach them: over the first 334 draws the
// feed index walks words 333→0 and the tap index words 606→273, and
// words 273–333 are rewritten through feed before tap reads them. So a
// Source builds along those two descending ranges, a chunk at a time,
// and after draw 334 every word exists and a draw is math/rand's own
// loop behind one compare.
//
// The cooked table is not copied from the standard library: init
// derives it from the first 607 draws of rand.NewSource(1), which
// determine that source's whole initial register, and then checks the
// result against rand.NewSource at a second seed over more than two
// register lengths of draws. A mismatch panics, so a process never runs
// with a source that draws differently from math/rand.
package lazyrand

import "math/rand"

const (
	rngLen  = 607             // register words
	rngTap  = 273             // lag between the tap and feed indices
	rngFeed = rngLen - rngTap // feed index after seeding
	rngMask = 1<<63 - 1

	// lehmerM and lehmerA are the Lehmer generator math/rand seeds its
	// register with: x → lehmerA·x mod lehmerM.
	lehmerM = 1<<31 - 1
	lehmerA = 48271
	// zeroSeed replaces a seed ≡ 0 mod lehmerM, as rand.NewSource does.
	zeroSeed = 89482311
	// steps is the number of Lehmer steps one seeding takes: 20
	// discarded, then three per register word.
	steps = 20 + 3*rngLen

	// chunk is how many feed words (and the tap words 273 above them)
	// one build constructs.
	chunk = 16
)

var (
	// pow[k] = lehmerA^k mod lehmerM.
	pow [steps + 1]uint64
	// cooked is math/rand's per-word seeding constant.
	cooked [rngLen]uint64
)

func init() {
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = mulMod(pow[k-1], lehmerA)
	}
	deriveCooked()
	selfCheck()
}

// deriveCooked recovers the cooked table from rand.NewSource(1). Let x_j
// be its j-th Uint64 draw (j from 1) and w its initial register. Draw j
// adds the word at the tap index 607−j to the word at the feed index
// 334−j (both mod 607) and stores the sum at the feed index. For j in
// 274..607 the tap word is the sum draw j−273 stored, and the feed word
// is still w's, so w at the feed index is x_j − x_{j−273}: words 0–60
// and 334–606. For j in 1..273 both words are still w's, so w[334−j] is
// x_j − w[607−j]: words 61–333. XORing out the generator part of seed 1
// leaves the table.
func deriveCooked() {
	ref := rand.NewSource(1).(rand.Source64)
	var x [rngLen + 1]uint64
	for j := 1; j <= rngLen; j++ {
		x[j] = ref.Uint64()
	}
	var w [rngLen]uint64
	for j := rngTap + 1; j <= rngLen; j++ {
		w[(rngFeed-j+rngLen)%rngLen] = x[j] - x[j-rngTap]
	}
	for j := 1; j <= rngTap; j++ {
		w[rngFeed-j] = x[j] - w[rngLen-j]
	}
	for i := range cooked {
		cooked[i] = w[i] ^ lehmerWord(1, i)
	}
}

// selfCheck panics unless a Source draws what rand.NewSource draws, at
// a seed other than the one the table came from, over more than two
// register lengths, through both Int63 and Uint64.
func selfCheck() {
	const seed, draws = -0x5eed, 2*rngLen + 1
	ref := rand.NewSource(seed).(rand.Source64)
	s := New(seed)
	for j := 0; j < draws; j++ {
		if j%2 == 0 {
			if a, b := s.Uint64(), ref.Uint64(); a != b {
				panic("lazyrand: Uint64 differs from math/rand")
			}
		} else if a, b := s.Int63(), ref.Int63(); a != b {
			panic("lazyrand: Int63 differs from math/rand")
		}
	}
}

// mulMod returns a·b mod lehmerM for a, b < 2³¹, folding the product's
// high bits onto its low ones (2³¹ ≡ 1 mod lehmerM).
func mulMod(a, b uint64) uint64 {
	x := a * b
	x = x&lehmerM + x>>31
	x = x&lehmerM + x>>31
	if x >= lehmerM {
		x -= lehmerM
	}
	return x
}

// lehmerWord returns register word i's generator part for normalized
// seed s: the Lehmer steps 3i+21, 3i+22 and 3i+23, shifted and XORed as
// math/rand combines them.
func lehmerWord(s uint64, i int) uint64 {
	k := 3*i + 21
	return mulMod(s, pow[k])<<40 ^ mulMod(s, pow[k+1])<<20 ^ mulMod(s, pow[k+2])
}

// Source is a rand.Source64 that draws exactly the stream of
// rand.NewSource with the same seed, building register words as draws
// reach them. Wrap it in rand.New: every Rand method then returns what
// it returns over rand.NewSource. A Source is not safe for concurrent
// use.
type Source struct {
	tap, feed int
	// edge is the lowest feed-range word built: words edge..333, and
	// the tap words 273 above them, hold this seeding's values. It is
	// 0 once the register is complete, so feed never falls below it.
	edge int
	seed uint64 // normalized to [1, lehmerM)
	vec  [rngLen]uint64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed implements rand.Source. It normalizes the seed as
// rand.NewSource does and builds no register word.
func (s *Source) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
	s.tap, s.feed, s.edge = 0, rngFeed, rngFeed
}

// build constructs the chunk of feed words below edge, and the initial
// tap words 273 above them, which the coming draws read. Tap words
// below 334 are feed words an earlier draw already rewrote.
func (s *Source) build() {
	lo := max(s.edge-chunk, 0)
	for i := lo; i < s.edge; i++ {
		s.vec[i] = lehmerWord(s.seed, i) ^ cooked[i]
	}
	for i := max(lo+rngTap, rngFeed); i < s.edge+rngTap; i++ {
		s.vec[i] = lehmerWord(s.seed, i) ^ cooked[i]
	}
	s.edge = lo
}

// Uint64 implements rand.Source64. Its body is math/rand's, plus the
// edge compare; Int63 repeats it rather than calling Uint64, which the
// compiler would not inline.
//
//rvlint:hotpath
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.feed < s.edge {
		s.build()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 implements rand.Source: Uint64's draw with the top bit cleared.
//
//rvlint:hotpath
func (s *Source) Int63() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.feed < s.edge {
		s.build()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return int64(x & rngMask)
}
