// Package xrand provides a bit-exact reimplementation of Go's math/rand
// generator (the additive lagged-Fibonacci rngSource) whose seeding is
// nearly free, and New, the constructor every random stream of the
// stepping packages is built with.
//
// Why this exists: seeding one math/rand source walks a 607-entry bootstrap
// recurrence, x[n+1] = 48271·x[n] mod 2³¹−1, three serial Schrage steps per
// entry, and costs ~12µs.  Every episode seeds eight or more streams, so
// seeding dominated a stepper's set-up.  This Source computes each
// bootstrap position directly from the seed instead,
// x[k] = x[0]·48271^k mod 2³¹−1, with the powers precomputed at init: the
// three multiplications of an entry no longer depend on each other or on
// the previous entry, so the CPU pipelines them.  And it computes them
// lazily: Seed only stores the normalized seed, and each draw fills the
// bootstrap entries it is about to read, a chunk at a time, so a stream an
// episode never draws from costs nothing and one that draws a handful of
// values fills a handful of chunks.  That is only sound if a
// Source-backed *rand.Rand draws exactly what a rand.NewSource-backed one
// would — hence the bit-exact replica, pinned by TestSourceMatchesMathRand
// and TestReseedAfterDrawsMatchesFresh.
package xrand

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMax   = 1 << 63
	rngMask  = rngMax - 1
	int32max = (1 << 31) - 1

	// rngFeed is where feed starts after seeding (tap starts at 0).  Draw
	// k < rngFeed reads vec[rngFeed−1−k] on the feed side and
	// vec[rngLen−1−k] on the tap side, so the first rngFeed draws read
	// every entry once before any entry is read twice.
	rngFeed = rngLen - rngTap
	// fillChunk is how many feed-side entries (and their tap-side
	// partners) one lazy fill computes.
	fillChunk = 16
)

// Source is a drop-in rand.Source64 producing exactly the stream of
// math/rand's rngSource for the same seed.  The zero value is not seeded;
// call Seed (or NewSource) before drawing.
type Source struct {
	tap  int
	feed int
	// lo is the lowest feed-side entry filled since the last Seed: entries
	// [lo, rngFeed) and their tap-side partners [lo+rngTap, rngLen) hold
	// the bootstrap values (or the draws since), the rest are stale.  The
	// table is complete once lo reaches 0, after rngFeed draws; from then
	// on feed < lo means only that feed wrapped.
	lo  int
	x   uint64 // normalized seed, x[0] of the bootstrap chain
	vec [rngLen]int64
}

// NewSource returns a seeded Source, equivalent to rand.NewSource.
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// New returns a *rand.Rand drawing exactly the stream of
// rand.New(rand.NewSource(seed)).  Reseeding it in place (rand.Rand.Seed)
// reuses the Source and stays bit-identical to a fresh one.
func New(seed int64) *rand.Rand { return rand.New(NewSource(seed)) }

// seedrand advances the bootstrap recurrence x[n+1] = 48271·x[n] mod 2³¹−1
// (Schrage's method, as in math/rand).  Only the init of jump and the
// tests walk the chain serially.
func seedrand(x int32) int32 {
	const (
		a = 48271
		q = 44488
		r = 3399
	)
	hi := x / q
	lo := x % q
	x = a*lo - r*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// jump[i][j] = 48271^(21+3i+j) mod 2³¹−1: the multiplier that carries the
// normalized seed x[0] to the chain position rngSource.Seed reads for the
// j-th part of bootstrap entry i (20 warm-up steps are discarded, then
// every entry consumes three positions).
var jump [rngLen][3]uint64

func init() {
	x := int32(1) // x[k] = 48271^k on the chain started at 1
	for i := 0; i < 20; i++ {
		x = seedrand(x)
	}
	for i := range jump {
		for j := range jump[i] {
			x = seedrand(x)
			jump[i][j] = uint64(x)
		}
	}
}

// mulmod returns x·m mod 2³¹−1 for x, m in [1, 2³¹−2].  The product is
// below 2⁶², and 2³¹ ≡ 1, so folding the high bits onto the low 31 twice
// reduces it exactly: the first fold leaves at most 2³²−2, the second at
// most 2³¹−1, and that value would mean x·m ≡ 0, impossible for a prime
// modulus.  The result is the value Schrage's method produces.
func mulmod(x, m uint64) int64 {
	p := x * m
	r := p&int32max + p>>31
	return int64(r&int32max + r>>31)
}

// normSeed folds an arbitrary int64 seed into the generator's nonzero
// 31-bit bootstrap domain, exactly as rngSource.Seed does.
func normSeed(seed int64) int32 {
	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return int32(seed)
}

// Seed initializes the generator to the deterministic state rand.NewSource
// would produce for the same seed.  It only records the normalized seed;
// the bootstrap table is filled on demand by the draws (see fill).
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngFeed
	s.lo = rngFeed
	s.x = uint64(normSeed(seed))
}

// refeed is Uint64's slow path, taken when feed has fallen below lo:
// either the table is complete and feed wrapped, or the draw is about to
// read entries not yet filled.
func (s *Source) refeed() {
	if s.feed < 0 {
		s.feed += rngLen
		return
	}
	s.fill()
}

// fill computes the next chunk of bootstrap entries below lo: the
// feed-side entries [lo−fillChunk, lo) and their tap-side partners
// rngTap above, skipping partners below rngFeed — those are feed-side
// entries, filled by an earlier chunk and possibly already overwritten
// by a draw.  rngSource.Seed walks the chain x[k+1] = 48271·x[k]
// mod 2³¹−1 from x[0] = normSeed(seed); since the modulus is prime and
// x[0] ≠ 0, x[k] = x[0]·48271^k mod 2³¹−1 exactly, and each entry reads
// its three positions through jump.
func (s *Source) fill() {
	hi := s.lo
	lo := max(hi-fillChunk, 0)
	s.fillRange(lo, hi)
	s.fillRange(max(lo+rngTap, rngFeed), hi+rngTap)
	s.lo = lo
}

// fillRange writes the seeded bootstrap values of entries [lo, hi).
func (s *Source) fillRange(lo, hi int) {
	x := s.x
	for i := lo; i < hi; i++ {
		m := &jump[i]
		u := mulmod(x, m[0]) << 40
		u ^= mulmod(x, m[1]) << 20
		u ^= mulmod(x, m[2])
		s.vec[i] = u ^ rngCooked[i]
	}
}

// Int63 returns the next non-negative 63-bit integer of the stream.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns the next 64-bit value of the stream.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < s.lo {
		s.refeed()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
