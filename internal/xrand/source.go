// Package xrand provides a bit-exact reimplementation of Go's math/rand
// generator (the additive lagged-Fibonacci rngSource) whose seeding can be
// batched: SeedMany initializes many independent sources in one pass,
// interleaving their recurrence chains so the CPU pipelines them.
//
// Why this exists: seeding one math/rand source walks a 607-entry bootstrap
// recurrence — three serial modular multiplications per entry — and costs
// ~10µs, which the profile shows is over half of a whole simulation episode.
// The scalar left-turn stepper (sim.Stepper) is the consumer: it draws the
// seeds of its five or six purpose-specific streams from the episode master
// first, then seeds all of their sources through one SeedMany call, so the
// independent chains overlap and the per-seed latency is hidden.  That is
// only sound if a Source-backed *rand.Rand draws exactly what a
// rand.NewSource-backed one would — hence the bit-exact replica, pinned by
// TestSourceMatchesMathRand.
package xrand

const (
	rngLen   = 607
	rngTap   = 273
	rngMax   = 1 << 63
	rngMask  = rngMax - 1
	int32max = (1 << 31) - 1
)

// Source is a drop-in rand.Source64 producing exactly the stream of
// math/rand's rngSource for the same seed.  The zero value is not seeded;
// call Seed (or NewSource / SeedMany) before drawing.
type Source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

// NewSource returns a seeded Source, equivalent to rand.NewSource.
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// seedrand advances the bootstrap recurrence x[n+1] = 48271·x[n] mod 2³¹−1
// (Schrage's method, as in math/rand).
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
// would produce for the same seed.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	x := normSeed(seed)
	for i := -20; i < rngLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			u := int64(x) << 40
			x = seedrand(x)
			u ^= int64(x) << 20
			x = seedrand(x)
			u ^= int64(x)
			u ^= rngCooked[i]
			s.vec[i] = u
		}
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
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// seedLanes is how many bootstrap chains SeedMany interleaves per block.
// Each chain is a serial dependency of modular multiplications; eight
// independent chains keep a wide core's multipliers busy without spilling
// the live x values out of registers.
const seedLanes = 8

// SeedMany seeds dst[i] with seeds[i] for every i, producing states
// identical to calling dst[i].Seed(seeds[i]) one by one, but several times
// faster: the bootstrap chains of up to seedLanes sources advance in
// lockstep inside one loop, so their serial multiply latencies overlap.
// The two slices must have equal length.
func SeedMany(dst []*Source, seeds []int64) {
	if len(dst) != len(seeds) {
		panic("xrand: SeedMany length mismatch")
	}
	for base := 0; base < len(dst); base += seedLanes {
		k := len(dst) - base
		if k > seedLanes {
			k = seedLanes
		}
		if k == 1 {
			dst[base].Seed(seeds[base])
			continue
		}
		var x [seedLanes]int32
		for j := 0; j < k; j++ {
			s := dst[base+j]
			s.tap = 0
			s.feed = rngLen - rngTap
			x[j] = normSeed(seeds[base+j])
		}
		// Bootstrap warm-up: the 20 discarded iterations of Seed's loop.
		for i := 0; i < 20; i++ {
			for j := 0; j < k; j++ {
				x[j] = seedrand(x[j])
			}
		}
		for i := 0; i < rngLen; i++ {
			c := rngCooked[i]
			for j := 0; j < k; j++ {
				x0 := seedrand(x[j])
				u := int64(x0) << 40
				x1 := seedrand(x0)
				u ^= int64(x1) << 20
				x2 := seedrand(x1)
				u ^= int64(x2)
				x[j] = x2
				dst[base+j].vec[i] = u ^ c
			}
		}
	}
}
