package xrand

import (
	"math/rand"
	"testing"
)

// seedCases spans the seed-normalization branches (negative, zero, small,
// int32max multiples, large positive/negative) plus a pseudorandom spread.
func seedCases() []int64 {
	cases := []int64{
		0, 1, -1, 2, 42, 89482311,
		int32max, int32max + 1, -int32max, -int32max - 1,
		1 << 40, -(1 << 40), 1<<63 - 1, -(1<<63 - 1),
	}
	meta := rand.New(rand.NewSource(7))
	for len(cases) < 200 {
		cases = append(cases, meta.Int63()-meta.Int63())
	}
	return cases
}

// TestSourceMatchesMathRand pins the bit-exact equivalence law: for any
// seed, a Source produces exactly the Uint64/Int63 stream of
// rand.NewSource, and a Source-backed *rand.Rand draws exactly the same
// Float64/Int63n/NormFloat64 values.  Everything else in this package
// (and the scalar stepper's seeding fast path) rests on this.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range seedCases() {
		ours := NewSource(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 400; i++ {
			if g, w := ours.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %d, want %d", seed, i, g, w)
			}
		}

		// Through the *rand.Rand wrapper, mixing derived draw kinds.
		or := rand.New(NewSource(seed))
		rr := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			if g, w := or.Float64(), rr.Float64(); g != w {
				t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, i, g, w)
			}
			if g, w := or.Int63(), rr.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 = %d, want %d", seed, i, g, w)
			}
			if g, w := or.NormFloat64(), rr.NormFloat64(); g != w {
				t.Fatalf("seed %d draw %d: NormFloat64 = %v, want %v", seed, i, g, w)
			}
		}
	}
}

// TestSeedManyMatchesSeed pins the batching law: SeedMany(dst, seeds) is
// state-identical to seeding each source individually, for every block
// size around the interleave width (1, partial block, exact block,
// multiple blocks, ragged tail).
func TestSeedManyMatchesSeed(t *testing.T) {
	all := seedCases()
	for _, n := range []int{1, 2, 5, 8, 9, 16, 24, 31, 64} {
		seeds := all[:n]
		batch := make([]*Source, n)
		for i := range batch {
			batch[i] = &Source{}
		}
		SeedMany(batch, seeds)
		for i, seed := range seeds {
			want := NewSource(seed)
			if *batch[i] != *want {
				t.Fatalf("n=%d source %d (seed %d): SeedMany state differs from Seed", n, i, seed)
			}
		}
	}
}

// TestSeedManyReseeds verifies SeedMany fully overwrites prior state, as
// pooled steppers reseed the same sources episode after episode.
func TestSeedManyReseeds(t *testing.T) {
	srcs := []*Source{NewSource(1), NewSource(2), NewSource(3)}
	for _, s := range srcs {
		for i := 0; i < 17; i++ { // advance tap/feed off the seeded state
			s.Uint64()
		}
	}
	SeedMany(srcs, []int64{10, 11, 12})
	for i, s := range srcs {
		if want := NewSource(int64(10 + i)); *s != *want {
			t.Fatalf("source %d: reseeded state differs from fresh Seed", i)
		}
	}
}

func BenchmarkSeedScalar(b *testing.B) {
	s := &Source{}
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}

func BenchmarkSeedMany8(b *testing.B) {
	srcs := make([]*Source, 8)
	seeds := make([]int64, 8)
	for i := range srcs {
		srcs[i] = &Source{}
		seeds[i] = int64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SeedMany(srcs, seeds)
	}
}
