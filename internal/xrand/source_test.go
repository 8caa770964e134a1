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
// (and every random stream of the stepping packages) rests on this.  The
// raw stream runs past two full turns of the table, so it covers every
// lazy fill, the end of the bootstrap after rngFeed draws, and both
// indices wrapping.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range seedCases() {
		ours := NewSource(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 2*rngLen+rngTap; i++ {
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

// TestJumpMatchesSerialChain pins the jump-ahead table: jump[i][j] is the
// position of seedrand's chain (started at 1, so x[k] = 48271^k) that the
// serial bootstrap reads for part j of entry i — after the 20 discarded
// warm-up steps, three steps per entry.
func TestJumpMatchesSerialChain(t *testing.T) {
	x := int32(1)
	for i := -20; i < rngLen; i++ {
		x = seedrand(x)
		if i < 0 {
			continue
		}
		for j := 0; j < 3; j++ {
			if j > 0 {
				x = seedrand(x)
			}
			if got := jump[i][j]; got != uint64(x) {
				t.Fatalf("jump[%d][%d] = %d, want chain position %d = %d", i, j, got, 21+3*i+j, x)
			}
		}
	}
}

// TestReseedInPlaceMatchesFresh pins the pooling law the stepping packages
// rely on (sim.Scratch.RNG and comms.Channel.Reset reseed their streams in
// place): a Source-backed *rand.Rand reseeded after partial draws — of
// every draw kind, including the cached NormFloat64/Read paths — draws
// exactly the stream of a fresh rand.NewSource.
func TestReseedInPlaceMatchesFresh(t *testing.T) {
	pooled := New(1)
	buf := make([]byte, 3)
	for _, seed := range seedCases() {
		// Leave the pooled stream mid-flight: tap/feed off their seeded
		// positions and a partially consumed Read value.
		for i := 0; i < int(uint64(seed)%23); i++ {
			pooled.Float64()
			pooled.NormFloat64()
		}
		pooled.Read(buf)
		pooled.Seed(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			if g, w := pooled.Float64(), ref.Float64(); g != w {
				t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, i, g, w)
			}
			if g, w := pooled.Int63n(1000), ref.Int63n(1000); g != w {
				t.Fatalf("seed %d draw %d: Int63n = %d, want %d", seed, i, g, w)
			}
			if g, w := pooled.NormFloat64(), ref.NormFloat64(); g != w {
				t.Fatalf("seed %d draw %d: NormFloat64 = %v, want %v", seed, i, g, w)
			}
		}
		var gb, wb [5]byte
		pooled.Read(gb[:])
		ref.Read(wb[:])
		if gb != wb {
			t.Fatalf("seed %d: Read = %v, want %v", seed, gb, wb)
		}
	}
}

// TestReseedAfterDrawsMatchesFresh pins lazy seeding under reuse, the
// sim.Scratch.RNG pool pattern: one Source reseeded after k draws —
// none, inside the first fill chunk, on and around chunk boundaries, on
// either side of the end of the bootstrap (rngFeed draws) and after a
// wrap — must draw exactly the stream of a fresh rand.NewSource, with no
// stale entry of the previous seed's table read.
func TestReseedAfterDrawsMatchesFresh(t *testing.T) {
	src := NewSource(1)
	seeds := seedCases()
	for _, k := range []int{0, 1, fillChunk - 1, fillChunk, fillChunk + 1, rngFeed - 1, rngFeed, 700} {
		for j, seed := range seeds[:40] {
			src.Seed(seeds[len(seeds)-1-j])
			for i := 0; i < k; i++ {
				src.Uint64()
			}
			src.Seed(seed)
			ref := rand.NewSource(seed).(rand.Source64)
			for i := 0; i < 2*rngLen; i++ {
				if g, w := src.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("after %d draws, reseed %d draw %d: Uint64 = %d, want %d", k, seed, i, g, w)
				}
			}
		}
	}
}

func BenchmarkSeed(b *testing.B) {
	s := &Source{}
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}

// BenchmarkSeedDraw16 is the cost of a stream that is seeded and then
// draws 16 values: Seed plus one lazy fill chunk.
func BenchmarkSeedDraw16(b *testing.B) {
	s := &Source{}
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
		for j := 0; j < fillChunk; j++ {
			s.Uint64()
		}
	}
}

// BenchmarkSeedDrawAll is the cost of a stream that is seeded and then
// draws until its bootstrap table is complete.
func BenchmarkSeedDrawAll(b *testing.B) {
	s := &Source{}
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
		for j := 0; j < rngFeed; j++ {
			s.Uint64()
		}
	}
}

// BenchmarkSeedMathRand is the reference cost Seed replaces.
func BenchmarkSeedMathRand(b *testing.B) {
	s := rand.NewSource(0)
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}
