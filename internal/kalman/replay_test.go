package kalman

import (
	"math/rand"
	"testing"

	"safeplan/internal/mat"
)

// applyLinear is the reference ApplyMessage: it scans the whole history
// and replays every record newer than tk.
func applyLinear(f *Filter, tk, p, v, a float64) {
	f.initialized = true
	f.tf = tk
	f.xf = mat.Vec2{X: p, Y: v}
	f.pf = mat.Diag2(1e-12, 1e-12)
	f.lastA = a
	for _, rec := range f.hist {
		if rec.t > tk {
			f.step(rec.t, rec.z, rec.a)
		}
	}
}

// sameFilter reports whether two filters hold bit-identical state.
func sameFilter(a, b *Filter) bool {
	if a.initialized != b.initialized || a.tf != b.tf || a.xf != b.xf ||
		a.pf != b.pf || a.lastA != b.lastA || len(a.hist) != len(b.hist) {
		return false
	}
	for i := range a.hist {
		if a.hist[i] != b.hist[i] {
			return false
		}
	}
	return true
}

// messageTime picks a message timestamp relative to the history: below
// every record, equal to a record (duplicates included), between two
// records, equal to the newest, or above every record.
func messageTime(rng *rand.Rand, hist []record, now float64) float64 {
	if len(hist) == 0 {
		return now - rng.Float64()
	}
	k := rng.Intn(len(hist))
	switch rng.Intn(5) {
	case 0:
		return hist[0].t - 0.01 - rng.Float64()
	case 1:
		return hist[k].t
	case 2:
		if k+1 < len(hist) {
			return (hist[k].t + hist[k+1].t) / 2
		}
		return hist[k].t
	case 3:
		return hist[len(hist)-1].t
	default:
		return hist[len(hist)-1].t + 0.01 + rng.Float64()*0.2
	}
}

// TestApplyMessageMatchesLinearScan is the property behind ApplyMessage's
// binary search: on random interleavings of measurements (with repeated
// timestamps) and messages at every position relative to the history,
// the indexed replay leaves the filter bit-identical to a full scan.  A
// short history puts every length between push's half-compaction and the
// bound in play, and the test checks that messages land on both edges.
func TestApplyMessageMatchesLinearScan(t *testing.T) {
	const histLen = 8
	atFull, atCompacted := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{DeltaP: 1, DeltaV: 0.5, DeltaA: 0.3, HistoryLen: histLen}
		got, want := New(cfg), New(cfg)
		if seed%2 == 0 {
			got.InitExact(0, 0, 8, 0)
			want.InitExact(0, 0, 8, 0)
		}
		for op := 0; op < 120; op++ {
			if rng.Intn(3) == 0 {
				tk := messageTime(rng, got.hist, got.tf)
				p, v, a := rng.Float64()*50, rng.Float64()*15, rng.Float64()*2-1
				switch len(got.hist) {
				case histLen:
					atFull++
				case histLen / 2:
					atCompacted++
				}
				got.ApplyMessage(tk, p, v, a)
				applyLinear(want, tk, p, v, a)
			} else {
				dt := 0.0 // repeated timestamp
				if rng.Intn(4) != 0 {
					dt = 0.05 + 0.1*rng.Float64()
				}
				tm := got.tf + dt
				zp, zv, za := rng.Float64()*50, rng.Float64()*15, rng.Float64()*2-1
				if err := got.Update(tm, zp, zv, za); err != nil {
					t.Fatal(err)
				}
				if err := want.Update(tm, zp, zv, za); err != nil {
					t.Fatal(err)
				}
			}
			if !sameFilter(got, want) {
				t.Fatalf("seed %d op %d: indexed replay diverged from the linear scan", seed, op)
			}
			for i := 1; i < len(got.hist); i++ {
				if got.hist[i].t < got.hist[i-1].t {
					t.Fatalf("seed %d op %d: history not time-ordered at %d", seed, op, i)
				}
			}
		}
	}
	if atFull == 0 || atCompacted == 0 {
		t.Fatalf("messages at full history %d, right after compaction %d: boundary not exercised", atFull, atCompacted)
	}
}
