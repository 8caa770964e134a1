package campaign

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"safeplan/internal/sim"
)

// fixtureSpec is the campaign behind the checkpoint fixtures and the
// committed FuzzCheckpointLoad corpus: counting mode over the synthetic
// episode, so the aggregates carry an invariant-violation map.
func fixtureSpec() Spec {
	return Spec{
		Name: "torn", Episodes: 64, BaseSeed: 11, Shards: 4,
		Invariants:      []sim.Invariant{sim.NoCollision{}},
		CountViolations: true,
	}
}

var errStopFixture = errors.New("fixture: stop mid-shard")

// checkpointFixtures returns the encoded bytes of the two kinds of file
// the format holds: "coordinator" has completed shards 0 and 2 of the
// fixture campaign (a sparse mid-campaign snapshot, as Run and the dist
// coordinator write it); "worker" has shard 1 stopped before episode 23
// (a dist worker's mid-shard resume point).
func checkpointFixtures(t *testing.T) map[string][]byte {
	t.Helper()
	spec := fixtureSpec()
	done := make(map[int]*ShardStats)
	for _, shard := range []int{0, 2} {
		agg := &ShardStats{}
		lo, _ := spec.ShardRange(shard)
		if err := RunShard(spec, syntheticEpisode, shard, lo, agg, nil); err != nil {
			t.Fatal(err)
		}
		done[shard] = agg
	}
	partial := &PartialShard{Shard: 1, Stats: &ShardStats{}}
	lo, _ := spec.ShardRange(1)
	err := RunShard(spec, syntheticEpisode, 1, lo, partial.Stats, func(next int) error {
		partial.NextEpisode = next
		if next == 23 {
			return errStopFixture
		}
		return nil
	})
	if !errors.Is(err, errStopFixture) {
		t.Fatalf("partial fixture: %v", err)
	}
	out := make(map[string][]byte)
	for name, ck := range map[string]Checkpoint{
		"coordinator": {Shards: done},
		"worker":      {Partial: partial},
	} {
		raw, err := encodeCheckpoint(spec.Fingerprint(), ck)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = raw
	}
	return out
}

// loadDamaged decodes damaged checkpoint bytes and fails the test unless
// the outcome is one of the three the format allows: ErrCorruptCheckpoint,
// the fingerprint-mismatch error, or a clean load DeepEqual to the intact
// file.
func loadDamaged(t *testing.T, raw []byte, fp Fingerprint, want Checkpoint, what string) {
	t.Helper()
	got, err := func() (ck Checkpoint, err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: loader panicked: %v", what, r)
			}
		}()
		return decodeCheckpoint("damaged.json", raw, fp)
	}()
	switch {
	case err == nil:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: damaged file loaded without error and differs from the intact file", what)
		}
	case errors.Is(err, ErrCorruptCheckpoint):
		// Callers discard the file and recompute.
	case strings.Contains(err.Error(), "belongs to campaign"):
		// An intact file of another campaign: refused loudly.
	default:
		t.Fatalf("%s: unexpected error %v", what, err)
	}
}

// TestCheckpointTornWriteRecovery simulates a torn write at every byte
// offset of both fixtures.  WriteFileAtomic makes torn writes unreachable
// through the normal save path (temp write + fsync + rename + directory
// fsync); this covers the hostile leftovers that crashes, failing disks,
// and the chaos harness can still produce.
func TestCheckpointTornWriteRecovery(t *testing.T) {
	fp := fixtureSpec().Fingerprint()
	for name, raw := range checkpointFixtures(t) {
		want, err := decodeCheckpoint(name, raw, fp)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(raw); cut++ {
			loadDamaged(t, raw[:cut], fp, want, fmt.Sprintf("%s: cut at %d/%d", name, cut, len(raw)))
		}
	}
}

// TestCheckpointBitFlipRecovery damages both fixtures at every position:
// every decimal digit is bumped by one (the value-level damage JSON
// decoding alone cannot see), and every bit of every byte is flipped.
// No damaged file may load aggregates that differ from the intact file.
func TestCheckpointBitFlipRecovery(t *testing.T) {
	fp := fixtureSpec().Fingerprint()
	for name, raw := range checkpointFixtures(t) {
		want, err := decodeCheckpoint(name, raw, fp)
		if err != nil {
			t.Fatal(err)
		}
		bumps := 0
		mut := append([]byte(nil), raw...)
		for i, b := range raw {
			if b >= '0' && b <= '9' {
				mut[i] = '0' + (b-'0'+1)%10
				bumps++
				loadDamaged(t, mut, fp, want, fmt.Sprintf("%s: digit bump at %d", name, i))
			}
			for bit := 0; bit < 8; bit++ {
				mut[i] = b ^ 1<<bit
				loadDamaged(t, mut, fp, want, fmt.Sprintf("%s: flip of bit %d at %d", name, bit, i))
			}
			mut[i] = b
		}
		if bumps == 0 {
			t.Fatalf("%s: fixture has no digits to bump", name)
		}
	}
}

// FuzzCheckpointLoad feeds arbitrary bytes to the checkpoint loader under
// the fixtures' fingerprint.  The loader must never panic, and anything
// it loads cleanly must survive a save and reload unchanged.  The
// committed corpus holds both fixtures' encodings, the coordinator
// fixture torn in half, and a version 3 file of the same campaign.
func FuzzCheckpointLoad(f *testing.F) {
	fp := fixtureSpec().Fingerprint()
	f.Fuzz(func(t *testing.T, raw []byte) {
		ck, err := decodeCheckpoint("fuzz.json", raw, fp)
		if err != nil {
			return
		}
		again, err := encodeCheckpoint(fp, ck)
		if err != nil {
			t.Fatalf("save of a clean load: %v", err)
		}
		back, err := decodeCheckpoint("fuzz.json", again, fp)
		if err != nil {
			t.Fatalf("reload of a saved clean load: %v", err)
		}
		if !reflect.DeepEqual(back, ck) {
			t.Fatalf("round trip changed the checkpoint:\nloaded: %+v\nreloaded: %+v", ck, back)
		}
	})
}

// TestWriteFileAtomicReplaces pins the atomic-replace contract: the
// target is fully replaced, no temp files survive, and the write is
// readable back byte-for-byte.
func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "second" {
		t.Fatalf("read %q, want %q", raw, "second")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d directory entries after atomic writes, want 1 (no temp leftovers)", len(entries))
	}
}
