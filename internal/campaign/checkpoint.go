package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// checkpointVersion guards the on-disk layout.  Version 3 moved
// counting-mode invariant tallies into the per-shard aggregate; version 4
// merged the distributed worker's mid-shard resume point into the same
// file (Checkpoint.Partial) and added the SHA-256 sum over the content.
// Older versions are rejected as ErrCorruptCheckpoint rather than
// migrated: without a sum their values cannot be trusted.
const checkpointVersion = 4

// ErrCorruptCheckpoint marks a checkpoint file that cannot be trusted —
// truncated, bit-flipped, malformed, inconsistent with its own
// fingerprint, or written by an incompatible version.  Callers that
// prefer resilience over resumption can match it with errors.Is, discard
// the file, and start fresh (the aggregates are recomputable; see
// cmd/bench and the dist worker).  A *fingerprint* mismatch is
// deliberately NOT this error: a well-formed checkpoint from a different
// campaign means the caller asked to resume the wrong thing, and
// silently discarding it would hide the mistake.
var ErrCorruptCheckpoint = errors.New("campaign: corrupt checkpoint")

// Fingerprint identifies the campaign a checkpoint belongs to.  Resuming
// with a different fingerprint is refused: merging shard aggregates from a
// different seed range or partition would silently corrupt the statistics.
//
// The fingerprint deliberately excludes Workers (scheduling never affects
// the aggregates) and the configuration/agent (not serializable here) —
// callers that vary those should vary Name or the checkpoint path.
type Fingerprint struct {
	Name     string `json:"name"`
	Episodes int    `json:"episodes"`
	BaseSeed int64  `json:"base_seed"`
	Shards   int    `json:"shards"`
}

// Fingerprint derives the campaign identity a checkpoint (or a
// distributed shard result) must match before its aggregates may fold in.
func (s Spec) Fingerprint() Fingerprint {
	return Fingerprint{Name: s.Name, Episodes: s.Episodes, BaseSeed: s.BaseSeed, Shards: s.shards()}
}

// Checkpoint is the content of a checkpoint file.  Run, the distributed
// coordinator and cmd/bench -checkpoint persist completed shards; a
// distributed worker persists only its partial shard.  The format
// carries no topology, so a file written by one runner resumes under
// another.
type Checkpoint struct {
	// Shards maps shard index to its completed aggregate.  JSON writes the
	// indices as decimal object keys, so partial campaigns stay sparse.
	Shards map[int]*ShardStats `json:"shards,omitempty"`
	// Partial is a mid-shard resume point, or nil.
	Partial *PartialShard `json:"partial,omitempty"`
}

// PartialShard is the aggregate of episodes [lo, NextEpisode) of one
// shard.  RunShard folds episodes in index order, so continuing it from
// NextEpisode yields a shard aggregate byte-identical to an
// uninterrupted run.
type PartialShard struct {
	Shard       int         `json:"shard"`
	NextEpisode int         `json:"next_episode"`
	Stats       *ShardStats `json:"stats"`
}

// checkpointFile is the on-disk layout.  Sum is the SHA-256 of the
// compact JSON encoding of every other field.  JSON decoding alone only
// catches structural damage: a bit flip inside a number parses fine and
// resumes plausible-but-wrong aggregates.  The sum turns any damage that
// changes a decoded value into ErrCorruptCheckpoint.
type checkpointFile struct {
	Version     int         `json:"version"`
	Fingerprint Fingerprint `json:"fingerprint"`
	Checkpoint
	Sum string `json:"sum"`
}

// LoadCheckpoint reads the checkpoint at path for the fingerprint.  A
// missing file is an empty Checkpoint, not an error.  A file that is not
// byte for byte what SaveCheckpoint writes for its content (torn,
// damaged, a wrong sum, another version), or that names a shard or next
// episode outside the fingerprint's partition, is ErrCorruptCheckpoint;
// an intact file of a different campaign is a distinct error.
func LoadCheckpoint(path string, fp Fingerprint) (Checkpoint, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Checkpoint{}, nil
	}
	if err != nil {
		return Checkpoint{}, fmt.Errorf("campaign: read checkpoint: %w", err)
	}
	return decodeCheckpoint(path, raw, fp)
}

// decodeCheckpoint is LoadCheckpoint after the read; path only labels
// errors.
func decodeCheckpoint(path string, raw []byte, fp Fingerprint) (Checkpoint, error) {
	corrupt := func(format string, args ...any) (Checkpoint, error) {
		return Checkpoint{}, fmt.Errorf("%w %s: %s", ErrCorruptCheckpoint, path, fmt.Sprintf(format, args...))
	}
	var cf checkpointFile
	if err := json.Unmarshal(raw, &cf); err != nil {
		return corrupt("%v", err)
	}
	if cf.Version != checkpointVersion {
		return corrupt("version %d, want %d", cf.Version, checkpointVersion)
	}
	// The file must be exactly what the saver writes for the decoded
	// content: that checks the sum, and it also refuses layout changes
	// the sum cannot see (an added empty map, a case-folded key), so a
	// clean load always round-trips unchanged.
	if canon, err := encodeCheckpoint(cf.Fingerprint, cf.Checkpoint); err != nil || !bytes.Equal(raw, canon) {
		return corrupt("bytes differ from the encoding of their content (checksum %.12s…)", cf.Sum)
	}
	if cf.Fingerprint != fp {
		return Checkpoint{}, fmt.Errorf("campaign: checkpoint %s belongs to campaign %+v, not %+v (delete it or change the path)",
			path, cf.Fingerprint, fp)
	}
	for i, agg := range cf.Shards {
		if i < 0 || i >= fp.Shards || agg == nil {
			return corrupt("shard %d outside [0, %d) or without stats", i, fp.Shards)
		}
	}
	if p := cf.Partial; p != nil {
		if p.Shard < 0 || p.Shard >= fp.Shards || p.Stats == nil {
			return corrupt("partial shard %d outside [0, %d) or without stats", p.Shard, fp.Shards)
		}
		if lo, hi := shardRange(fp.Episodes, fp.Shards, p.Shard); p.NextEpisode < lo || p.NextEpisode > hi {
			return corrupt("partial shard %d next episode %d outside [%d, %d]", p.Shard, p.NextEpisode, lo, hi)
		}
	}
	return cf.Checkpoint, nil
}

// SaveCheckpoint persists ck for the fingerprint atomically and durably
// (WriteFileAtomic).
func SaveCheckpoint(path string, fp Fingerprint, ck Checkpoint) error {
	raw, err := encodeCheckpoint(fp, ck)
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, raw)
}

// encodeCheckpoint is SaveCheckpoint before the write.
func encodeCheckpoint(fp Fingerprint, ck Checkpoint) ([]byte, error) {
	cf := checkpointFile{Version: checkpointVersion, Fingerprint: fp, Checkpoint: ck}
	content, err := json.Marshal(cf)
	if err != nil {
		return nil, err
	}
	h := sha256.Sum256(content)
	cf.Sum = hex.EncodeToString(h[:])
	raw, err := json.MarshalIndent(cf, "", " ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// Checkpointer saves completed shards at a spec's checkpoint cadence:
// after every Spec.CheckpointEvery newly completed shards (every shard
// when 0), and always once the last shard is done.  Run and the
// distributed coordinator both save through it.  The zero value, like a
// spec without a CheckpointPath, never saves.
type Checkpointer struct {
	path  string
	fp    Fingerprint
	every int
	since int
}

// Checkpointer returns the spec's checkpoint cadence.
func (s Spec) Checkpointer() Checkpointer {
	return Checkpointer{path: s.CheckpointPath, fp: s.Fingerprint(), every: max(s.CheckpointEvery, 1)}
}

// ShardDone records that one more shard of done completed and saves done
// when the cadence is due.  The caller serializes calls and must not
// mutate done during one.
func (c *Checkpointer) ShardDone(done map[int]*ShardStats) error {
	if c.path == "" {
		return nil
	}
	c.since++
	if c.since < c.every && len(done) < c.fp.Shards {
		return nil
	}
	c.since = 0
	return SaveCheckpoint(c.path, c.fp, Checkpoint{Shards: done})
}

// WriteFileAtomic writes data to path atomically AND durably: it writes a
// temporary file in the same directory, fsyncs it, renames it over the
// target, and fsyncs the parent directory, so readers never observe a
// torn file, an interruption mid-write leaves the previous contents
// intact, and a completed write survives power loss (rename without a
// directory fsync may be rolled back by the journal; data without an
// fsync may be zeroes after the rename).  It is the persistence primitive
// behind every checkpoint, and cmd/bench routes its report/trace writes
// through it too.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("campaign: fsync %s: %w", dir, err)
	}
	return d.Close()
}
