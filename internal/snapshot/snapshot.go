// Package snapshot defines the durable-checkpoint substrate for SMR log
// compaction and crash recovery: a Snapshot pairs a deterministic encoding
// of the application state with the consensus watermark it covers, so that
// a replica can discard its log prefix (compaction) and a crashed or
// lagging replica can re-enter the pipeline at the watermark instead of
// replaying history that no longer exists (state transfer).
//
// Determinism is the load-bearing property: honest replicas that committed
// the same instance prefix must produce byte-identical snapshots, so that
// snapshot digests can be compared across replicas. The transport layer
// exploits this to defend joiners against forged state: a snapshot is
// installed only when b+1 peers present the same digest, which guarantees
// at least one honest source under the Byzantine budget b.
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Snapshotter is implemented by state machines whose state can be
// checkpointed. The encoding must be deterministic: two replicas that
// applied the same command sequence return byte-identical encodings, and
// RestoreState(SnapshotState()) is an identity.
type Snapshotter interface {
	// SnapshotState returns a deterministic encoding of the full
	// application state (including any duplicate-suppression tables). It
	// costs O(state) and is called only when someone needs the bytes —
	// state transfer, a durable backend — never per checkpoint.
	SnapshotState() []byte
	// RestoreState replaces the application state with a decoded snapshot.
	RestoreState(data []byte) error
	// Fork returns an independent copy of the state machine: same state,
	// same configuration, the same optional interfaces (Apply), and
	// no mutable structure shared with the receiver. The snapshot manager
	// keeps one as the checkpoint's shadow and advances it by replaying the
	// decided log, so a fork fed the commands its origin applied must stay
	// byte-identical to it under SnapshotState. (An interface result only
	// because Go has no covariant returns.)
	Fork() Snapshotter
}

// Snapshot is one durable checkpoint.
type Snapshot struct {
	// LastInstance is the consensus-instance watermark: every instance up
	// to and including it is reflected in State. A recovering replica
	// rejoins the pipeline at LastInstance+1.
	LastInstance uint64
	// LogIndex is the number of log commands State covers: the global log
	// index at which the post-snapshot log resumes.
	LogIndex uint64
	// State is the Snapshotter encoding of the application state.
	State []byte
}

// magic prefixes every encoded snapshot (versioned).
const magic = "GCSNAP1\n"

// MaxStateBytes bounds the state payload a decoder will accept (64 MiB),
// protecting receivers from hostile length prefixes.
const MaxStateBytes = 64 << 20

// Errors returned by the codec.
var (
	ErrMalformed = errors.New("snapshot: malformed encoding")
	ErrTooLarge  = errors.New("snapshot: state exceeds MaxStateBytes")
)

// AppendSnapshot appends the deterministic serialization of s to dst and
// returns the extended slice (the repo-wide append codec convention):
//
//	enc := magic lastInstance(u64) logIndex(u64) stateLen(u32) state
//
// (big endian). Identical snapshots encode identically everywhere.
func AppendSnapshot(dst []byte, s *Snapshot) []byte {
	dst = append(dst, magic...)
	dst = binary.BigEndian.AppendUint64(dst, s.LastInstance)
	dst = binary.BigEndian.AppendUint64(dst, s.LogIndex)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s.State)))
	dst = append(dst, s.State...)
	return dst
}

// Encode serializes a snapshot into a fresh buffer.
//
// Deprecated: use AppendSnapshot to reuse a caller-owned buffer.
func Encode(s *Snapshot) []byte {
	return AppendSnapshot(make([]byte, 0, len(magic)+20+len(s.State)), s)
}

// Decode parses an Encode result, rejecting truncated, oversized or
// trailing-byte encodings (a forged snapshot must not be ambiguous).
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+20 {
		return nil, fmt.Errorf("%w: %d bytes", ErrMalformed, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrMalformed)
	}
	rest := data[len(magic):]
	s := &Snapshot{
		LastInstance: binary.BigEndian.Uint64(rest[0:8]),
		LogIndex:     binary.BigEndian.Uint64(rest[8:16]),
	}
	stateLen := binary.BigEndian.Uint32(rest[16:20])
	if stateLen > MaxStateBytes {
		return nil, fmt.Errorf("%w: %d state bytes", ErrTooLarge, stateLen)
	}
	rest = rest[20:]
	if len(rest) != int(stateLen) {
		return nil, fmt.Errorf("%w: state length %d, have %d", ErrMalformed, stateLen, len(rest))
	}
	s.State = append([]byte(nil), rest...)
	return s, nil
}

// Digest returns the SHA-256 digest of the snapshot's encoding: the value
// replicas compare to verify a transferred snapshot against b+1 peers.
func Digest(s *Snapshot) [32]byte {
	return sha256.Sum256(AppendSnapshot(nil, s))
}
