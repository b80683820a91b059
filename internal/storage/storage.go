// Package storage is the durability substrate of the SMR stack: a
// write-ahead log of decided consensus instances plus a snapshot store,
// behind one Backend interface that Disk implements — a CRC-framed,
// fsync-batched WAL plus atomic, digest-verified, full checkpoint files in
// one directory per replica. A restart opens that directory again:
// OpenDisk's recovery (header check, CRC scan, torn-tail truncation,
// checkpoint index) is the only way back to what was durable, at every
// start of a node.
//
// The division of labour with the layers above:
//
//   - Decisions are appended write-ahead: the SMR layer calls AppendWAL the
//     moment an instance's decision is known — before the decided batch is
//     applied to the state machine — so a replica that loses power
//     mid-apply replays the decision instead of forgetting it. Appends are
//     idempotent per instance (decisions are final; re-delivery and replay
//     re-appends are dropped) and may arrive out of instance order
//     (pipelined instances decide out of order); replay preserves append
//     order and leaves reordering to the commit queue.
//
//   - Checkpoints truncate: when a snapshot manager persists a checkpoint
//     at instance k — once the commands decided since its last durable
//     checkpoint reach that checkpoint's state size, not at every in-memory
//     boundary — it calls SaveSnapshot then TruncateWAL(k), so the WAL only
//     ever holds the window between the newest durable checkpoint and the
//     head.
//     Truncation is synchronous: Disk rewrites the log as the records
//     above k, found through an in-memory index of record offsets, before
//     TruncateWAL returns. Recovery is LoadSnapshot + ReplayWAL, in that
//     order.
//
//   - Verification is local: LoadSnapshot returns only digest-verified
//     checkpoints and ReplayWAL only CRC-clean records. Cross-replica
//     verification (b+1 matching digests against forged state) remains the
//     transfer layer's job — a replica's own disk is trusted the way its
//     own memory is, but bit rot and torn writes are not.
package storage

import (
	"errors"

	"genconsensus/internal/model"
	"genconsensus/internal/snapshot"
)

// Backend is one replica's durable storage: the write-ahead decision log
// and the checkpoint store. Implementations are safe for concurrent use.
type Backend interface {
	// AppendWAL durably records instance's decided value. Idempotent per
	// retained instance: re-appends of an instance still in the log are
	// dropped without error. Instances already truncated beneath a
	// checkpoint are forgotten — keeping them out of the WAL is the
	// caller's job (the commit-queue watermark never delivers below the
	// installed checkpoint).
	AppendWAL(instance uint64, value model.Value) error
	// ReplayWAL visits every retained record in append order (which may
	// not be instance order — see the package comment). A non-nil error
	// from fn aborts the replay and is returned.
	ReplayWAL(fn func(instance uint64, value model.Value) error) error
	// TruncateWAL drops every record with instance ≤ through — the records
	// a checkpoint at `through` covers. The drop is immediate and physical:
	// when it returns, ReplayWAL, the append dedup filter and (for Disk)
	// the log file hold only the surviving records. Disk pays for it by
	// rewriting the survivors — the few decisions logged ahead of the
	// checkpoint — not the whole log.
	TruncateWAL(through uint64) error
	// SaveSnapshot durably records a checkpoint. Snapshots at or below the
	// newest stored checkpoint are dropped without error.
	SaveSnapshot(snap *snapshot.Snapshot) error
	// LoadSnapshot returns the newest verified checkpoint, or ok=false
	// when none is stored (or none survives verification).
	LoadSnapshot() (snap *snapshot.Snapshot, ok bool, err error)
	// Close syncs and releases the backend. The backend is unusable after.
	Close() error
}

// ErrClosed reports an operation on a closed backend.
var ErrClosed = errors.New("storage: backend closed")
