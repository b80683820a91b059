// Package storage is the durability substrate of the SMR stack: a
// write-ahead log of decided consensus instances plus a snapshot store,
// behind one Backend interface with two implementations — Memory (the
// default: everything dies with the process, exactly the pre-durability
// behaviour, and the simulator's stand-in for a disk image that survives a
// power cycle) and Disk (a CRC-framed, fsync-batched WAL plus atomic,
// digest-verified, full checkpoint files).
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
	"sync"

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
	// Sync flushes any batched writes to stable storage.
	Sync() error
	// Close syncs and releases the backend. The backend is unusable after.
	Close() error
}

// ErrClosed reports an operation on a closed backend.
var ErrClosed = errors.New("storage: backend closed")

// Memory is the in-memory Backend: nothing is durable across a process
// exit, but the value survives as long as the Memory itself does — the
// simulator hands the same Memory to a replica rebuilt after a simulated
// power cycle, making it the sim's disk image.
type Memory struct {
	mu      sync.Mutex
	records []memRecord
	have    map[uint64]struct{}
	snap    *snapshot.Snapshot
	closed  bool
}

type memRecord struct {
	instance uint64
	value    model.Value
}

// NewMemory returns an empty in-memory backend.
func NewMemory() *Memory {
	return &Memory{have: make(map[uint64]struct{})}
}

// AppendWAL implements Backend.
func (m *Memory) AppendWAL(instance uint64, value model.Value) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if _, dup := m.have[instance]; dup {
		return nil
	}
	m.have[instance] = struct{}{}
	m.records = append(m.records, memRecord{instance, value})
	return nil
}

// ReplayWAL implements Backend.
func (m *Memory) ReplayWAL(fn func(instance uint64, value model.Value) error) error {
	m.mu.Lock()
	records := append([]memRecord(nil), m.records...)
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return ErrClosed
	}
	for _, r := range records {
		if err := fn(r.instance, r.value); err != nil {
			return err
		}
	}
	return nil
}

// TruncateWAL implements Backend.
func (m *Memory) TruncateWAL(through uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	kept := m.records[:0]
	for _, r := range m.records {
		if r.instance > through {
			kept = append(kept, r)
		} else {
			delete(m.have, r.instance)
		}
	}
	// Fresh backing array so dropped values are actually released.
	m.records = append([]memRecord(nil), kept...)
	return nil
}

// SaveSnapshot implements Backend.
func (m *Memory) SaveSnapshot(snap *snapshot.Snapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if m.snap != nil && snap.LastInstance <= m.snap.LastInstance {
		return nil
	}
	m.snap = &snapshot.Snapshot{
		LastInstance: snap.LastInstance,
		LogIndex:     snap.LogIndex,
		State:        append([]byte(nil), snap.State...),
	}
	return nil
}

// LoadSnapshot implements Backend.
func (m *Memory) LoadSnapshot() (*snapshot.Snapshot, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false, ErrClosed
	}
	if m.snap == nil {
		return nil, false, nil
	}
	return &snapshot.Snapshot{
		LastInstance: m.snap.LastInstance,
		LogIndex:     m.snap.LogIndex,
		State:        append([]byte(nil), m.snap.State...),
	}, true, nil
}

// Sync implements Backend (a no-op in memory).
func (m *Memory) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	return nil
}

// Close implements Backend. A Memory is reusable as a disk image after
// Close only through Reopen (the simulated power cycle).
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// Reopen revives a closed Memory with its contents intact: the simulator's
// power cycle closes every replica's backend with the replica and reopens
// the same object for the restarted one, like a disk remounted at boot.
func (m *Memory) Reopen() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = false
}
