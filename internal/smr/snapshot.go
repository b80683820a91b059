package smr

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"genconsensus/internal/model"
	"genconsensus/internal/snapshot"
)

// DefaultSnapshotInterval is the checkpoint interval of a member whose
// configuration names none, in both runtimes: every member checkpoints.
const DefaultSnapshotInterval = 1024

// SnapshotConfig parameterizes a replica's checkpoint policy.
type SnapshotConfig struct {
	// Interval checkpoints every Interval committed instances: instance
	// numbers are cluster-global, so every honest replica snapshots at the
	// same boundaries with identical state and identical digests.
	Interval uint64
	// Deprecated: ignored. Duplicate suppression is the per-client
	// (client, seq) window, bounded by construction; nothing is pruned.
	KeepApplied int
}

// SnapshotManager maintains one replica's checkpoints. The checkpoint is a
// second state machine — the shadow — trailing the live one by at most one
// interval, with the decided log as its redo journal: at every Interval
// boundary the manager replays the log entries committed since the
// previous boundary into the shadow and truncates the log. That costs
// O(commands in the interval) whatever the state's size, and never locks
// the live state machine. The snapshot's bytes and digest are made from
// the shadow only when someone asks — Latest (state transfer, recovery) or
// a durable backend — at most once per boundary (docs/CHECKPOINTS.md). The
// backend asks only once the commands decided since its last durable
// checkpoint reach that checkpoint's state size: the WAL holds every
// decision, so the disk follows decided bytes. Install is the inverse,
// applied on a recovering replica with a snapshot verified against b+1
// peers.
//
// Checkpoint/MaybeSnapshot must be serialized with commits (they read and
// truncate the log); CommitQueue's in-order commit, which calls it from
// the commit hook in both runtimes, guarantees that.
// Latest may be called concurrently (it is the transport's snapshot
// provider): it reads only the shadow, under the manager's lock.
type SnapshotManager struct {
	r       *Replica
	snapper snapshot.Snapshotter
	cfg     SnapshotConfig

	mu sync.Mutex
	// shadow holds the state as of the newest boundary: forked from the
	// live state machine at the first boundary and at the first one after
	// an Install (nil until then), never at construction.
	shadow snapshot.Snapshotter
	mark   snapshot.Snapshot // newest checkpoint's watermark (State unused)
	// latest and digest are mark's encoded form: nil until someone asks,
	// dropped at the next boundary. Once there is a checkpoint, latest and
	// shadow are never both nil.
	latest *snapshot.Snapshot
	digest [32]byte
	taken  int
	// sinceDisk counts the command bytes the boundaries since the last
	// durable checkpoint covered; diskSize is that checkpoint's state size
	// (0 before the first, so the first boundary persists).
	sinceDisk uint64
	diskSize  uint64
}

// NewSnapshotManager builds a manager over the replica. The replica's
// state machine must implement snapshot.Snapshotter and the interval must
// be positive.
func NewSnapshotManager(r *Replica, cfg SnapshotConfig) (*SnapshotManager, error) {
	snapper, ok := r.SM.(snapshot.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("smr: state machine %T cannot snapshot", r.SM)
	}
	if cfg.Interval == 0 {
		return nil, errors.New("smr: snapshot interval must be positive")
	}
	return &SnapshotManager{r: r, snapper: snapper, cfg: cfg}, nil
}

// MaybeSnapshot checkpoints when the just-committed instance lands on an
// interval boundary. It reports whether a snapshot was taken.
func (m *SnapshotManager) MaybeSnapshot(instance uint64) bool {
	if instance == 0 || instance%m.cfg.Interval != 0 {
		return false
	}
	m.Checkpoint(instance)
	return true
}

// Checkpoint unconditionally cuts a checkpoint at the given instance
// watermark: bring the shadow up to the boundary, record the watermark and
// compact the log below it. Every step is deterministic, so replicas
// checkpointing the same instance hold shadows that encode to identical
// bytes.
func (m *SnapshotManager) Checkpoint(instance uint64) {
	start := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if instance <= m.mark.LastInstance {
		return
	}
	tail, ok := m.r.Log.Tail(m.mark.LogIndex)
	for _, cmd := range tail {
		m.sinceDisk += uint64(len(cmd))
	}
	if ok && m.shadow != nil {
		// A fork implements what its origin does (snapshot.Snapshotter).
		sm := m.shadow.(StateMachine)
		for _, cmd := range tail {
			if cmd != NoOp {
				sm.Apply(cmd)
			}
		}
	} else {
		m.shadow = m.snapper.Fork()
	}
	m.mark = snapshot.Snapshot{LastInstance: instance, LogIndex: uint64(m.r.Log.Len())}
	m.latest = nil
	m.taken++
	m.r.Log.TruncatePrefix(m.mark.LogIndex)
	if m.sinceDisk >= m.diskSize {
		m.persistLocked()
	}
	m.r.instruments().CheckpointNS.ObserveSince(start)
}

// materializeLocked returns the newest checkpoint in encoded form, encoding
// and hashing the shadow the first time it is asked after a boundary — so
// however often peers request the snapshot, the cost is bounded by one
// encode per checkpoint. Callers hold m.mu; there must be a checkpoint.
func (m *SnapshotManager) materializeLocked() *snapshot.Snapshot {
	if m.latest == nil {
		start := time.Now()
		snap := m.mark
		snap.State = m.shadow.SnapshotState()
		m.latest = &snap
		m.digest = snapshot.Digest(m.latest)
		met := m.r.instruments()
		met.SnapshotMaterialized.Inc()
		met.SnapshotMaterializeNS.ObserveSince(start)
	}
	return m.latest
}

// persistLocked pushes the newest checkpoint to the replica's durable
// backend (if any) and truncates the WAL beneath it — the decided instances
// it covers are now replayable from the snapshot instead. Storage failures
// degrade to in-memory checkpoints (reported, not fatal): a broken disk
// must not stop the compaction that keeps memory bounded, and the byte
// count since the last durable checkpoint is kept, so the next boundary
// retries. Callers hold m.mu.
func (m *SnapshotManager) persistLocked() {
	b := m.r.Backend()
	if b == nil {
		return
	}
	snap := m.materializeLocked()
	if err := b.SaveSnapshot(snap); err != nil {
		m.r.reportStorageErr(fmt.Errorf("smr: persisting checkpoint %d: %w", snap.LastInstance, err))
		return
	}
	m.sinceDisk, m.diskSize = 0, uint64(len(snap.State))
	if err := b.TruncateWAL(snap.LastInstance); err != nil {
		m.r.reportStorageErr(fmt.Errorf("smr: truncating wal at %d: %w", snap.LastInstance, err))
	}
}

// Latest returns the most recent checkpoint and its digest.
func (m *SnapshotManager) Latest() (*snapshot.Snapshot, [32]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.latest == nil && m.shadow == nil {
		return nil, [32]byte{}, false // no checkpoint yet
	}
	return m.materializeLocked(), m.digest, true
}

// Taken reports how many checkpoints this manager has produced (tests and
// metrics).
func (m *SnapshotManager) Taken() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.taken
}

// Install replaces the replica's state with a (verified) snapshot: the
// state machine is restored, the log restarts at the snapshot index, and
// the snapshot becomes this manager's latest. The shadow and any encoding
// of the previous checkpoint are dropped; the next boundary forks afresh.
// The record of which (client, seq) committed needs no reseed: it is the
// state machine's dedup windows, which the snapshot state carries. The
// snapshot is persisted whatever the byte count: the WAL does not
// cover a peer's state (a snapshot loaded from the local disk saves as a
// no-op).
// Verification is the caller's duty — b+1 matching digests
// (transport.FetchVerifiedSnapshot) for a peer's snapshot, the storage
// layer's digest check for the local one Restore loads; Install trusts
// its argument.
func (m *SnapshotManager) Install(snap *snapshot.Snapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.snapper.RestoreState(snap.State); err != nil {
		return fmt.Errorf("smr: installing snapshot: %w", err)
	}
	m.r.Log.Reset(snap.LogIndex)
	m.shadow = nil
	m.mark = snapshot.Snapshot{LastInstance: snap.LastInstance, LogIndex: snap.LogIndex}
	m.latest = snap
	m.digest = snapshot.Digest(snap)
	m.diskSize = 0 // a failed save leaves the next boundary to retry
	m.persistLocked()
	return nil
}

// Manager returns member p's snapshot manager.
func (c *Cluster) Manager(p model.PID) *SnapshotManager {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.managers[p]
}
