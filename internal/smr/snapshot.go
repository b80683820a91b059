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

// SnapshotManager maintains one replica's checkpoints. At every Interval
// boundary it marks the live state machine (snapshot.Snapshotter.Mark),
// which keeps the boundary's state copy-on-write, records the watermark and
// truncates the log: O(keys written in the interval) whatever the state's
// size, and no command applies twice. The snapshot's bytes and digest are
// made from the mark only when someone asks — Latest (state transfer, recovery) or a durable backend — at most
// once per boundary (docs/CHECKPOINTS.md). The backend asks only once the
// commands decided since its last durable checkpoint reach that
// checkpoint's state size: the WAL holds every decision, so the disk
// follows decided bytes. Install is the inverse, applied on a recovering
// replica with a snapshot verified against b+1 peers.
//
// Checkpoint/MaybeSnapshot must be serialized with commits (they mark the
// state machine and truncate the log); CommitQueue's in-order commit,
// which calls it from the commit hook in both runtimes, guarantees that.
// Latest may be called concurrently (it is the transport's snapshot
// provider): it reads the marked state under the manager's lock.
type SnapshotManager struct {
	r       *Replica
	snapper snapshot.Snapshotter
	cfg     SnapshotConfig

	mu   sync.Mutex
	mark snapshot.Snapshot // newest checkpoint's watermark (State unused)
	// latest and digest are mark's encoded form: nil until someone asks,
	// dropped at the next boundary.
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
// watermark: mark the state machine, record the watermark and compact the
// log below it. The live state at a boundary is a function of the decided
// prefix, so replicas checkpointing the same instance mark states that
// encode to identical bytes.
func (m *SnapshotManager) Checkpoint(instance uint64) {
	start := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if instance <= m.mark.LastInstance {
		return
	}
	m.snapper.Mark()
	m.mark = snapshot.Snapshot{LastInstance: instance, LogIndex: uint64(m.r.Log.Len())}
	m.latest = nil
	m.taken++
	m.sinceDisk += m.r.Log.TruncatePrefix(m.mark.LogIndex)
	if m.sinceDisk >= m.diskSize {
		m.persistLocked()
	}
	m.r.instruments().CheckpointNS.ObserveSince(start)
}

// materializeLocked returns the newest checkpoint in encoded form, encoding
// and hashing the marked state the first time it is asked after a boundary
// — so however often peers request the snapshot, the cost is bounded by one
// encode per checkpoint. Callers hold m.mu; there must be a checkpoint.
func (m *SnapshotManager) materializeLocked() *snapshot.Snapshot {
	if m.latest == nil {
		start := time.Now()
		snap := m.mark
		snap.State = m.snapper.MarkedState()
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
	if m.latest == nil && m.taken == 0 {
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
// the snapshot becomes this manager's latest, and the restored state its
// mark. Any encoding of the previous checkpoint is dropped.
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
	m.snapper.Mark()
	m.r.Log.Reset(snap.LogIndex)
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
