package smr

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"genconsensus/internal/model"
	"genconsensus/internal/snapshot"
)

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

// ErrTailUnavailable reports that recovery needs log entries every live
// donor has already compacted away.
var ErrTailUnavailable = errors.New("smr: log tail compacted away at every donor")

// SnapshotManager maintains one replica's checkpoints. The checkpoint is a
// second state machine — the shadow — trailing the live one by at most one
// interval, with the decided log as its redo journal: at every Interval
// boundary the manager replays the log entries committed since the
// previous boundary into the shadow and truncates the log. That costs
// O(commands in the interval) whatever the state's size, and never locks
// the live state machine. The snapshot's bytes and digest are made from
// the shadow only when someone asks — Latest (state transfer, recovery) or
// a durable backend — once per boundary (docs/CHECKPOINTS.md). Install is
// the inverse, applied on a recovering replica with a snapshot verified
// against b+1 peers.
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
	if tail, ok := m.r.Log.Tail(m.mark.LogIndex); ok && m.shadow != nil {
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
	m.persistLocked()
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
// must not stop the compaction that keeps memory bounded. Callers hold m.mu.
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
// Verification — b+1 matching digests — is the caller's duty
// (transport.FetchVerifiedSnapshot or Cluster.Recover); Install trusts
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
	m.persistLocked()
	return nil
}

// EnableSnapshots installs a snapshot manager on every replica. Every
// state machine must implement snapshot.Snapshotter. Must be called before
// instances run.
func (c *Cluster) EnableSnapshots(cfg SnapshotConfig) error {
	managers := make([]*SnapshotManager, len(c.replicas))
	for i, r := range c.replicas {
		m, err := NewSnapshotManager(r, cfg)
		if err != nil {
			return err
		}
		managers[i] = m
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.managers = managers
	c.snapCfg = cfg
	queues := make([]*CommitQueue, len(c.replicas))
	for i, r := range c.replicas {
		queues[i] = memberQueue(r, managers[i], c.queues[i].NextCommit())
	}
	c.queues = queues
	return nil
}

// Manager returns replica p's snapshot manager (nil before
// EnableSnapshots).
func (c *Cluster) Manager(p model.PID) *SnapshotManager {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.managers == nil {
		return nil
	}
	return c.managers[p]
}

// Recover rejoins a crashed member: the simulated counterpart of the
// transport's crash-recovery state transfer. The recovering replica's
// commit queue fast-forwards to the live members' watermark (catchUp): it
// installs the newest snapshot whose digest at least b+1 live honest
// replicas agree on (a Byzantine minority cannot feed it forged state),
// replays the log tail above it from a live donor, and drops whatever it
// had buffered or claimed before the crash. It is then live again — from
// the next instance on it proposes and commits normally, and
// CheckConsistency holds it to the same standard as every other live
// member.
//
// Without snapshots enabled the replica catches up by full tail replay,
// which works only while donors retain their whole logs. Like
// RunInstance/Drain, Recover must be called from the scheduler goroutine
// between drains, never with instances in flight.
func (c *Cluster) Recover(p model.PID) error {
	c.mu.Lock()
	if int(p) < 0 || int(p) >= c.params.N {
		c.mu.Unlock()
		return fmt.Errorf("smr: no member %d", p)
	}
	if _, byz := c.byzantine[p]; byz {
		c.mu.Unlock()
		return fmt.Errorf("smr: member %d is Byzantine, not crashed", p)
	}
	if !c.crashed[p] {
		c.mu.Unlock()
		return fmt.Errorf("smr: member %d is not crashed", p)
	}
	managers, queues := c.managers, c.queues
	need := c.params.B + 1
	c.mu.Unlock()

	// Between drains every live member sits at the same watermark.
	live := c.liveSet()
	var donors []*Replica
	var donorMgrs []*SnapshotManager
	var next uint64
	for _, r := range c.replicas {
		if live[r.ID] {
			donors = append(donors, r)
			next = max(next, queues[r.ID].NextCommit())
			if managers != nil {
				donorMgrs = append(donorMgrs, managers[r.ID])
			}
		}
	}
	var mgr *SnapshotManager
	if managers != nil {
		mgr = managers[p]
	}
	if err := catchUp(c.replicas[p], queues[p], mgr, electSnapshot(donorMgrs, need), next, donors); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.crashed, p)
	c.mu.Unlock()
	return nil
}

// electSnapshot returns the newest checkpoint whose digest at least need of
// the managers agree on — b+1 matching digests, so a Byzantine minority
// cannot pass off forged state — or nil when there is none.
func electSnapshot(mgrs []*SnapshotManager, need int) *snapshot.Snapshot {
	votes := make(map[[32]byte]int)
	var chosen *snapshot.Snapshot
	for _, m := range mgrs {
		s, d, ok := m.Latest()
		if !ok {
			continue
		}
		if votes[d]++; votes[d] >= need && (chosen == nil || s.LastInstance > chosen.LastInstance) {
			chosen = s
		}
	}
	return chosen
}

// catchUp fast-forwards rep's commit queue to next, the donors' common
// watermark, through CommitQueue.InstallSnapshot — the primitive the TCP
// catch-up uses. Under the queue lock, the install adopts snap (verified by
// the caller; nil for none) when it is ahead of rep's log, then commits
// the log tail above from the first donor that retains it; the queue then
// drops the decisions and claims below next. A queue already at next is
// left alone.
func catchUp(rep *Replica, q *CommitQueue, mgr *SnapshotManager, snap *snapshot.Snapshot, next uint64, donors []*Replica) error {
	_, err := q.InstallSnapshot(next, func() error {
		if snap != nil && snap.LogIndex > uint64(rep.Log.Len()) {
			if err := mgr.Install(snap); err != nil {
				return err
			}
		}
		from := uint64(rep.Log.Len())
		for _, donor := range donors {
			if tail, ok := donor.Log.Tail(from); ok {
				for _, cmd := range tail {
					rep.Commit(cmd)
				}
				return nil
			}
		}
		return fmt.Errorf("%w: member %d needs entries from %d", ErrTailUnavailable, rep.ID, from)
	})
	return err
}
