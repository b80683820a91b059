package smr

import (
	"errors"
	"fmt"

	"genconsensus/internal/model"
	"genconsensus/internal/snapshot"
	"genconsensus/internal/storage"
)

// Errors returned by the power-cycle scenario.
var (
	ErrNoStorage = errors.New("smr: storage not enabled")
	// ErrByzantinePowerCycle: a Byzantine member has no honest durable
	// state to restore; clear the fault injection before power cycling.
	ErrByzantinePowerCycle = errors.New("smr: cannot power-cycle a cluster with Byzantine members")
)

// EnableStorage gives every replica a durable backend: decided instances
// are WAL-appended write-ahead of the apply, and checkpoints (with
// EnableSnapshots) persist to the backend and truncate the WAL. The factory
// supplies one backend per member — storage.NewMemory for pure simulation
// (the Memory object is the member's disk image), or storage.OpenDisk over
// per-member directories to put real files under the sim. Must be called
// before instances run.
func (c *Cluster) EnableStorage(factory func(model.PID) storage.Backend) {
	backends := make([]storage.Backend, len(c.replicas))
	for i, r := range c.replicas {
		backends[i] = factory(model.PID(i))
		r.SetBackend(backends[i], nil)
	}
	c.mu.Lock()
	c.backends = backends
	c.mu.Unlock()
}

// Backend returns member p's storage backend (nil before EnableStorage).
func (c *Cluster) Backend(p model.PID) storage.Backend {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.backends == nil {
		return nil
	}
	return c.backends[p]
}

// PowerCycle restarts the whole cluster with zero surviving memory: every
// replica — state machine, log, pending queue, snapshot manager — is
// rebuilt from scratch and recovered from its durable backend alone
// (newest verified checkpoint, then CommitQueue.ReplayWAL into a fresh
// commit queue, as the node restarts a group), the way a real deployment
// comes back after the machine room loses power. Unlike Crash/Recover
// there is no live donor holding the protocol's in-memory state: what the
// backends hold is all there is.
//
// Members whose durability lagged (a checkpoint behind, or WAL records
// lost to an unsynced batch) restore behind the frontier; PowerCycle then
// converges them through Recover's catch-up — CommitQueue.InstallSnapshot
// to the highest restored watermark, installing the newest checkpoint
// backed by b+1 matching restored digests when it is ahead of their log and
// replaying a donor's log tail above it. The cluster resumes at that
// watermark. Pending (undecided) client commands do not survive:
// durability begins at the decision, and clients re-submit exactly as they
// would after a real outage.
//
// The shared AuthContext (NewCluster's) is retained and is equivalent
// to the reseed-from-restored-state recovery the node runtime performs:
// honest replicas' dedup windows travel inside the checkpoints, so a
// rebuilt context would converge to the same horizon.
//
// Like Recover, PowerCycle must be called from the scheduler goroutine
// between drains, never with instances in flight. Crashed members are
// revived (a restart restarts everyone); Byzantine members are refused.
func (c *Cluster) PowerCycle() error {
	c.mu.Lock()
	if c.backends == nil {
		c.mu.Unlock()
		return ErrNoStorage
	}
	if len(c.byzantine) > 0 {
		c.mu.Unlock()
		return ErrByzantinePowerCycle
	}
	backends := c.backends
	snapsEnabled := c.managers != nil
	snapCfg := c.snapCfg
	ax := c.authCtx
	need := c.params.B + 1
	c.mu.Unlock()

	n := len(c.replicas)
	reps := make([]*Replica, n)
	queues := make([]*CommitQueue, n)
	mgrs := make([]*SnapshotManager, n) // nil entries without snapshots
	for i, old := range c.replicas {
		p := old.ID
		rep := NewReplica(p, c.smFactory(p))
		// Configuration survives a reboot (it is code/flags, not state).
		old.mu.Lock()
		rep.maxBatch = old.maxBatch
		old.mu.Unlock()
		rep.SetCommandAuth(ax)
		rep.SetBackend(backends[i], nil)
		if snapsEnabled {
			m, err := NewSnapshotManager(rep, snapCfg)
			if err != nil {
				return err
			}
			mgrs[i] = m
		}
		q, err := restore(rep, mgrs[i])
		if err != nil {
			return fmt.Errorf("smr: power-cycling member %d: %w", p, err)
		}
		reps[i], queues[i] = rep, q
	}

	// Convergence: the members whose disks lagged fast-forward to the
	// newest restored watermark through the same catch-up as Recover, with
	// the members that reached it as donors.
	var next uint64
	for _, q := range queues {
		next = max(next, q.NextCommit())
	}
	var donors []*Replica
	for i, q := range queues {
		if q.NextCommit() == next {
			donors = append(donors, reps[i])
		}
	}
	var snap *snapshot.Snapshot
	if snapsEnabled {
		snap = electSnapshot(mgrs, need)
	}
	for i, rep := range reps {
		if err := catchUp(rep, queues[i], mgrs[i], snap, next, donors); err != nil {
			return fmt.Errorf("smr: power-cycle convergence of member %d: %w", rep.ID, err)
		}
	}

	c.mu.Lock()
	c.replicas = reps
	c.queues = queues
	if snapsEnabled {
		c.managers = mgrs
	}
	c.instance = next - 1
	c.crashed = make(map[model.PID]bool)
	c.mu.Unlock()
	return nil
}

// restore rebuilds one replica from its durable state, the way the node
// starts a group: the newest verified local checkpoint first, then the WAL
// above it through a fresh commit queue (CommitQueue.ReplayWAL), which
// commits the in-order prefix and buffers anything beyond a gap for the
// convergence pass.
func restore(rep *Replica, mgr *SnapshotManager) (*CommitQueue, error) {
	first := uint64(1)
	if mgr != nil {
		snap, ok, err := rep.Backend().LoadSnapshot()
		if err != nil {
			return nil, err
		}
		if ok {
			if err := mgr.Install(snap); err != nil {
				return nil, err
			}
			first = snap.LastInstance + 1
		}
	}
	q := memberQueue(rep, mgr, first)
	_, err := q.ReplayWAL(nil)
	return q, err
}
