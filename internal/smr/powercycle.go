package smr

import (
	"errors"
	"fmt"

	"genconsensus/internal/model"
)

// Errors returned by the power-cycle scenario.
var (
	ErrNoStorage = errors.New("smr: storage not enabled")
	// ErrByzantinePowerCycle: a Byzantine member has no honest durable
	// state to restore; clear the fault injection before power cycling.
	ErrByzantinePowerCycle = errors.New("smr: cannot power-cycle a cluster with Byzantine members")
)

// PowerCycle restarts the whole cluster with zero surviving memory, the way
// a real deployment comes back after the machine room loses power: every
// member's backend is closed and reopened through ClusterConfig.Storage (a
// Disk comes back through OpenDisk's recovery, as a restarted node's does),
// and every replica — state machine, log, pending queue, snapshot manager —
// is rebuilt from scratch under the cluster's configuration and recovered
// by Restore from what the reopened medium holds. Unlike Crash/Recover
// there is no live donor holding the protocol's in-memory state: what the
// media hold is all there is.
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
// Like Recover, PowerCycle must be called from the scheduler goroutine
// between drains, never with instances in flight. Crashed members are
// revived (a restart restarts everyone); Byzantine members are refused, and
// so is a Storage factory that returns no backend.
func (c *Cluster) PowerCycle() error {
	c.mu.Lock()
	if c.cfg.Storage == nil {
		c.mu.Unlock()
		return ErrNoStorage
	}
	if len(c.byzantine) > 0 {
		c.mu.Unlock()
		return ErrByzantinePowerCycle
	}
	old := c.replicas
	need := c.params.B + 1
	c.mu.Unlock()

	// The power goes out everywhere before anything comes back.
	for _, r := range old {
		if b := r.Backend(); b != nil {
			if err := b.Close(); err != nil {
				return fmt.Errorf("smr: power-cycling member %d: closing storage: %w", r.ID, err)
			}
		}
	}
	n := len(old)
	reps := make([]*Replica, n)
	mgrs := make([]*SnapshotManager, n)
	queues := make([]*CommitQueue, n)
	for i, r := range old {
		backend := c.cfg.Storage(r.ID)
		if backend == nil {
			return fmt.Errorf("smr: power-cycling member %d: %w", r.ID, ErrNoStorage)
		}
		rep, mgr, q, err := c.member(r.ID, backend)
		if err != nil {
			return fmt.Errorf("smr: power-cycling member %d: %w", r.ID, err)
		}
		reps[i], mgrs[i], queues[i] = rep, mgr, q
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
	snap := electSnapshot(mgrs, need)
	for i, rep := range reps {
		if err := catchUp(rep, queues[i], mgrs[i], snap, next, donors); err != nil {
			return fmt.Errorf("smr: power-cycle convergence of member %d: %w", rep.ID, err)
		}
	}

	c.mu.Lock()
	c.replicas = reps
	c.managers = mgrs
	c.queues = queues
	c.instance = next - 1
	c.crashed = make(map[model.PID]bool)
	c.mu.Unlock()
	return nil
}
