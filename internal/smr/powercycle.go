package smr

import (
	"errors"
	"fmt"
	"sort"

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
// (newest verified checkpoint, then in-order WAL replay), the way a real
// deployment comes back after the machine room loses power. Unlike Crash/
// Recover there is no live donor holding the protocol's in-memory state:
// what the backends hold is all there is.
//
// Members whose durability lagged (a checkpoint behind, or WAL records
// lost to an unsynced batch) restore behind the frontier; PowerCycle then
// converges them exactly as Recover would — install the newest checkpoint
// backed by b+1 matching restored digests when their gap is compacted,
// replay the donor log tail otherwise. The cluster resumes at the highest
// restored instance. Pending (undecided) client commands do not survive:
// durability begins at the decision, and clients re-submit exactly as they
// would after a real outage.
//
// The shared AuthContext (EnableCommandAuth) is retained and is equivalent
// to the reseed-from-restored-state recovery the node runtime performs:
// honest replicas' dedup windows travel inside the checkpoints, so a
// rebuilt context would converge to the same horizon.
//
// Like RunInstance and Drain, PowerCycle must be called from the scheduler
// goroutine, not concurrently with running instances. Crashed members are
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
	var mgrs []*SnapshotManager
	if snapsEnabled {
		mgrs = make([]*SnapshotManager, n)
	}
	var maxInstance uint64
	for i, old := range c.replicas {
		p := old.ID
		rep := NewReplica(p, c.smFactory(p))
		// Configuration survives a reboot (it is code/flags, not state).
		old.mu.Lock()
		rep.maxBatch = old.maxBatch
		old.mu.Unlock()
		if ax != nil {
			rep.SetCommandAuth(ax)
		}
		rep.SetBackend(backends[i], nil)
		var mgr *SnapshotManager
		if snapsEnabled {
			m, err := NewSnapshotManager(rep, snapCfg)
			if err != nil {
				return err
			}
			mgrs[i] = m
			mgr = m
		}
		restored, err := restoreFromBackend(rep, mgr, backends[i])
		if err != nil {
			return fmt.Errorf("smr: power-cycling member %d: %w", p, err)
		}
		if restored > maxInstance {
			maxInstance = restored
		}
		reps[i] = rep
	}

	// Convergence: the members whose disks lagged rejoin through the same
	// two mechanisms as Recover, with the restored members as donors.
	var donor *Replica
	for _, r := range reps {
		if donor == nil || r.Log.Len() > donor.Log.Len() {
			donor = r
		}
	}
	for i, rep := range reps {
		if rep.Log.Len() >= donor.Log.Len() {
			continue
		}
		from := uint64(rep.Log.Len())
		if snapsEnabled && donor.Log.FirstIndex() > from {
			// The gap is compacted at the donor: install the newest
			// checkpoint b+1 restored members agree on.
			votes := make(map[[32]byte]int)
			snaps := make(map[[32]byte]*snapshot.Snapshot)
			for _, m := range mgrs {
				if s, d, ok := m.Latest(); ok {
					votes[d]++
					snaps[d] = s
				}
			}
			var chosen *snapshot.Snapshot
			for d, v := range votes {
				if v < need {
					continue
				}
				if chosen == nil || snaps[d].LastInstance > chosen.LastInstance {
					chosen = snaps[d]
				}
			}
			if chosen != nil && chosen.LogIndex > from {
				if err := mgrs[i].Install(chosen); err != nil {
					return fmt.Errorf("smr: power-cycle convergence of member %d: %w", rep.ID, err)
				}
				from = uint64(rep.Log.Len())
			}
		}
		tail, ok := donor.Log.Tail(from)
		if !ok {
			return fmt.Errorf("%w: member %d needs entries from %d after power cycle",
				ErrTailUnavailable, rep.ID, from)
		}
		for _, entry := range tail {
			rep.Commit(entry)
		}
	}

	c.mu.Lock()
	c.replicas = reps
	if snapsEnabled {
		c.managers = mgrs
	}
	c.instance = maxInstance
	c.crashed = make(map[model.PID]bool)
	c.mu.Unlock()
	return nil
}

// restoreFromBackend rebuilds one replica from its durable state: newest
// verified checkpoint first, then the WAL's in-order prefix above it. WAL
// records are replayed through Replica.Commit (not LogDecision — they are
// already durable); records beyond a gap cannot commit in order and wait
// for the cluster-level convergence pass. It returns the highest instance
// the replica's restored state covers.
func restoreFromBackend(rep *Replica, mgr *SnapshotManager, b storage.Backend) (uint64, error) {
	last := uint64(0)
	if mgr != nil {
		snap, ok, err := b.LoadSnapshot()
		if err != nil {
			return 0, err
		}
		if ok {
			if err := mgr.Install(snap); err != nil {
				return 0, err
			}
			last = snap.LastInstance
		}
	}
	type record struct {
		instance uint64
		value    model.Value
	}
	var recs []record
	if err := b.ReplayWAL(func(instance uint64, value model.Value) error {
		recs = append(recs, record{instance, value})
		return nil
	}); err != nil {
		return 0, err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].instance < recs[j].instance })
	for _, r := range recs {
		if r.instance <= last {
			continue // covered by the checkpoint (or a duplicate)
		}
		if r.instance != last+1 {
			break // gap: the decisions beyond it cannot commit in order
		}
		rep.Commit(r.value)
		last = r.instance
	}
	return last, nil
}
