package smr

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"genconsensus/internal/model"
	"genconsensus/internal/snapshot"
)

// CommitQueue is the in-order commit discipline for one replica driven by a
// pipelined scheduler: proposals claim disjoint slices of the pending
// queue, decisions may be delivered out of instance order, and commits are
// applied strictly in instance order. Both runtimes use it — the TCP node's
// dispatcher holds one, the simulator's Cluster one per member, through
// which it claims and delivers one instance at a time — so claims, the
// in-order commit, WAL restore (ReplayWAL) and snapshot fast-forward
// (InstallSnapshot) are one code path. Only the node has instances in
// flight together; the queue's own tests cover out-of-order delivery.
//
// Claim accounting is a liveness-first heuristic: a committed instance
// releases exactly the claim it took, even when the decided batch (possibly
// a peer's, or a Byzantine winner) removed a different number of commands
// from the local queue. Releasing the original claim guarantees the offset
// returns to zero once the window drains, so no pending command can starve
// behind a stale claim; the price is transient duplicate proposals when
// queues diverge across replicas, which is safe — duplicate log entries are
// deduplicated by the state machine's request ids (see
// TestClusterDeduplication).
type CommitQueue struct {
	replica *Replica
	// onCommit observes each applied instance (logging, transport buffer
	// release). Called in instance order, under the queue lock.
	onCommit func(instance uint64, decided model.Value, resps []string)

	mu         sync.Mutex
	nextCommit uint64
	claimed    int
	claims     map[uint64]int
	decisions  map[uint64]model.Value
	// appliedCh is closed and replaced whenever the commit watermark
	// advances — a broadcast that WaitApplied parks on. Go's sync.Cond has
	// no deadline-bounded wait, so the close-a-channel idiom stands in.
	appliedCh chan struct{}

	// The read plane's lock-free view, written under mu. applySeq is twice
	// the commit watermark, plus one while an instance (or a snapshot
	// install) is changing the state machine — a sequence lock readers use
	// to serve a lookup from exactly one applied prefix. decidedHigh is the
	// highest instance known decided, committed or buffered; it never moves
	// back.
	applySeq    atomic.Uint64
	decidedHigh atomic.Uint64
}

// NewCommitQueue builds the queue; firstInstance is the next instance
// number expected to commit. onCommit may be nil.
func NewCommitQueue(r *Replica, firstInstance uint64, onCommit func(uint64, model.Value, []string)) *CommitQueue {
	q := &CommitQueue{
		replica:    r,
		onCommit:   onCommit,
		nextCommit: firstInstance,
		claims:     make(map[uint64]int),
		decisions:  make(map[uint64]model.Value),
		appliedCh:  make(chan struct{}),
	}
	q.applySeq.Store(2 * firstInstance)
	if firstInstance > 0 {
		q.decidedHigh.Store(firstInstance - 1)
	}
	return q
}

// Claim builds instance's proposal from the first unclaimed queue slice
// (Replica.ProposalAt with the current claim offset) and records its claim.
// limit ≤ 0 uses the replica's own sizing. Claiming an instance at or below
// the commit watermark (possible after a snapshot fast-forward raced the
// dispatcher) yields NoOp and records nothing: the instance is finished
// business and must not own queue positions that could never be released.
func (q *CommitQueue) Claim(instance uint64, limit int) model.Value {
	q.mu.Lock()
	defer q.mu.Unlock()
	if instance < q.nextCommit {
		return NoOp
	}
	proposal, claim := q.replica.ProposalAt(q.claimed, limit)
	q.claimed += claim
	q.claims[instance] = claim
	return proposal
}

// Reserve records instance's claim — the slice a Claim would take — without
// encoding a proposal. A replica that expects to adopt another member's
// batch for the instance reserves at dispatch, so the slices of concurrent
// instances stay apart, and builds its own batch (Propose) only if it has
// to. Like Claim, an instance at or below the watermark records nothing.
func (q *CommitQueue) Reserve(instance uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if instance < q.nextCommit {
		return
	}
	k, _ := q.replica.spanAt(q.claimed)
	q.claimed += k
	q.claims[instance] = k
}

// Propose builds the proposal of an instance Reserve claimed: its reserved
// number of commands, from where its slice sits now — after the claims of
// the earlier instances still uncommitted. It yields NoOp for an empty
// reservation or a committed instance.
func (q *CommitQueue) Propose(instance uint64) model.Value {
	q.mu.Lock()
	defer q.mu.Unlock()
	k := q.claims[instance]
	if instance < q.nextCommit || k == 0 {
		return NoOp
	}
	skip := 0
	for inst, claim := range q.claims {
		if inst < instance {
			skip += claim
		}
	}
	proposal, _ := q.replica.ProposalAt(skip, k)
	return proposal
}

// NextCommit reports the next instance number expected to commit (the
// commit watermark). It takes no lock.
func (q *CommitQueue) NextCommit() uint64 {
	return q.applySeq.Load() >> 1
}

// ApplySeq reports the apply sequence: 2·NextCommit, plus one while an
// instance or a snapshot install is being applied. A reader that sees the
// same even value before and after a state-machine lookup has read exactly
// the first ApplySeq/2 - 1 instances — the stamp of a read-index reply.
func (q *CommitQueue) ApplySeq() uint64 {
	return q.applySeq.Load()
}

// Ready is the rule an instance starts by — in the node's dispatcher, and
// with nothing in flight in Cluster.Drain — given how many of this
// replica's instances are in flight: with none, any unclaimed command is
// worth an instance; with some, another opens only when the unclaimed
// commands fill a whole batch, by the count and byte caps Claim applies. So a paced load rides one instance at a time and batches while
// it waits, and the pipeline's depth is reached only under backlog.
func (q *CommitQueue) Ready(inflight int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	k, full := q.replica.spanAt(q.claimed)
	return k > 0 && (inflight == 0 || full)
}

// Unclaimed reports how much of the pending queue no in-flight instance
// has claimed — the stall watcher's "is work outstanding" signal.
func (q *CommitQueue) Unclaimed() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := q.replica.PendingLen() - q.claimed
	if n < 0 {
		return 0
	}
	return n
}

// Deliver hands in one instance's decision and flushes the in-order
// prefix: each consecutive instance from nextCommit on whose decision has
// arrived is committed to the replica, reported to onCommit and has its
// claim released. Later decisions stay buffered until the gap fills. It
// returns the number of instances committed by this call.
//
// A decision at or below the watermark — a duplicate delivery, or a
// straggler for an instance a snapshot install already covered — is
// dropped: committing it again would double-apply, and releasing its claim
// again would corrupt the offset.
//
// Durability happens here, not at apply time: with a storage backend
// installed the decision is appended to the write-ahead log the moment it
// is delivered — even when it must buffer behind a gap — so a replica that
// finished an instance has it durably whether or not the in-order commit
// reached it yet. That is what lets a whole-cluster power cycle recover
// the pipeline's out-of-order frontier instead of only the committed
// prefix.
func (q *CommitQueue) Deliver(instance uint64, decided model.Value) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if instance < q.nextCommit {
		return 0
	}
	q.replica.LogDecision(instance, decided)
	q.decisions[instance] = decided
	q.raiseDecidedLocked(instance)
	return q.flushLocked()
}

// flushLocked commits every consecutive buffered decision from the
// watermark on. Callers hold q.mu.
func (q *CommitQueue) flushLocked() int {
	committed := 0
	for {
		v, ok := q.decisions[q.nextCommit]
		if !ok {
			if committed > 0 {
				q.broadcastLocked()
			}
			return committed
		}
		instance := q.nextCommit
		delete(q.decisions, instance)
		// Odd only across the state-machine apply: the commit hook (a
		// checkpoint, say) reads state, and readers need not wait for it.
		q.applySeq.Store(2*instance + 1)
		resps := q.replica.Commit(v)
		q.nextCommit++
		q.applySeq.Store(2 * q.nextCommit)
		if q.onCommit != nil {
			q.onCommit(instance, v, resps)
		}
		q.claimed -= q.claims[instance]
		if q.claimed < 0 {
			q.claimed = 0
		}
		delete(q.claims, instance)
		committed++
	}
}

// InstallSnapshot fast-forwards the queue past instances a verified
// snapshot covers: install (which must replace the replica's state —
// typically SnapshotManager.Install) runs under the queue lock so no
// commit can interleave with the state swap, then buffered decisions and
// claims below nextInstance are dropped, the claim offset is rebuilt from
// the surviving claims, and the watermark jumps to nextInstance. Decisions
// already buffered at or above nextInstance flush if now consecutive.
//
// It returns false — without calling install — when the watermark is
// already at or past nextInstance (a racing resync beat us to it).
func (q *CommitQueue) InstallSnapshot(nextInstance uint64, install func() error) (bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if nextInstance <= q.nextCommit {
		return false, nil
	}
	if install != nil {
		q.applySeq.Store(2*q.nextCommit + 1)
		if err := install(); err != nil {
			q.applySeq.Store(2 * q.nextCommit)
			q.broadcastLocked() // wake readers parked on the odd sequence
			return false, err
		}
	}
	for inst := range q.decisions {
		if inst < nextInstance {
			delete(q.decisions, inst)
		}
	}
	q.claimed = 0
	for inst, claim := range q.claims {
		if inst < nextInstance {
			delete(q.claims, inst)
			continue
		}
		q.claimed += claim
	}
	q.nextCommit = nextInstance
	q.applySeq.Store(2 * nextInstance)
	q.raiseDecidedLocked(nextInstance - 1)
	if q.flushLocked() == 0 {
		// flushLocked only broadcasts when it commits; the snapshot jump
		// itself moved the watermark, so wake waiters regardless.
		q.broadcastLocked()
	}
	return true, nil
}

// ReplayWAL restores the decisions the replica's backend holds at or above
// the watermark: each record is handed to record (when non-nil — the node
// reseeds its decision ring there) and then delivered, so the consecutive
// prefix commits and anything beyond a gap stays buffered until the gap
// fills. Records are collected before any is delivered: a delivery may
// checkpoint, and a checkpoint truncates the WAL being read. It returns the
// number of records delivered; a replica without a backend has none.
func (q *CommitQueue) ReplayWAL(record func(instance uint64, decided model.Value)) (int, error) {
	b := q.replica.Backend()
	if b == nil {
		return 0, nil
	}
	type walRecord struct {
		instance uint64
		value    model.Value
	}
	first := q.NextCommit()
	var recs []walRecord
	if err := b.ReplayWAL(func(instance uint64, value model.Value) error {
		if instance >= first {
			recs = append(recs, walRecord{instance, value})
		}
		return nil
	}); err != nil {
		return 0, err
	}
	for _, r := range recs {
		if record != nil {
			record(r.instance, r.value)
		}
		q.Deliver(r.instance, r.value)
	}
	return len(recs), nil
}

// Restore builds a member's commit queue over rep and its snapshot manager
// mgr, disk first — the one restore order both runtimes start a member by
// (the node's Start, the simulator's NewCluster): the newest verified
// checkpoint in rep's backend is installed, the queue starts at the
// instance after it (1 without one), and the WAL above it is replayed
// through the queue (ReplayWAL), which commits the in-order prefix and
// buffers anything beyond a gap. onReplay sees each replayed record
// before its delivery. At every commit the queue gives mgr its checkpoint
// chance, then calls onCommit with whether one was cut. Either callback
// may be nil; a replica without a backend restores nothing.
//
// It returns the queue and the checkpoint it installed (nil for none),
// and always a usable queue: a checkpoint that fails to load or install is
// reported in the error and the WAL is replayed from instance 1, so a
// caller that prefers availability logs the error and proceeds.
func Restore(rep *Replica, mgr *SnapshotManager,
	onCommit func(instance uint64, decided model.Value, resps []string, checkpointed bool),
	onReplay func(instance uint64, decided model.Value)) (*CommitQueue, *snapshot.Snapshot, error) {
	var installed *snapshot.Snapshot
	var errs []error
	if b := rep.Backend(); b != nil {
		switch snap, ok, err := b.LoadSnapshot(); {
		case err != nil:
			errs = append(errs, fmt.Errorf("smr: loading local checkpoint: %w", err))
		case ok:
			if err := mgr.Install(snap); err != nil {
				errs = append(errs, fmt.Errorf("smr: installing local checkpoint: %w", err))
				break
			}
			installed = snap
		}
	}
	first := uint64(1)
	if installed != nil {
		first = installed.LastInstance + 1
	}
	q := NewCommitQueue(rep, first, func(instance uint64, decided model.Value, resps []string) {
		checkpointed := mgr.MaybeSnapshot(instance)
		if onCommit != nil {
			onCommit(instance, decided, resps, checkpointed)
		}
	})
	if _, err := q.ReplayWAL(onReplay); err != nil {
		errs = append(errs, fmt.Errorf("smr: wal replay: %w", err))
	}
	return q, installed, errors.Join(errs...)
}

// broadcastLocked wakes every WaitApplied waiter. Callers hold q.mu.
func (q *CommitQueue) broadcastLocked() {
	close(q.appliedCh)
	q.appliedCh = make(chan struct{})
}

// raiseDecidedLocked lifts the decided high to instance. Callers hold q.mu.
func (q *CommitQueue) raiseDecidedLocked(instance uint64) {
	if instance > q.decidedHigh.Load() {
		q.decidedHigh.Store(instance)
	}
}

// ReadIndex reports the highest instance this replica knows has decided:
// the last committed instance, or the highest decision still buffered
// behind a gap (out-of-order deliveries, WAL replay frontier). It is the
// commit-queue half of a read-index capture — the node layer additionally
// folds in the transport's observed instance high, which covers decisions
// announced by peers that have not been delivered here yet. Zero means
// nothing is known decided. It takes no lock.
func (q *CommitQueue) ReadIndex() uint64 {
	return q.decidedHigh.Load()
}

// WaitApplied blocks until instance has been committed and applied (the
// watermark has passed it) or the deadline expires, reporting which. It is
// the read-index wait: capture an index, WaitApplied(index), then serve
// from local state. Instances below the watermark return true immediately
// without blocking or locking, so waiting on an already-applied index is
// free.
func (q *CommitQueue) WaitApplied(instance uint64, deadline time.Time) bool {
	if q.NextCommit() > instance {
		return true
	}
	q.mu.Lock()
	var timer *time.Timer
	for q.nextCommit <= instance {
		ch := q.appliedCh
		q.mu.Unlock()
		wait := time.Until(deadline)
		if wait <= 0 {
			if timer != nil {
				timer.Stop()
			}
			return false
		}
		if timer == nil {
			timer = time.NewTimer(wait)
		} else {
			timer.Reset(wait)
		}
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
			return false
		}
		q.mu.Lock()
	}
	q.mu.Unlock()
	return true
}
