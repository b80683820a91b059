// Package smr layers state-machine replication on top of the generic
// consensus algorithm: a sequence of consensus instances, each deciding the
// next commands of a replicated log (§5.3: Paxos and PBFT "solve a sequence
// of instances of consensus"; §7: the framework the authors list as future
// work).
//
// Throughput comes from batching and pipelining, the two classic SMR
// amortizations:
//
//   - Batching: one consensus instance decides a whole Batch of client
//     commands, amortizing the 3-round agreement cost over up to
//     MaxBatchSize commands. Replicas encode their pending queues with
//     EncodeBatch (a deterministic, length-prefixed codec bounded by
//     MaxBatchSize/MaxBatchBytes), the batch-aware CommandChooser prefers
//     the largest valid non-NoOp batch among the received votes (rejecting
//     malformed or oversized Byzantine batches), and Commit applies every
//     command of a decided batch in order. The replicated log stores
//     individual commands, so log positions and consistency checks are
//     batch-transparent.
//
//   - Pipelining: a Pipeline runs up to W consensus instances concurrently
//     (PBFT-style), so instance k+1's selection rounds overlap instance k's
//     decision round instead of waiting for it. In-flight instances drain
//     disjoint slices of the pending queue (CommitQueue.Claim), decisions
//     may arrive out of instance order, and each replica's CommitQueue holds
//     decided-but-not-yet-applicable batches so that it applies instance k
//     strictly before instance k+1 — the same queue in the simulator and
//     over TCP. Safety therefore never depends on the pipeline: reordered
//     decisions change only when a batch commits, not what the log
//     contains.
//
// Batches are sized by the static SetMaxBatch bound alone: a replica
// proposes up to that many queued commands, so a lone command rides a
// singleton batch and a backlog fills batches to the bound.
//
// # Snapshots, log compaction and crash recovery
//
// A long-running deployment cannot keep every decided command: the log
// would grow without bound, and a replica that crashed and lost its
// in-memory state could never rejoin once its peers discard the history it
// missed. The snapshot lifecycle closes both gaps:
//
//   - Checkpoint: a SnapshotManager observes every committed instance and,
//     at each Interval boundary, advances a shadow copy of the state
//     machine (snapshot.Snapshotter.Fork) to the boundary by replaying the
//     log entries committed since the previous one, and records the instance
//     watermark and the global log index it covers — work proportional to
//     the interval, not to the state. The snapshot.Snapshot itself (the
//     deterministic state encoding and its digest) is produced from the
//     shadow when someone asks: a recovering peer, a durable backend.
//     Instance numbers are cluster-global, so honest replicas checkpoint
//     the same boundaries with byte-identical snapshots — digests are
//     comparable across the cluster.
//
//   - Compaction: the checkpoint truncates the log below its index
//     (Log.TruncatePrefix). Log positions are global and survive
//     compaction — Len counts compacted entries, Get addresses global
//     positions, and CheckConsistency compares retained-window overlaps —
//     so batching, pipelining and compaction all stay position-transparent.
//     Retained memory is bounded by one snapshot window.
//
//   - Recovery: a crashed replica re-enters through InstallSnapshot
//     (SnapshotManager.Install): it restores the state machine from a
//     snapshot verified by b+1 matching digests (so a Byzantine minority
//     cannot feed it forged state), resets its log to the snapshot index,
//     replays the log tail above it, and rejoins the pipeline at the
//     watermark. Both runtimes fast-forward through one primitive,
//     CommitQueue.InstallSnapshot, which swaps the state under the queue
//     lock and drops the buffered decisions and claims it covers:
//     Cluster.Recover in the simulator, and over TCP internal/node's
//     catch-up path behind the transport layer's chunked,
//     session-authenticated state-transfer exchange
//     (transport.FetchVerifiedSnapshot). The gap between
//     the newest checkpoint and the cluster head — instances peers have
//     committed, released and will never run again — is bridged by
//     b+1-verified cached decisions (transport.FetchVerifiedDecision), so
//     a laggard converges even when no new checkpoint is coming.
//
// # Durability and recovery ordering
//
// Snapshots and decision caches solve crash recovery only while someone
// stays up: a whole-cluster power cycle used to erase every checkpoint,
// every log and every replay window at once. The storage layer
// (internal/storage) closes that gap with two durable structures per
// replica, and one rule about the order recovery consults them:
//
//   - Write-ahead decision log: the moment an instance's decision is known
//     — CommitQueue.Deliver, in both runtimes, even while the decision
//     buffers behind a gap — Replica.LogDecision appends (instance, value)
//     to the backend's CRC-framed WAL, before the batch is applied. Appends
//     are idempotent per instance and may arrive out of order (pipelining);
//     fsync is batched. A torn final record (power loss mid-append) is
//     truncated at open and costs exactly the records that had not reached
//     the disk, never the prefix.
//
//   - Durable checkpoints: a SnapshotManager checkpoint is persisted to the
//     backend's snapshot store once the commands decided since the last
//     durable checkpoint reach that checkpoint's state size (every verified
//     snapshot Install is persisted at once) — written whole to a temp file
//     and renamed, digest-verified on load — and then the WAL is truncated
//     at the checkpoint boundary, so the WAL only ever spans
//     checkpoint-to-head: at most one state's worth of decided bytes plus
//     one interval, for checkpoint writes of O(1) amortised bytes per
//     command.
//
//   - Recovery ordering — disk first, then peers: a restarting replica
//     loads its newest verified local checkpoint, replays its WAL above it
//     through a fresh CommitQueue (CommitQueue.ReplayWAL; the node also
//     reseeds its decision ring so it can serve laggard peers), and
//     only then probes peers for anything newer (the b+1-verified snapshot
//     and decision transfer of PR 3). After a whole-cluster outage there
//     are no live peers to ask — disk-first is what makes the full power
//     cycle (Cluster.PowerCycle in the sim, TestKVNodePowerCycle over TCP)
//     converge from local state alone. Auth replay windows reseed from the
//     restored state exactly as in peer recovery.
//
// Availability wins over durability on storage failure: a broken disk
// degrades the replica to in-memory operation (reported through the
// backend error observer) instead of wedging the commit pipeline.
//
// # Command lifecycle
//
// Every command the replicated log carries is identified by its client and
// that client's sequence number. A command is a wire.CommandEnvelope —
// client id, per-client sequence number, application payload, and a MAC
// over all three under the client's key (auth.ClientKeyring) — and the
// envelope's encoded bytes ARE the value the whole stack carries: queued,
// batched, voted, decided, logged and applied without re-encoding. One
// AuthContext per deployment answers every provenance question, so a
// Byzantine proposer cannot fill syntactically perfect batches with
// commands no client ever issued and have the cluster burn agreement
// rounds, log space, snapshot bytes and state-transfer bandwidth on them.
// Not being authenticated is not a mode: a value that is not a verified
// envelope is never admitted and weighs nothing.
//
// The lifecycle, layer by layer:
//
//   - Sign: the client (cmd/kvctl, or any holder of an auth.ClientSigner)
//     MACs (client, seq, payload) and submits the encoded envelope.
//   - Ingress: Replica.Submit (and the node's client protocol) verifies
//     the MAC and rejects replayed sequence numbers before anything is
//     queued — fabricated load never reaches a proposal.
//   - Choice: CommandChooser weighs a vote by its verified, non-replayed
//     commands (AuthContext.Weight). A batch containing even one
//     fabricated entry weighs zero — an honest proposer cannot produce
//     one — while replayed entries simply don't count, since honest
//     replicas do transiently re-propose committed commands when queues
//     diverge. A Byzantine proposer therefore cannot make forged or
//     replayed load dominate a decided batch: any honest proposal
//     outweighs it.
//   - Apply: the state machine (kv.Store) re-verifies the envelope and
//     deduplicates on (client, seq), giving at-most-once semantics with a
//     bounded per-client window that survives snapshot and restore.
//   - Audit: Cluster.CheckProvenance sweeps honest logs after a run and
//     fails if any decided entry is unauthenticated or any (client, seq)
//     committed twice — the invariant the fabrication soaks assert.
//
// The package is runtime-agnostic: Cluster and Pipeline drive instances
// through the in-memory simulator (one engine per instance, stepped
// round-robin so concurrent instances truly overlap in simulated time, with
// optional crash and Byzantine members), while the cmd/kvnode binary drives
// them over the TCP transport. Both claim, commit, restore and fast-forward
// through the same Replica and CommitQueue; only the scheduler — engine
// ticks here, dispatcher goroutines in internal/node — differs.
package smr

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

	"genconsensus/internal/adversary"
	"genconsensus/internal/core"
	"genconsensus/internal/model"
	"genconsensus/internal/sim"
	"genconsensus/internal/storage"
)

// NoOp is the command proposed by replicas with empty queues.
const NoOp = model.Value("__noop__")

// StateMachine is the deterministic application under replication.
// Implementations must be deterministic: identical command sequences yield
// identical states.
type StateMachine interface {
	// Apply executes a decided command and returns its response.
	Apply(cmd model.Value) string
}

// Log is a replica's decided-command sequence. Entries are individual
// commands: a decided batch appends one entry per command.
//
// Positions are global and stable across compaction: a snapshot manager
// may truncate the prefix below its checkpoint (TruncatePrefix), after
// which Len still reports the total number of decided commands ever
// appended and Get(i) still addresses command i — returning false for
// compacted positions, whose effects live on in the snapshot instead.
type Log struct {
	mu      sync.RWMutex
	base    uint64 // number of compacted entries; global index of entries[0]
	entries []model.Value
}

// Append adds a decided command.
func (l *Log) Append(cmd model.Value) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, cmd)
}

// AppendBatch adds a decided command sequence under one lock acquisition:
// committing a 128-command batch locks once, not 128 times.
func (l *Log) AppendBatch(cmds []model.Value) {
	if len(cmds) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, cmds...)
}

// Len returns the number of decided commands, including compacted ones:
// positions are batch-, pipeline- and compaction-transparent.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return int(l.base) + len(l.entries)
}

// FirstIndex returns the global index of the oldest retained entry: 0
// before any compaction, the snapshot index after.
func (l *Log) FirstIndex() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.base
}

// Get returns the i-th decided command, or false when i is out of range or
// compacted away.
func (l *Log) Get(i int) (model.Value, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if i < 0 || uint64(i) < l.base || i >= int(l.base)+len(l.entries) {
		return model.NoValue, false
	}
	return l.entries[uint64(i)-l.base], true
}

// Entries copies the retained entries (those at or above FirstIndex).
// Before PR 3 this method was named Snapshot; it was renamed to free the
// term for durable checkpoints (see SnapshotManager).
func (l *Log) Entries() []model.Value {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]model.Value(nil), l.entries...)
}

// Retained returns the first retained global index together with a copy of
// the retained entries, atomically — consistency checks need both from the
// same instant.
func (l *Log) Retained() (uint64, []model.Value) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.base, append([]model.Value(nil), l.entries...)
}

// Tail copies the retained entries from global index `from` on. It returns
// false when `from` addresses a compacted position (the caller needs a
// snapshot, not a log suffix).
func (l *Log) Tail(from uint64) ([]model.Value, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if from < l.base {
		return nil, false
	}
	if from > l.base+uint64(len(l.entries)) {
		return nil, false
	}
	return append([]model.Value(nil), l.entries[from-l.base:]...), true
}

// TruncatePrefix drops every entry below global index `index` (log
// compaction at a snapshot boundary). Truncating at or below FirstIndex is
// a no-op; truncating beyond Len is clamped.
func (l *Log) TruncatePrefix(index uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if index <= l.base {
		return
	}
	if end := l.base + uint64(len(l.entries)); index > end {
		index = end
	}
	drop := index - l.base
	// Copy the keepers to a fresh backing array so the dropped prefix is
	// actually released.
	kept := make([]model.Value, uint64(len(l.entries))-drop)
	copy(kept, l.entries[drop:])
	l.entries = kept
	l.base = index
}

// Reset discards the whole log and restarts it at global index `base`: the
// state below is covered by an installed snapshot.
func (l *Log) Reset(base uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.base = base
	l.entries = nil
}

// Replica is one member's SMR bookkeeping: a pending-command queue, the
// decided log and the application state machine.
type Replica struct {
	ID  model.PID
	SM  StateMachine
	Log *Log

	mu        sync.Mutex
	pending   []pendingCmd
	queued    map[[2]uint64]uint64 // identity of each pending command → its ordinal
	submitted uint64               // ordinal of the newest pending command
	maxBatch  int
	auth      *AuthContext
	store     storage.Backend
	storeErr  func(error)
	scratch   []model.Value // proposal staging, reused under mu
	metrics   Metrics       // zero value = disabled (see metrics.go)
}

// pendingCmd is one queued command under the (client, seq) Submit
// verified. pending is sorted by ordinal, so the queued index finds an
// identity's holder by binary search and nothing on the queue is ever
// looked up by its bytes.
type pendingCmd struct {
	v       model.Value
	ident   [2]uint64
	ordinal uint64
	decided bool // set by the Commit that is dropping it
}

// holderLocked returns the pending command queued under ident, if any.
// Callers hold r.mu.
func (r *Replica) holderLocked(ident [2]uint64) *pendingCmd {
	ordinal, ok := r.queued[ident]
	if !ok {
		return nil
	}
	i, _ := slices.BinarySearchFunc(r.pending, ordinal, func(p pendingCmd, o uint64) int {
		return cmp.Compare(p.ordinal, o)
	})
	return &r.pending[i]
}

// NewReplica builds a replica around the given state machine, proposing
// batches of up to MaxBatchSize commands. It starts with an authentication
// context that verifies nothing, so until SetCommandAuth installs the
// deployment's context it admits no command.
func NewReplica(id model.PID, sm StateMachine) *Replica {
	return &Replica{
		ID: id, SM: sm, Log: &Log{},
		queued:   make(map[[2]uint64]uint64),
		maxBatch: MaxBatchSize,
		auth:     NewAuthContext(verifyNothing{}, 0),
	}
}

// verifyNothing is the CommandAuth of a replica no context was installed
// on: no MAC verifies.
type verifyNothing struct{}

func (verifyNothing) VerifyCommand(uint32, uint64, []byte, []byte) bool    { return false }
func (verifyNothing) VerifyCommandStr(uint32, uint64, string, string) bool { return false }

// SetMaxBatch bounds the number of commands per proposed batch, clamped to
// [1, MaxBatchSize]. A bound of 1 reproduces the unbatched protocol.
func (r *Replica) SetMaxBatch(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case n < 1:
		r.maxBatch = 1
	case n > MaxBatchSize:
		r.maxBatch = MaxBatchSize
	default:
		r.maxBatch = n
	}
}

// SetCommandAuth installs the deployment's authentication context (not
// nil): Submit admits only command envelopes it verifies, with sequence
// numbers that have not committed, and Commit records committed
// (client, seq) pairs in its replay window. Call before commands flow.
func (r *Replica) SetCommandAuth(ax *AuthContext) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.auth = ax
}

// SetBackend gives the replica durable storage: LogDecision appends every
// decided instance to the backend's WAL before it is applied, and the
// snapshot manager (if any) persists checkpoints to the backend, paced by
// decided bytes, and truncates the WAL beneath them. onErr observes storage failures (nil
// ignores them): the commit paths deliberately prefer availability — a
// failing disk degrades the replica to in-memory operation rather than
// wedging the cluster's commit pipeline. Call before instances run.
func (r *Replica) SetBackend(b storage.Backend, onErr func(error)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store = b
	r.storeErr = onErr
}

// Backend returns the replica's durable storage (nil when memory-only).
func (r *Replica) Backend() storage.Backend {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store
}

// reportStorageErr forwards a storage failure to the installed observer.
func (r *Replica) reportStorageErr(err error) {
	r.mu.Lock()
	fn := r.storeErr
	r.mu.Unlock()
	if fn != nil && err != nil {
		fn(err)
	}
}

// LogDecision makes instance's decided value durable, write-ahead of the
// apply: CommitQueue.Deliver, the commit path of both runtimes, calls it
// the moment a decision is known, so a power loss between decide
// and apply replays the decision instead of forgetting it. Idempotent per
// instance and tolerant of out-of-order calls (pipelined instances decide
// out of order); a nil backend makes it a no-op.
func (r *Replica) LogDecision(instance uint64, decided model.Value) {
	if b := r.Backend(); b != nil {
		if err := b.AppendWAL(instance, decided); err != nil {
			r.reportStorageErr(fmt.Errorf("smr: wal append instance %d: %w", instance, err))
		}
	}
}

// Submit queues a client command for proposal. Inadmissible commands are
// dropped at the door: empty values, NoOp, batch-prefixed values (a command
// that parses as a batch could never be proposed and would wedge the queue
// head forever) and commands too large to ever fit a batch. The door also
// demands provenance: the command must be an envelope with a valid client
// MAC, a sequence number that has not already committed, and an identity
// no queued command already claims — re-submitting the queued bytes is
// idempotent, and an equivocating client signing the same seq over two
// payloads gets exactly one of them queued, so an honest batch can never
// carry both. The queued index keeps Submit O(log queue) under pipelined
// client load.
//
// It reports whether the command entered (or already occupied) the queue:
// false means the command was dropped and will never be proposed — ingress
// protocols use the report to tell the client instead of silently eating
// the write.
func (r *Replica) Submit(cmd model.Value) bool {
	if !Admissible(cmd) {
		return false
	}
	r.mu.Lock()
	ax, m := r.auth, r.metrics
	r.mu.Unlock()
	id := ax.identify(cmd)
	if !id.ok {
		return false
	}
	if ax.window.Seen(id.client, id.seq) {
		m.ReplayRejects.Inc()
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if holder := r.holderLocked(id.key()); holder != nil {
		if holder.v == cmd {
			return true // identical bytes already queued: idempotent
		}
		r.metrics.EquivEvictions.Inc() // another payload holds this (client, seq)
		return false
	}
	r.submitted++
	r.queued[id.key()] = r.submitted
	r.pending = append(r.pending, pendingCmd{v: cmd, ident: id.key(), ordinal: r.submitted})
	return true
}

// Proposal returns the value the replica proposes for the next instance: a
// batch of the first k pending commands (k ≤ the SetMaxBatch bound,
// encoded size ≤ MaxBatchBytes), or NoOp when the queue is empty. The
// queue is not consumed — commands leave it only when committed.
func (r *Replica) Proposal() model.Value {
	v, _ := r.ProposalAt(0, 0)
	return v
}

// ProposalAt builds a proposal from the disjoint queue slice starting at
// offset skip: up to limit commands of pending[skip:]. The pipeline assigns
// each in-flight instance a distinct offset so that W concurrent instances
// drain W disjoint slices instead of all proposing the queue head. A limit
// ≤ 0 means the SetMaxBatch bound, which caps any limit. It returns the
// proposal (NoOp when the slice is empty) and the number of commands
// claimed by it.
//
// Submit admits only commands that fit a batch, so the encoding cannot
// fail; the raw-head fallback is pure defence (a plain verified command
// still weighs 1 with the chooser, so the queue can never wedge).
func (r *Replica) ProposalAt(skip, limit int) (model.Value, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if skip < 0 {
		skip = 0
	}
	if skip >= len(r.pending) {
		return NoOp, 0
	}
	slice := r.pending[skip:]
	k, _ := r.batchSpan(slice, limit)
	r.scratch = r.scratch[:0]
	for _, p := range slice[:k] {
		r.scratch = append(r.scratch, p.v)
	}
	r.metrics.Proposals.Inc()
	r.metrics.BatchSize.Observe(uint64(k))
	batch, err := EncodeBatch(r.scratch)
	if err != nil {
		return slice[0].v, 1
	}
	return batch, k
}

// batchSpan sizes one batch from the head of slice: the SetMaxBatch bound
// (lowered by a positive limit), then shrunk until the encoding fits
// MaxBatchBytes. It returns the commands taken and whether they fill a
// whole batch — a cap stopped them, not the end of the slice. Callers hold
// r.mu.
func (r *Replica) batchSpan(slice []pendingCmd, limit int) (k int, full bool) {
	bound := r.maxBatch
	if limit > 0 && limit < bound {
		bound = limit
	}
	k = min(bound, len(slice))
	// Shrink until the encoding fits MaxBatchBytes. Encoding overhead per
	// command is small (len + 2 separators), so budget on raw bytes first.
	for ; k > 1; k-- {
		total := len(batchMagic) + 8
		for _, p := range slice[:k] {
			total += len(p.v) + 8
		}
		if total <= MaxBatchBytes {
			break
		}
	}
	return k, k == bound || k < len(slice)
}

// spanAt is batchSpan over the queue slice from offset skip ≥ 0, at the
// SetMaxBatch bound: what a Claim at that offset would take.
func (r *Replica) spanAt(skip int) (k int, full bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if skip >= len(r.pending) {
		return 0, false
	}
	return r.batchSpan(r.pending[skip:], 0)
}

// Commit records a decided value: each command it stands for (every command
// of a batch, in order) is appended to the log, removed from the pending
// queue and applied to the state machine (NoOp is appended but not
// applied). It returns one response per applied command.
//
// The queue is pruned by identity, not by exact bytes: a pending command
// whose (client, seq) just committed under different payload bytes — an
// equivocating but provisioned client signed the same seq twice — or whose
// seq is already below the replay horizon will never carry weight again,
// and leaving such zombies queued would waste a batch slot every proposal
// and let the duplicate identity ride honest batches into the decided log.
func (r *Replica) Commit(decided model.Value) []string {
	cmds := Commands(decided)
	r.mu.Lock()
	ax, m := r.auth, r.metrics
	// Identify the decided commands once; the identities drive both the
	// queue pruning and the replay-window update below. A decided command's
	// queued namesake is marked through the index, so the filter pass below
	// needs no set of what was decided.
	decidedIDs := make([]cmdIdent, len(cmds))
	for i, cmd := range cmds {
		if cmd == NoOp {
			continue
		}
		if id := ax.identify(cmd); id.ok {
			decidedIDs[i] = id
			if p := r.holderLocked(id.key()); p != nil {
				p.decided = true
			}
		}
	}
	// One filter pass keeps the commit O(queue) regardless of batch size,
	// under one hold of the window lock. Pruning by identity subsumes
	// pruning by bytes: byte-identical values share an identity, Submit
	// admits only verified entries, and a decided value that fails
	// verification can never share bytes with a verified pending one. It
	// also drops zombies — pending payloads whose (client, seq) just
	// committed under different bytes, or whose seq fell below the replay
	// horizon. The survivors keep their order: CommitQueue's claim offsets
	// are positions in this slice.
	ax.window.mu.Lock()
	kept := r.pending[:0]
	for _, p := range r.pending {
		if p.decided || ax.window.seenLocked(uint32(p.ident[0]), p.ident[1]) {
			delete(r.queued, p.ident)
			continue
		}
		kept = append(kept, p)
	}
	ax.window.mu.Unlock()
	r.pending = kept
	r.mu.Unlock()
	r.Log.AppendBatch(cmds)
	m.Decisions.Inc()
	// Commits counts unique applies: a command a pipelined peer legitimately
	// re-decided (queue-divergence duplicate) is already in the replay
	// window and does not mutate state a second time.
	applied := uint64(0)
	responses := make([]string, 0, len(cmds))
	for i, cmd := range cmds {
		if cmd == NoOp {
			responses = append(responses, "")
			continue
		}
		responses = append(responses, r.SM.Apply(cmd))
		// Commit order defines the replay horizon: from here on the chooser
		// refuses to weigh this (client, seq) again and Submit bounces
		// client retries of it.
		if id := decidedIDs[i]; id.ok && ax.window.record(id.client, id.seq) {
			applied++
		}
	}
	m.Commits.Add(applied)
	return responses
}

// PendingLen reports the queue length.
func (r *Replica) PendingLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// Cluster is a simulation-backed SMR deployment: n replicas deciding a
// shared log through successive consensus instances. Members can be marked
// crashed (silent from the next instance on) or Byzantine (driven by an
// adversary.Strategy instead of the honest algorithm), within the f and b
// budgets of the parameterization.
//
// Every member commits through its own CommitQueue, the queue the TCP node
// runs: a Pipeline (RunInstance and Drain are depth-1 Pipelines) claims
// each live member's proposal from it and delivers each decision to it,
// and Recover and PowerCycle fast-forward it with InstallSnapshot.
//
// Cluster is safe for concurrent use: Submit, PendingTotal and the fault
// injectors may race with a running Pipeline (concurrent client load is the
// whole point of pipelining). Instance execution itself is driven by one
// scheduler goroutine — RunInstance and Pipeline.Drain must not be invoked
// concurrently with each other.
type Cluster struct {
	params    core.Params
	replicas  []*Replica
	seed      int64
	smFactory func(model.PID) StateMachine

	mu        sync.Mutex
	queues    []*CommitQueue // one per member
	instance  uint64
	byzantine map[model.PID]adversary.Strategy
	crashed   map[model.PID]bool
	managers  []*SnapshotManager // nil until EnableSnapshots
	snapCfg   SnapshotConfig     // valid while managers != nil
	authCtx   *AuthContext
	backends  []storage.Backend // nil until EnableStorage
	digests   *DigestTable      // nil until EnableDigestVotes
}

// Errors returned by the cluster.
var (
	ErrInstanceFailed = errors.New("smr: consensus instance did not decide")
	ErrDiverged       = errors.New("smr: replica logs diverged")
	ErrFaultBudget    = errors.New("smr: fault budget exceeded")
)

// CommandChooser is the line-11 choice rule for SMR instances: among the
// votes it prefers the value committing the most fresh authenticated
// commands — the largest batch of verified, not yet committed envelopes,
// with a plain envelope weighing one — breaking weight ties by smallest
// value, so identical vectors choose identically everywhere. Everything
// else weighs zero and is never preferred over real commands: NoOp,
// malformed or oversized batches, a batch carrying even one fabricated
// entry, a value that is not an envelope at all. Forged or replayed load
// therefore never dominates an honest proposal (the command lifecycle in
// the package doc). With no weighted vote the chooser returns NoOp, never
// an unverified vote. Safety does not rest on the rule: the chooser runs
// only when FLV returns "?" (any value may be selected).
type CommandChooser struct {
	// Auth verifies provenance; it is required.
	Auth *AuthContext
	// Resolve enables digest voting: votes carrying a content address are
	// resolved to the locally-held payload before weighing
	// (resolve-before-weigh). An unresolvable digest weighs zero — exactly
	// like a malformed batch — so a Byzantine proposer cannot win the
	// choice with a reference to bytes it never disseminated, and the
	// Byzantine-weight invariants above survive the digest indirection
	// unchanged. Nil prices every digest vote at zero.
	Resolve DigestResolver
}

// weight ranks one vote under the configured rule.
func (c CommandChooser) weight(v model.Value) int {
	if IsDigestVote(v) {
		if c.Resolve == nil {
			return 0
		}
		sum, ok := DigestKey(v)
		if !ok {
			return 0 // magic-prefixed junk, not a vote
		}
		resolved, ok := c.Resolve.ResolveDigest(sum)
		if !ok || IsDigestVote(resolved) {
			return 0 // unresolved here and now: worth nothing, fetched async
		}
		v = resolved
	}
	return c.Auth.Weight(v)
}

// Choose implements core.Chooser.
func (c CommandChooser) Choose(mu model.Received) (model.Value, bool) {
	best := model.NoValue
	bestWeight := 0
	for _, m := range mu {
		w := c.weight(m.Vote)
		if w == 0 {
			continue
		}
		if w > bestWeight || (w == bestWeight && m.Vote < best) {
			best, bestWeight = m.Vote, w
		}
	}
	if best != model.NoValue {
		return best, true
	}
	// No committable command among the votes. Falling back to any vote —
	// the minimum, say — could decide a fabricated value when every vote
	// is zero-weight (honest replicas proposed fully-replayed batches while
	// a Byzantine vote is the lexicographic minimum). NoOp is always safe
	// here — the chooser runs only when FLV returned "?" — and merely costs
	// the instance, like a zero-weight decision would have.
	return NoOp, true
}

// Name implements core.Chooser.
func (CommandChooser) Name() string { return "choose/smr-batch" }

// NewCluster builds n replicas over the given consensus parameterization,
// all sharing the command-authentication context ax: the chooser weighs
// provenance under it, and every replica verifies envelopes at ingress and
// records committed (client, seq) pairs in its replay window — honest
// replicas commit the same sequence, so one window serves ingress, choice
// and audit alike. smFactory supplies each replica's state machine
// instance (a kv.Store enables client authentication under ax itself). The
// line-11 chooser is replaced with CommandChooser (see its doc comment).
func NewCluster(params core.Params, ax *AuthContext, smFactory func(model.PID) StateMachine, seed int64) (*Cluster, error) {
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("smr: %w", err)
	}
	params.Chooser = CommandChooser{Auth: ax}
	c := &Cluster{
		params:    params,
		seed:      seed,
		smFactory: smFactory,
		byzantine: make(map[model.PID]adversary.Strategy),
		crashed:   make(map[model.PID]bool),
		authCtx:   ax,
	}
	for _, p := range model.AllPIDs(params.N) {
		r := NewReplica(p, smFactory(p))
		r.SetCommandAuth(ax)
		c.replicas = append(c.replicas, r)
		c.queues = append(c.queues, memberQueue(r, nil, 1))
	}
	return c, nil
}

// memberQueue builds a member's commit queue from instance first on. Each
// commit gives the member's snapshot manager (nil without snapshots) its
// checkpoint chance, as the node's commit hook does.
func memberQueue(r *Replica, mgr *SnapshotManager, first uint64) *CommitQueue {
	if mgr == nil {
		return NewCommitQueue(r, first, nil)
	}
	return NewCommitQueue(r, first, func(instance uint64, _ model.Value, _ []string) {
		mgr.MaybeSnapshot(instance)
	})
}

// Replica returns replica p.
func (c *Cluster) Replica(p model.PID) *Replica { return c.replicas[p] }

// EnableDigestVotes switches the cluster to digest voting over a shared
// DigestTable (the simulator's payload plane): every batch proposal is
// published to the table and replaced by its 32-byte digest vote, the
// chooser resolves digests before weighing, and decided digests resolve
// back to their batches before commit. Must be called before instances
// run. Returns the table so tests can inspect or poison it.
func (c *Cluster) EnableDigestVotes() *DigestTable {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.digests == nil {
		c.digests = NewDigestTable()
	}
	c.params.Chooser = CommandChooser{Auth: c.authCtx, Resolve: c.digests}
	return c.digests
}

// AuthContext returns the cluster's command-authentication context.
func (c *Cluster) AuthContext() *AuthContext {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.authCtx
}

// SetBatchSize bounds every replica's proposals to n commands per batch.
func (c *Cluster) SetBatchSize(n int) {
	for _, r := range c.replicas {
		r.SetMaxBatch(n)
	}
}

// SetByzantine replaces member p's honest process with the given adversary
// strategy from the next instance on. The b budget of the parameterization
// is enforced.
func (c *Cluster) SetByzantine(p model.PID, s adversary.Strategy) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if int(p) < 0 || int(p) >= c.params.N {
		return fmt.Errorf("smr: no member %d", p)
	}
	if c.crashed[p] {
		return fmt.Errorf("%w: member %d already crashed", ErrFaultBudget, p)
	}
	if _, ok := c.byzantine[p]; !ok && len(c.byzantine) >= c.params.B {
		return fmt.Errorf("%w: %d Byzantine members, b=%d", ErrFaultBudget, len(c.byzantine)+1, c.params.B)
	}
	c.byzantine[p] = s
	return nil
}

// Crash silences member p from the next instance on (a benign fault: the
// member stops proposing, sending and committing). The f budget of the
// parameterization is enforced.
func (c *Cluster) Crash(p model.PID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if int(p) < 0 || int(p) >= c.params.N {
		return fmt.Errorf("smr: no member %d", p)
	}
	if _, ok := c.byzantine[p]; ok {
		return fmt.Errorf("%w: member %d already Byzantine", ErrFaultBudget, p)
	}
	if !c.crashed[p] && len(c.crashed) >= c.params.F {
		return fmt.Errorf("%w: %d crashed members, f=%d", ErrFaultBudget, len(c.crashed)+1, c.params.F)
	}
	c.crashed[p] = true
	return nil
}

// liveLocked reports whether member p participates in commits: honest and
// not crashed. Callers hold c.mu.
func (c *Cluster) liveLocked(p model.PID) bool {
	_, byz := c.byzantine[p]
	return !byz && !c.crashed[p]
}

// liveSet snapshots the current live membership, so iteration over replicas
// does not hold the cluster lock across replica operations.
func (c *Cluster) liveSet() map[model.PID]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	set := make(map[model.PID]bool, len(c.replicas))
	for _, r := range c.replicas {
		if c.liveLocked(r.ID) {
			set[r.ID] = true
		}
	}
	return set
}

// Submit delivers a client command following the PBFT client model: the
// client contacts every live replica, so each one queues (and eventually
// proposes) the command. With a single proposer the command could starve:
// once TD-b replicas propose NoOp, the FLV function rightfully treats NoOp
// as potentially locked and the chooser is never consulted.
func (c *Cluster) Submit(_ model.PID, cmd model.Value) {
	live := c.liveSet()
	for _, r := range c.replicas {
		if live[r.ID] {
			r.Submit(cmd)
		}
	}
}

// PendingTotal counts queued commands across live replicas.
func (c *Cluster) PendingTotal() int {
	live := c.liveSet()
	total := 0
	for _, r := range c.replicas {
		if live[r.ID] {
			total += r.PendingLen()
		}
	}
	return total
}

// liveQueues snapshots the commit queues of the live members.
func (c *Cluster) liveQueues() []*CommitQueue {
	c.mu.Lock()
	defer c.mu.Unlock()
	var qs []*CommitQueue
	for _, r := range c.replicas {
		if c.liveLocked(r.ID) {
			qs = append(qs, c.queues[r.ID])
		}
	}
	return qs
}

// ready reports whether some live member's commit queue is Ready with
// inflight instances running: the pipeline's start test.
func (c *Cluster) ready(inflight int) bool {
	for _, q := range c.liveQueues() {
		if q.Ready(inflight) {
			return true
		}
	}
	return false
}

// startEngine snapshots the current membership and proposals into a fresh
// simulation engine for the next instance. Each honest live member
// proposes its first unclaimed queue slice (CommitQueue.Claim); a crashed
// member proposes NoOp, claims nothing and is silent from round 1. It
// returns the engine and the instance number it was assigned.
func (c *Cluster) startEngine() (*sim.Engine, uint64, error) {
	c.mu.Lock()
	c.instance++
	instance := c.instance
	byz := maps.Clone(c.byzantine)
	crashed := maps.Clone(c.crashed)
	digests, queues := c.digests, c.queues
	c.mu.Unlock()

	inits := make(map[model.PID]model.Value, len(c.replicas))
	crashes := make(map[model.PID]sim.CrashPlan, len(crashed))
	for _, r := range c.replicas {
		switch _, isByz := byz[r.ID]; {
		case isByz:
		case crashed[r.ID]:
			inits[r.ID] = NoOp
			crashes[r.ID] = sim.CrashPlan{Round: 1}
		default:
			proposal := queues[r.ID].Claim(instance, 0)
			if digests != nil && IsBatch(proposal) {
				// Publish-then-vote: the batch reaches the payload plane
				// before any round carries its digest, mirroring the
				// transport's announce-before-round-1 ordering.
				proposal = digests.Put(proposal)
			}
			inits[r.ID] = proposal
		}
	}
	engine, err := sim.New(sim.Config{
		Params:    c.params,
		Inits:     inits,
		Byzantine: byz,
		Crashes:   crashes,
		Seed:      c.seed + int64(instance),
	})
	if err != nil {
		return nil, instance, fmt.Errorf("smr: instance %d: %w", instance, err)
	}
	return engine, instance, nil
}

// decisionOf audits a finished engine and extracts its decision.
func decisionOf(instance uint64, res sim.Result) (model.Value, error) {
	if !res.AllDecided {
		return model.NoValue, fmt.Errorf("%w: instance %d after %d rounds",
			ErrInstanceFailed, instance, res.Rounds)
	}
	if len(res.Violations) > 0 {
		return model.NoValue, fmt.Errorf("smr: instance %d violations: %s",
			instance, strings.Join(res.Violations, "; "))
	}
	for _, v := range res.Decisions {
		return v, nil
	}
	return model.NoValue, fmt.Errorf("%w: instance %d produced no decision", ErrInstanceFailed, instance)
}

// deliver hands instance's decision to every live member's commit queue,
// which logs it write-ahead and commits it in instance order, and returns
// the value delivered. A decided digest is resolved first: the WAL, the log
// and the state machine only ever store real batches. An unresolvable
// decided digest cannot name honest bytes (honest proposers publish before
// voting, and resolve-before-weigh prices unpublished references at zero),
// so it degrades to NoOp — uniformly at every member, since the table is
// shared — and costs the instance, never safety.
func (c *Cluster) deliver(instance uint64, decided model.Value) model.Value {
	c.mu.Lock()
	digests := c.digests
	c.mu.Unlock()
	if digests != nil && IsDigestVote(decided) {
		sum, ok := DigestKey(decided)
		decided = NoOp
		if ok {
			if resolved, found := digests.ResolveDigest(sum); found {
				decided = resolved
			}
		}
	}
	for _, q := range c.liveQueues() {
		q.Deliver(instance, decided)
	}
	return decided
}

// RunInstance executes one consensus instance over the live members'
// current proposals and commits the decision at every live member: a
// depth-1 Pipeline that starts exactly one instance, even over empty
// queues. Crashed members fall silent in round 1; Byzantine members run
// their strategies. It returns the decided value (a batch, a plain command
// or NoOp; a decided digest comes back resolved). An instance that fails to
// decide leaves its number uncommitted, so later decisions buffer behind
// it: the error is terminal for the cluster.
func (c *Cluster) RunInstance() (model.Value, error) { return NewPipeline(c, 1).run() }

// Drain runs instances until every queued command is decided (bounded by
// maxInstances): a depth-1 Pipeline.Drain.
func (c *Cluster) Drain(maxInstances int) error { return NewPipeline(c, 1).Drain(maxInstances) }

// CheckConsistency verifies the SMR safety invariant over honest members:
// all live replica logs are identical, and every crashed replica's log is a
// prefix of them. Byzantine members are unconstrained and skipped.
//
// Compaction-awareness: positions are global (Log.Len counts compacted
// entries too), so the check compares the overlap of each pair's retained
// windows. Entries below a replica's snapshot index are covered by its
// checkpoint digest instead — identical digests are enforced at transfer
// time (b+1 matching peers), not here.
func (c *Cluster) CheckConsistency() error {
	live := c.liveSet()
	c.mu.Lock()
	byzSet := make(map[model.PID]bool, len(c.byzantine))
	for p := range c.byzantine {
		byzSet[p] = true
	}
	crashedSet := make(map[model.PID]bool, len(c.crashed))
	for p := range c.crashed {
		crashedSet[p] = true
	}
	c.mu.Unlock()
	var refFirst uint64
	var ref []model.Value
	refLen := 0
	haveRef := false
	for _, r := range c.replicas {
		if live[r.ID] {
			refFirst, ref = r.Log.Retained()
			refLen = int(refFirst) + len(ref)
			haveRef = true
			break
		}
	}
	if !haveRef {
		return nil
	}
	for _, r := range c.replicas {
		if byzSet[r.ID] {
			continue
		}
		first, entries := r.Log.Retained()
		total := int(first) + len(entries)
		if crashedSet[r.ID] {
			if total > refLen {
				return fmt.Errorf("%w: crashed member %d has %d entries, live logs have %d",
					ErrDiverged, r.ID, total, refLen)
			}
		} else if total != refLen {
			return fmt.Errorf("%w: lengths %d vs %d", ErrDiverged, refLen, total)
		}
		lo := refFirst
		if first > lo {
			lo = first
		}
		hi := uint64(refLen)
		if uint64(total) < hi {
			hi = uint64(total)
		}
		for i := lo; i < hi; i++ {
			want := ref[i-refFirst]
			got := entries[i-first]
			if want != got {
				return fmt.Errorf("%w: entry %d: %q vs %q", ErrDiverged, i, want, got)
			}
		}
	}
	return nil
}

// Errors returned by the provenance audit.
var (
	ErrUnauthenticated = errors.New("smr: unauthenticated command in decided log")
	ErrReplayCommitted = errors.New("smr: (client, seq) committed more than once")
)

// CheckProvenance verifies the command-provenance invariant over
// honest members' retained logs: every decided non-NoOp entry is a command
// envelope with a valid client MAC (a Byzantine proposer got nothing
// fabricated, stripped or malformed past the choice rule), and no
// (client, seq) pair occupies two log positions (nothing replayed into the
// decided sequence). Byzantine members are unconstrained and skipped, like
// in CheckConsistency.
//
// The no-duplicate half is exact under serial instance execution
// (RunInstance/Drain), where every honest queue is pruned at each commit
// before the next proposal is built. Under pipelined execution honest
// replicas whose queues transiently diverge may legitimately re-propose a
// committed command (the claim policy documented on CommitQueue and
// Pipeline), so a duplicate there is not necessarily Byzantine — rely on
// the state machine's (client, seq) dedup for at-most-once instead of this
// audit.
func (c *Cluster) CheckProvenance() error {
	c.mu.Lock()
	ax := c.authCtx
	byzSet := make(map[model.PID]bool, len(c.byzantine))
	for p := range c.byzantine {
		byzSet[p] = true
	}
	c.mu.Unlock()
	for _, r := range c.replicas {
		if byzSet[r.ID] {
			continue
		}
		first, entries := r.Log.Retained()
		seen := make(map[[2]uint64]uint64, len(entries))
		for i, v := range entries {
			pos := first + uint64(i)
			if v == NoOp {
				continue
			}
			id := ax.identify(v)
			if !id.ok {
				return fmt.Errorf("%w: member %d position %d: %q",
					ErrUnauthenticated, r.ID, pos, v)
			}
			if prev, dup := seen[id.key()]; dup {
				return fmt.Errorf("%w: member %d client %d seq %d at positions %d and %d",
					ErrReplayCommitted, r.ID, id.client, id.seq, prev, pos)
			}
			seen[id.key()] = pos
		}
	}
	return nil
}
