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
//   - Pipelining: the TCP node (internal/node) runs up to its Pipeline
//     bound of consensus instances concurrently (PBFT-style), so instance
//     k+1's selection rounds overlap instance k's decision round instead
//     of waiting for it. In-flight instances drain disjoint slices of the
//     pending queue (CommitQueue.Claim and Reserve), decisions may arrive
//     out of instance order, and each replica's CommitQueue holds
//     decided-but-not-yet-applicable batches so that it applies instance k
//     strictly before instance k+1. Safety therefore never depends on the
//     pipeline: reordered decisions change only when a batch commits, not
//     what the log contains. The simulator's Cluster runs one instance at
//     a time through the same CommitQueue.
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
//   - Checkpoint: every member checkpoints — in both runtimes — through a
//     SnapshotManager that Restore hooks into its commit queue. At each
//     Interval boundary (DefaultSnapshotInterval unless configured) it
//     marks the state machine (snapshot.Snapshotter.Mark), which keeps the
//     boundary's state copy-on-write beside the live one, and records the
//     instance watermark and the global log index it covers — work
//     proportional to the keys written in the interval, not to the state,
//     and no command is applied twice. The snapshot.Snapshot itself (the
//     deterministic state encoding and its digest) is produced from the
//     mark when someone asks: a recovering peer, a durable backend.
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
//   - Recovery: a node that fell behind or restarted re-enters through
//     internal/node's catch-up path. It installs a snapshot verified by b+1
//     matching digests (transport.FetchVerifiedSnapshot, behind the
//     transport layer's chunked, session-authenticated state-transfer
//     exchange), so a Byzantine minority cannot feed it forged state,
//     through CommitQueue.InstallSnapshot: SnapshotManager.Install
//     restores the state machine and resets the log to the snapshot index
//     under the queue lock, and the queue drops the buffered decisions and
//     claims the snapshot covers. The gap between the newest checkpoint
//     and the cluster head — instances peers have committed, released and
//     will never run again — is bridged by b+1-verified cached decisions
//     (transport.FetchVerifiedDecision), so a laggard converges even when
//     no new checkpoint is coming. The simulator recovers no one: a
//     crashed member there stays down.
//
// # Durability and recovery ordering
//
// Snapshots and decision caches solve crash recovery only while someone
// stays up: a whole-cluster power cycle used to erase every checkpoint and
// every log at once. The storage layer (internal/storage) closes that gap
// with two durable structures per replica, and one rule about the order
// recovery consults them:
//
//   - Write-ahead decision log: the moment an instance's decision is known
//     — CommitQueue.Deliver, even while the decision buffers behind a
//     gap — Replica.LogDecision appends (instance, value) to the
//     backend's CRC-framed WAL, before the batch is applied. Appends are
//     idempotent per instance and may arrive out of order (pipelining);
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
//   - Recovery ordering — disk first, then peers: Restore, the function
//     a node's Start builds its member by, loads the newest verified local
//     checkpoint, installs it, starts a fresh CommitQueue at the next
//     instance and replays the WAL above it through the queue
//     (CommitQueue.ReplayWAL; the node also reseeds its decision ring
//     there, so it can serve laggard peers). Only then does a node probe
//     peers for anything newer (the b+1-verified snapshot and decision
//     transfer). After a whole-cluster outage there are no live peers to
//     ask — disk-first is what makes the full power cycle
//     (TestKVNodePowerCycle) converge from local state alone. The record
//     of which (client, seq) committed is the state machine's dedup
//     windows, restored with it. The simulator's members have no backend,
//     so Restore starts them empty.
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
// AuthContext per deployment answers every verification question, so a
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
//     the MAC and rejects sequence numbers the member's state machine has
//     applied (StateMachine.SeqApplied) before anything is queued —
//     fabricated load never reaches a proposal.
//   - Choice: CommandChooser weighs a vote by its verified, pairwise
//     distinct commands (AuthContext.Weight), a function of the vote
//     alone, so every correct member given one vector selects one value,
//     as Algorithm 1's line 11 needs. A batch containing even one
//     fabricated entry weighs zero — an honest proposer cannot produce one
//     — so forged load never dominates an honest proposal. A replayed
//     batch of genuine commands does weigh its entries: when it wins, the
//     instance commits nothing new (Apply below) and the honest commands
//     stay queued for the next.
//   - Apply: the state machine (kv.Store) re-verifies the envelope and
//     deduplicates on (client, seq), giving at-most-once semantics with a
//     bounded per-client window that survives snapshot and restore. That
//     window is the member's one record of what committed: ingress and
//     queue pruning ask it, and keep replays out locally; the chooser
//     never does.
//   - Audit: Cluster.CheckProvenance sweeps honest logs after a run and
//     fails if any decided entry is unauthenticated or any (client, seq)
//     occupies two log positions — the invariant the fabrication soaks
//     assert. The weight counts replayed commands, so its no-duplicate
//     half rests on the simulator's honest queues, pruned at every commit
//     before the next proposal, and on FLV locking an honest value before
//     a Byzantine replay reaches the chooser, as it has in every soak.
//
// The package is runtime-agnostic: Cluster drives instances through the
// in-memory simulator (one engine per instance, run to its decision before
// the next starts, with optional crash and Byzantine members), while the
// cmd/kvnode binary drives them over the TCP transport with several in
// flight. Both build a member one way — a Replica, a SnapshotManager and
// the CommitQueue Restore returns — vote a batch by digest under one
// announce rule (ByDigest), and claim, commit and checkpoint through the
// same code; only the scheduler — a serial loop here, dispatcher
// goroutines in internal/node — and the payload plane — a shared
// DigestTable here, the transport's announce and fetch there — differ.
// Durability and recovery belong to the node alone: its members run over
// a storage backend and rejoin through the catch-up path, while the
// simulator's are memory-only and a crashed one stays down.
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
	// SeqApplied reports whether the command (client, seq) has been
	// applied: the member's record of what committed, which its ingress
	// and queue pruning consult. A state machine that keeps no such record
	// answers false. Commit asks it under the replica's lock, so it must
	// not call back into the Replica.
	SeqApplied(client uint32, seq uint64) bool
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

// TruncatePrefix drops every entry below global index `index` (log
// compaction at a snapshot boundary) and returns the dropped commands'
// bytes. Truncating at or below FirstIndex is a no-op; truncating beyond
// Len is clamped.
func (l *Log) TruncatePrefix(index uint64) (n uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if index <= l.base {
		return 0
	}
	if end := l.base + uint64(len(l.entries)); index > end {
		index = end
	}
	drop := index - l.base
	for _, cmd := range l.entries[:drop] {
		n += uint64(len(cmd))
	}
	// Copy the keepers to a fresh backing array so the dropped prefix is
	// actually released.
	kept := make([]model.Value, uint64(len(l.entries))-drop)
	copy(kept, l.entries[drop:])
	l.entries = kept
	l.base = index
	return n
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
// numbers the state machine has not applied. Call before commands flow.
func (r *Replica) SetCommandAuth(ax *AuthContext) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.auth = ax
}

// SetBackend gives the replica durable storage (nil for none):
// LogDecision appends every decided instance to the backend's WAL before
// it is applied, and the snapshot manager persists checkpoints to the
// backend, paced by decided bytes, and truncates the WAL beneath them.
// onErr observes storage failures (nil ignores them): the commit paths
// deliberately prefer availability — a failing disk degrades the replica
// to in-memory operation rather than wedging the cluster's commit
// pipeline. Call before instances run.
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
	if r.SM.SeqApplied(id.client, id.seq) {
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
// offset skip: up to limit commands of pending[skip:]. A pipelined
// scheduler (CommitQueue.Claim) assigns each in-flight instance a distinct
// offset so that W concurrent instances drain W disjoint slices instead of
// all proposing the queue head. A limit
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
// equivocating but provisioned client signed the same seq twice — or that
// the state machine already counts as applied will never apply again, and
// leaving such zombies queued would waste a batch slot every proposal and
// let the duplicate identity ride honest batches into the decided log.
func (r *Replica) Commit(decided model.Value) []string {
	cmds := Commands(decided)
	r.mu.Lock()
	ax, m := r.auth, r.metrics
	// Identify the decided commands once; the identities drive both the
	// queue pruning and the unique-apply count below. A decided command's
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
	// One filter pass keeps the commit O(queue) regardless of batch size.
	// Pruning by identity subsumes pruning by bytes: byte-identical values
	// share an identity, Submit admits only verified entries, and a decided
	// value that fails verification can never share bytes with a verified
	// pending one. It also drops zombies — pending payloads whose
	// (client, seq) just committed under different bytes, or that the state
	// machine already counts as applied. The survivors keep their order:
	// CommitQueue's claim offsets are positions in this slice.
	prune := func(applied func(client uint32, seq uint64) bool) {
		kept := r.pending[:0]
		for _, p := range r.pending {
			if p.decided || applied(uint32(p.ident[0]), p.ident[1]) {
				delete(r.queued, p.ident)
				continue
			}
			kept = append(kept, p)
		}
		r.pending = kept
	}
	if pass, ok := r.SM.(seqsApplied); ok {
		pass.SeqsApplied(prune)
	} else {
		prune(r.SM.SeqApplied)
	}
	r.mu.Unlock()
	r.Log.AppendBatch(cmds)
	m.Decisions.Inc()
	// Commits counts unique applies: a command a pipelined peer legitimately
	// re-decided (queue-divergence duplicate) has already applied and does
	// not mutate state a second time. From its apply on, Submit bounces
	// client retries of this (client, seq). Duplicates counts the rest,
	// which applied nothing new.
	applied, duplicates := uint64(0), uint64(0)
	responses := make([]string, 0, len(cmds))
	for i, cmd := range cmds {
		if cmd == NoOp {
			responses = append(responses, "")
			continue
		}
		if id := decidedIDs[i]; id.ok && !r.SM.SeqApplied(id.client, id.seq) {
			applied++
		} else {
			duplicates++
		}
		responses = append(responses, r.SM.Apply(cmd))
	}
	m.Commits.Add(applied)
	m.Duplicates.Add(duplicates)
	return responses
}

// seqsApplied is a StateMachine that answers SeqApplied for a whole pass
// under one lock, as kv.Store does: Commit's pruning pass asks about every
// queued command.
type seqsApplied interface {
	SeqsApplied(fn func(applied func(client uint32, seq uint64) bool))
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
// Every member has the shape a TCP node has: a replica, a snapshot
// manager checkpointing every SnapshotInterval instances, and a commit
// queue built by Restore, the queue the node runs. RunInstance claims
// each live member's proposal from its queue, votes a batch by digest
// under the node's announce rule (ByDigest) over the cluster's
// DigestTable, and delivers the decision to every live queue, one
// instance at a time. Members are memory-only, and a crashed member stays
// down: durability and rejoin are tested where they ship, in Restore's
// and storage.Disk's unit tests and in internal/node over TCP.
//
// Cluster is safe for concurrent use: Submit, PendingTotal and the fault
// injectors may race with a running Drain (clients do not wait for the
// cluster to go idle). Instances themselves run on one goroutine —
// RunInstance and Drain must not be invoked concurrently with each other.
type Cluster struct {
	params    core.Params
	seed      int64
	smFactory func(model.PID) StateMachine
	cfg       ClusterConfig
	authCtx   *AuthContext
	digests   *DigestTable // the payload plane every member publishes to

	mu        sync.Mutex
	replicas  []*Replica
	managers  []*SnapshotManager
	queues    []*CommitQueue
	instance  uint64
	byzantine map[model.PID]adversary.Strategy
	crashed   map[model.PID]bool
}

// ClusterConfig is what every simulated member is built from, the
// simulator's counterpart of the node's Config: the zero value is a
// memory-only cluster at the node's defaults.
type ClusterConfig struct {
	// MaxBatch bounds commands per batch (default MaxBatchSize).
	MaxBatch int
	// SnapshotInterval checkpoints every K committed instances (default
	// DefaultSnapshotInterval).
	SnapshotInterval uint64
}

// Errors returned by the cluster.
var (
	ErrInstanceFailed = errors.New("smr: consensus instance did not decide")
	ErrDiverged       = errors.New("smr: replica logs diverged")
	ErrFaultBudget    = errors.New("smr: fault budget exceeded")
)

// CommandChooser is the line-11 choice rule for SMR instances: among the
// votes it prefers the value carrying the most authenticated commands —
// the largest batch of verified, pairwise-distinct envelopes, with a plain
// envelope weighing one — breaking weight ties by smallest value. The
// weight reads the vote and no member state, so identical vectors choose
// identically everywhere, however far apart the members' commits are.
// Everything else weighs zero and is never preferred over real commands:
// NoOp, malformed or oversized batches, a batch carrying even one
// fabricated entry, a value that is not an envelope at all. Forged load
// therefore never dominates an honest proposal; replayed load may, and
// then costs one instance that commits nothing new (the command lifecycle
// in the package doc). With no weighted vote the chooser returns NoOp,
// never an unverified vote. Safety does not rest on the rule: the chooser
// runs only when FLV returns "?" (any value may be selected).
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
	// No authenticated command among the votes. Falling back to any vote —
	// the minimum, say — could decide a fabricated value when every vote
	// is zero-weight (honest replicas proposed NoOp while a Byzantine vote
	// is the lexicographic minimum). NoOp is always safe here — the chooser
	// runs only when FLV returned "?" — and merely costs the instance, like
	// a zero-weight decision would have.
	return NoOp, true
}

// Name implements core.Chooser.
func (CommandChooser) Name() string { return "choose/smr-batch" }

// NewCluster builds n members over the given consensus parameterization
// and cfg, all sharing the command-verification cache ax: the chooser
// weighs provenance under it, and every replica verifies envelopes at
// ingress. What committed is each member's own record, its state machine's
// SeqApplied, which ingress and queue pruning ask and the chooser does
// not. smFactory supplies each replica's state machine, which must
// implement snapshot.Snapshotter (a kv.Store does, and enables client
// authentication under ax itself). Each member is built by Restore, as a
// node starts, over no backend. The line-11 chooser is replaced with
// CommandChooser (see its doc comment), resolving digests against the
// cluster's DigestTable: one chooser for every process, in the shape the
// node builds.
func NewCluster(params core.Params, ax *AuthContext, smFactory func(model.PID) StateMachine, seed int64, cfg ClusterConfig) (*Cluster, error) {
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("smr: %w", err)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = MaxBatchSize
	}
	if cfg.SnapshotInterval == 0 {
		cfg.SnapshotInterval = DefaultSnapshotInterval
	}
	digests := NewDigestTable()
	c := &Cluster{
		params:    params,
		seed:      seed,
		smFactory: smFactory,
		cfg:       cfg,
		authCtx:   ax,
		digests:   digests,
		byzantine: make(map[model.PID]adversary.Strategy),
		crashed:   make(map[model.PID]bool),
	}
	c.params.Chooser = CommandChooser{Auth: ax, Resolve: digests}
	for _, p := range model.AllPIDs(params.N) {
		r, mgr, q, err := c.member(p)
		if err != nil {
			return nil, fmt.Errorf("smr: member %d: %w", p, err)
		}
		c.replicas = append(c.replicas, r)
		c.managers = append(c.managers, mgr)
		c.queues = append(c.queues, q)
	}
	return c, nil
}

// member builds member p the way a node starts, without a backend: a fresh
// replica and state machine under the cluster's configuration, its
// snapshot manager, and the commit queue Restore builds over them.
func (c *Cluster) member(p model.PID) (*Replica, *SnapshotManager, *CommitQueue, error) {
	r := NewReplica(p, c.smFactory(p))
	r.SetMaxBatch(c.cfg.MaxBatch)
	r.SetCommandAuth(c.authCtx)
	mgr, err := NewSnapshotManager(r, SnapshotConfig{Interval: c.cfg.SnapshotInterval})
	if err != nil {
		return nil, nil, nil, err
	}
	q, _, err := Restore(r, mgr, nil, nil)
	return r, mgr, q, err
}

// Replica returns replica p.
func (c *Cluster) Replica(p model.PID) *Replica { return c.replicas[p] }

// Digests returns the cluster's payload plane: every batch proposal is
// published to it before its digest is voted, and decided digests resolve
// against it. Tests inspect or poison it.
func (c *Cluster) Digests() *DigestTable { return c.digests }

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

// startEngine snapshots the current membership and proposals into a fresh
// simulation engine for the next instance. Each honest live member
// proposes its first unclaimed queue slice (CommitQueue.Claim), by digest
// when the announce rule says so (ByDigest); a crashed member proposes
// NoOp, claims nothing and is silent from round 1. It returns the engine
// and the instance number it was assigned.
func (c *Cluster) startEngine() (*sim.Engine, uint64, error) {
	c.mu.Lock()
	c.instance++
	instance := c.instance
	byz := maps.Clone(c.byzantine)
	crashed := maps.Clone(c.crashed)
	queues := c.queues
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
			if ByDigest(proposal) {
				// Publish-then-vote: the batch reaches the payload plane
				// before any round carries its digest, mirroring the
				// transport's announce-before-round-1 ordering.
				proposal = c.digests.Put(proposal)
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
	if IsDigestVote(decided) {
		sum, ok := DigestKey(decided)
		decided = NoOp
		if ok {
			if resolved, found := c.digests.ResolveDigest(sum); found {
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
// current proposals and commits the decision at every live member. It
// starts exactly one instance, even over empty queues. Crashed members
// fall silent in round 1; Byzantine members run their strategies. It
// returns the decided value (a batch, a plain command or NoOp; a decided
// digest comes back resolved). An instance that fails to decide leaves its
// number uncommitted, so later decisions buffer behind it: the error is
// terminal for the cluster.
func (c *Cluster) RunInstance() (model.Value, error) {
	engine, instance, err := c.startEngine()
	if err != nil {
		return model.NoValue, err
	}
	decided, err := decisionOf(instance, engine.Run())
	if err != nil {
		return model.NoValue, err
	}
	return c.deliver(instance, decided), nil
}

// Drain runs instances one at a time until no live member has a pending
// command, starting one while some live member's commit queue is Ready
// (any unclaimed command, with nothing in flight) and fewer than
// maxInstances have started. Pending commands no instance may claim mean
// a stalled queue, and an error.
func (c *Cluster) Drain(maxInstances int) error {
	ready := func() bool {
		for _, q := range c.liveQueues() {
			if q.Ready(0) {
				return true
			}
		}
		return false
	}
	started := 0
	for {
		if started < maxInstances && ready() {
			if _, err := c.RunInstance(); err != nil {
				return err
			}
			started++
			continue
		}
		pending := c.PendingTotal()
		if pending == 0 {
			return nil
		}
		// A Submit that raced the start test is picked up next pass.
		if started >= maxInstances || !ready() {
			return fmt.Errorf("smr: %d commands still pending after %d instances", pending, started)
		}
	}
}

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
// The no-duplicate half is exact because the Cluster runs one instance at
// a time: every honest queue is pruned at each commit before the next
// proposal is built. Where instances overlap (the TCP node), honest
// replicas whose queues transiently diverge may legitimately re-propose a
// committed command (the claim policy documented on CommitQueue), so a
// duplicate there is not necessarily Byzantine — the state machine's
// (client, seq) dedup gives at-most-once instead.
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
