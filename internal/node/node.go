// Package node is the reusable replica server behind cmd/kvnode: one
// cluster member replicating a kv.Store over the full stack — TCP
// transport, pipelined consensus dispatcher, in-order commit queue,
// batching, snapshot checkpoints and the crash-recovery path — plus the
// line-oriented client protocol. cmd/kvnode is a thin flag wrapper around it; the repo benchmark
// (bench/) stands up whole in-process clusters of them, and the
// crash-recovery e2e tests drive it directly. Every node runs exactly one
// consensus group.
//
// Every node checkpoints (every SnapshotInterval instances, 1024 by
// default), so its decided log and WAL stay bounded and a laggard can
// rejoin from a peer's checkpoint.
//
// Recovery lifecycle, disk first and peers second: on Start a node with a
// data directory restores its newest digest-verified local checkpoint and
// replays its write-ahead decision log through its commit queue
// (smr.Restore, the simulator's restore too; a whole-cluster power cycle
// converges from disk alone), then probes its peers for anything newer
// and installs the newest checkpoint backed by b+1 matching digests
// (transport.FetchVerifiedSnapshot), rejoining the pipeline at the
// restored watermark instead of instance 1. If the node later falls behind
// instances its peers have already committed, its commit watermark stalls,
// and the stall watcher's catch-up resyncs it: b+1-verified decisions from
// the peers' decision caches, or, past those, a verified snapshot covering
// the stuck instance, installed under the commit-queue lock
// (CommitQueue.InstallSnapshot) before the node fast-forwards. Either
// releases the instances it covers, which ends any worker still running
// them.
package node

import (
	"crypto/sha256"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/core"
	"genconsensus/internal/flv"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/obs"
	"genconsensus/internal/quorum"
	"genconsensus/internal/selector"
	"genconsensus/internal/smr"
	"genconsensus/internal/snapshot"
	"genconsensus/internal/storage"
	"genconsensus/internal/transport"
)

// Config assembles a replica server.
type Config struct {
	// ID is this member's process id; N the cluster size.
	ID model.PID
	N  int
	// B is the Byzantine budget; F the benign-crash budget. Every node runs
	// the class-3 algorithm (PBFT when F = 0), so New refuses N ≤ 3B+2F.
	B, F int
	// TD is the decision threshold, 2B+F < TD ≤ N-B-F (default 2B+F+1).
	TD int
	// Peers maps every process to its consensus address. May be installed
	// later with SetPeers when addresses are known only after binding.
	Peers map[model.PID]string
	// ListenAddr is the consensus listen address.
	ListenAddr string
	// ClientAddr, when non-empty, serves the kv client protocol.
	ClientAddr string
	// AuthSeed derives the cluster's pairwise MAC keys.
	AuthSeed int64
	// ClientAuth is kept for source compatibility only.
	//
	// Deprecated: ignored. Every node authenticates its clients: a client
	// opens a session (SHELLO) and writes with SCMD, the node verifies
	// provenance at ingress, the chooser weighs only authenticated commands,
	// and the state machine dedups on (client, seq).
	ClientAuth bool
	// NumClients provisions the client keyring (default 16). Clients
	// claiming ids outside it cannot open a session.
	NumClients int
	// ClientSeed derives per-client command keys (default AuthSeed). All
	// nodes and clients must agree.
	ClientSeed int64
	// MaxBatch bounds commands per consensus instance (default
	// smr.MaxBatchSize).
	MaxBatch int
	// Pipeline is the maximum number of concurrent instances (default 1). Beyond the first, an instance opens only when the
	// unclaimed commands fill a whole batch, so the cap is reached under
	// backlog, not at any load.
	Pipeline int
	// Shards is kept for source compatibility only.
	//
	// Deprecated: every node runs one consensus group. New accepts 0 or 1
	// and refuses anything larger.
	Shards int
	// SnapshotInterval checkpoints every K committed instances (0 means
	// smr.DefaultSnapshotInterval). Every node checkpoints: the checkpoint
	// compacts the decided log and the WAL, and is what a laggard installs
	// once its peers' decision caches no longer reach back to it.
	SnapshotInterval uint64
	// AppliedKeep is kept for source compatibility only.
	//
	// Deprecated: ignored. The request-id table it bounded is never
	// written by an authenticated store, whose per-client sequence windows
	// are bounded by construction.
	AppliedKeep int
	// DataDir enables durable storage: the write-ahead decision log and
	// the on-disk checkpoint store live here, one directory per replica.
	// On restart the node recovers disk-first — newest verified local
	// checkpoint, then WAL replay — before probing peers, which is what
	// survives a whole-cluster power cycle. Empty keeps the node
	// memory-only (the pre-durability behaviour).
	DataDir string
	// Fsync makes WAL appends and checkpoint writes durable against power
	// loss (not just process death). Costs a disk flush per FsyncBatch
	// appends.
	Fsync bool
	// FsyncBatch amortizes fsync over that many WAL appends (default 1:
	// every append). The last FsyncBatch-1 decisions may be lost to a
	// power cut — they are re-fetched from peers on restart.
	FsyncBatch int
	// BaseTimeout is the first round's deadline (default 50ms); each later
	// round adds the transport's fixed growth (20ms).
	BaseTimeout time.Duration
	// FetchTimeout bounds one snapshot fetch during recovery (default 2s).
	FetchTimeout time.Duration
	// StallTimeout is how long the commit watermark may sit still with
	// work outstanding before the node suspects it has been left behind and probes its peers for verified decisions or a newer
	// checkpoint (default 2s).
	StallTimeout time.Duration
	// ReadTimeout bounds one READ/MREAD read-index wait (default 5s). It
	// must comfortably exceed StallTimeout: a lagging replica's blocked
	// read is rescued by the stall watcher's catch-up, not abandoned.
	ReadTimeout time.Duration
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
	// Metrics supplies the node's instrument registry. Nil makes New create
	// one: metrics are always on (a handful of atomic adds per instance).
	Metrics *obs.Registry
	// EventLog receives structured JSONL events (recovery phases, decides,
	// handshakes, auth rejections). Nil with DataDir set makes New open
	// DataDir/events.log; nil without DataDir disables events.
	EventLog *obs.EventLog
}

// Node is one running replica server: the transport, the client listener
// and the node's SMR runtime — replica, commit queue, WAL and snapshot
// chain.
type Node struct {
	cfg       Config
	tn        *transport.Node
	clientLn  net.Listener
	keyring   *auth.ClientKeyring
	metrics   *obs.Registry
	events    *obs.EventLog // nil when disabled
	ownEvents bool          // New opened the log, Stop closes it

	params  core.Params // all but the chooser, which decideInstance builds per instance
	replica *smr.Replica
	store   *kv.Store // the replicated state machine
	mgr     *smr.SnapshotManager
	backend storage.Backend // nil when DataDir is unset
	commits *smr.CommitQueue
	authCtx *smr.AuthContext

	mu   sync.Mutex // guards next
	next uint64

	resyncMu sync.Mutex // serializes catch-up probes

	inflight atomic.Int32 // workers currently inside decideInstance

	// Node-layer instruments (nil = metrics disabled): commit latency from
	// dispatch to decision, catch-up and stall counts.
	commitNS *obs.Histogram
	catchups *obs.Counter
	stalls   *obs.Counter
	// lateDecisions counts instances this replica decided after phase 1
	// of Algorithm 1 (see decidedLate).
	lateDecisions *obs.Counter
	// adopted counts instances this replica followed by voting its owner's
	// proposal; fallbacks those where it proposed its own batch instead.
	adopted   *obs.Counter
	fallbacks *obs.Counter

	// Read-plane instruments: READ/MREAD keys served, read-index wait
	// latency, and GETs answered under the stale (no-freshness) contract.
	reads      *obs.Counter
	readWaitNS *obs.Histogram
	staleGets  *obs.Counter

	// kick wakes the dispatcher ahead of its poll tick: pulsed when a
	// client enqueues work and when a pipeline slot frees up. Together with
	// the transport's InstanceNotify it makes the instance schedule
	// event-driven — the poll interval is only a liveness backstop.
	kick chan struct{}

	started  atomic.Bool
	stopping atomic.Bool
	quit     chan struct{} // closed by Stop: wakes the goroutines that poll
	wg       sync.WaitGroup
}

// New binds the node's listeners and assembles the stack over store, the
// replicated state machine; Start launches it.
func New(cfg Config, store *kv.Store) (*Node, error) {
	if cfg.Shards > 1 {
		return nil, fmt.Errorf("node: Shards = %d: sharding was removed, every node runs one consensus group", cfg.Shards)
	}
	if err := checkUnsharded(cfg.DataDir); err != nil {
		return nil, err
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = smr.MaxBatchSize
	}
	if cfg.Pipeline < 1 {
		cfg.Pipeline = 1
	}
	if cfg.SnapshotInterval == 0 {
		cfg.SnapshotInterval = smr.DefaultSnapshotInterval
	}
	if cfg.BaseTimeout == 0 {
		cfg.BaseTimeout = 50 * time.Millisecond
	}
	if cfg.FetchTimeout == 0 {
		cfg.FetchTimeout = 2 * time.Second
	}
	if cfg.StallTimeout == 0 {
		cfg.StallTimeout = 2 * time.Second
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = 5 * time.Second
	}
	if cfg.TD == 0 {
		cfg.TD = quorum.MinTD(quorum.Class3, cfg.N, cfg.B, cfg.F)
	}
	// Every node runs Algorithm 1 with the class-3 FLV: (n, b, f, TD) must
	// lie inside Table 1's class-3 bounds for agreement and termination.
	if err := (quorum.Config{Class: quorum.Class3, N: cfg.N, B: cfg.B, F: cfg.F, TD: cfg.TD}).Validate(); err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.NumClients <= 0 {
		cfg.NumClients = 16
	}
	if cfg.ClientSeed == 0 {
		cfg.ClientSeed = cfg.AuthSeed
	}
	keyring := auth.NewClientKeyring(cfg.ClientSeed, cfg.NumClients)

	// Observability: the registry is always on; the event log defaults to
	// DataDir/events.log when the node has a data directory, so durable
	// deployments get a crash-surviving timeline for free.
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	events := cfg.EventLog
	ownEvents := false
	if events == nil && cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err == nil {
			if l, err := obs.OpenEventLog(filepath.Join(cfg.DataDir, "events.log"), int(cfg.ID)); err == nil {
				events = l
				ownEvents = true
			} else {
				cfg.Logf("node %d: opening event log: %v", cfg.ID, err)
			}
		}
	}

	baseParams := core.Params{
		N: cfg.N, B: cfg.B, F: cfg.F, TD: cfg.TD,
		Flag:       model.FlagPhase,
		FLV:        flv.NewClass3(cfg.N, cfg.TD, cfg.B, false),
		Selector:   selector.NewAll(cfg.N),
		UseHistory: true,
		// Every instance has one proposer (transport.Owner) whose batch
		// the others adopt, so a healthy instance starts from one value and
		// phase 1 needs no selection round (§3.1).
		SkipFirstSelection: true,
	}
	if err := baseParams.Validate(); err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}

	// The decision cache must outlast the snapshot interval: a laggard
	// installs the newest checkpoint (at most one interval behind the
	// head) and bridges the rest from cached decisions. Never below the
	// transport's own default. The byte budget is sized for the same
	// guarantee at the worst case (every cached decision a maximum-size
	// batch): the transport's own 4 MiB default would silently evict
	// decisions a laggard still needs under large snapshot intervals,
	// stranding it behind the head until the next checkpoint forms.
	decisionCache := int(cfg.SnapshotInterval) + 64
	if decisionCache < 256 {
		decisionCache = 256
	}
	tn, err := transport.Listen(transport.Config{
		ID: cfg.ID, N: cfg.N,
		Peers:              cfg.Peers,
		ListenAddr:         cfg.ListenAddr,
		AuthSeed:           cfg.AuthSeed,
		BaseTimeout:        cfg.BaseTimeout,
		DecisionCache:      decisionCache,
		DecisionCacheBytes: decisionCache * smr.MaxBatchBytes,
		Metrics:            reg,
		Events:             events,
	})
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}

	n := &Node{cfg: cfg, tn: tn, keyring: keyring,
		metrics: reg, events: events, ownEvents: ownEvents,
		params: baseParams, store: store, next: 1,
		kick: make(chan struct{}, 1), quit: make(chan struct{})}
	fail := func(err error) (*Node, error) {
		_ = tn.Close()
		if n.backend != nil {
			_ = n.backend.Close()
		}
		return nil, err
	}

	// Authenticated command lifecycle: one AuthContext serves ingress
	// verification, the provenance-checked chooser and the store's
	// apply-time check. What committed is the store's record alone.
	n.authCtx = smr.NewAuthContext(keyring, kv.DefaultSeqWindow)
	n.replica = smr.NewReplica(cfg.ID, store)
	n.replica.SetMaxBatch(cfg.MaxBatch)
	n.replica.SetCommandAuth(n.authCtx)
	// The context (not the bare keyring) lets the apply path answer from
	// the shared verdict cache instead of recomputing HMACs.
	store.EnableClientAuth(n.authCtx, kv.DefaultSeqWindow)
	// Instrument namespace: the "g0." prefix is kept from when a node ran
	// several consensus groups, because bench/, the smoke script and STATS
	// readers use these names. GaugeFuncs read live state at snapshot time
	// instead of maintaining redundant counters.
	const prefix = "g0."
	n.replica.SetMetrics(smr.MetricsFor(reg, prefix))
	n.commitNS = reg.Histogram(prefix + "node.commit_ns")
	n.catchups = reg.Counter(prefix + "node.catchups")
	n.stalls = reg.Counter(prefix + "node.stalls")
	n.lateDecisions = reg.Counter(prefix + "node.late_decisions")
	n.adopted = reg.Counter(prefix + "node.proposals_adopted")
	n.fallbacks = reg.Counter(prefix + "node.owner_fallbacks")
	n.reads = reg.Counter(prefix + "kv.reads")
	n.readWaitNS = reg.Histogram(prefix + "kv.read_wait_ns")
	n.staleGets = reg.Counter(prefix + "kv.stale_gets")
	reg.GaugeFunc(prefix+"node.inflight", func() int64 { return int64(n.inflight.Load()) })
	reg.GaugeFunc(prefix+"node.pending", func() int64 { return int64(n.replica.PendingLen()) })
	if cfg.DataDir != "" {
		backend, err := storage.OpenDisk(storage.DiskConfig{
			Dir:           cfg.DataDir,
			Fsync:         cfg.Fsync,
			FsyncBatch:    cfg.FsyncBatch,
			Logf:          cfg.Logf,
			Metrics:       reg,
			MetricsPrefix: prefix,
		})
		if err != nil {
			return fail(fmt.Errorf("node: %w", err))
		}
		n.backend = backend
		n.replica.SetBackend(backend, func(err error) {
			n.logf("storage degraded: %v", err)
			events.Emit("storage.degraded", "err", err)
		})
	}
	mgr, err := smr.NewSnapshotManager(n.replica, smr.SnapshotConfig{Interval: cfg.SnapshotInterval})
	if err != nil {
		return fail(fmt.Errorf("node: %w", err))
	}
	n.mgr = mgr
	tn.SetSnapshotProvider(mgr.Latest)
	if cfg.ClientAddr != "" {
		ln, err := net.Listen("tcp", cfg.ClientAddr)
		if err != nil {
			return fail(fmt.Errorf("node: client listen: %w", err))
		}
		n.clientLn = ln
	}
	return n, nil
}

// checkUnsharded refuses a data directory a sharded node wrote: its state
// lives in DataDir/group-<g> subdirectories, which a node running one
// consensus group never reads, so starting on it would silently begin from
// empty state and strand the WAL and checkpoints.
func checkUnsharded(dataDir string) error {
	entries, _ := os.ReadDir(dataDir) // a missing directory holds nothing
	for _, e := range entries {
		if ok, _ := filepath.Match("group-[0-9]*", e.Name()); ok && e.IsDir() {
			return fmt.Errorf("node: %s holds a sharded node's %s: sharding was removed, and this node would ignore that state",
				dataDir, e.Name())
		}
	}
	return nil
}

// payloadResolver adapts the transport's payload store to the chooser's
// DigestResolver for one instance: a fetched body is pinned exactly as
// long as the instance that asked for it. It never blocks: a miss
// registers the digest with the transport's asynchronous fetch worker and
// weighs zero this round.
type payloadResolver struct {
	tn       *transport.Node
	instance uint64
}

func (r payloadResolver) ResolveDigest(sum [sha256.Size]byte) (model.Value, bool) {
	return r.tn.ResolvePayload(r.instance, sum)
}

// logf prefixes progress lines with the node's identity.
func (n *Node) logf(format string, args ...any) {
	n.cfg.Logf("node %d: "+format, append([]any{n.cfg.ID}, args...)...)
}

// SetPeers installs the cluster address map (":0" clusters learn addresses
// after binding). Call before Start.
func (n *Node) SetPeers(peers map[model.PID]string) {
	n.cfg.Peers = peers
	n.tn.SetPeers(peers)
}

// Addr returns the bound consensus address.
func (n *Node) Addr() string { return n.tn.Addr() }

// ClientAddr returns the bound client address ("" when disabled).
func (n *Node) ClientAddr() string {
	if n.clientLn == nil {
		return ""
	}
	return n.clientLn.Addr().String()
}

// Metrics exposes the node's instrument registry. Drivers read it for
// throughput summaries; cmd/kvnode serves it over HTTP.
func (n *Node) Metrics() *obs.Registry { return n.metrics }

// Replica exposes the node's SMR bookkeeping (tests, metrics).
func (n *Node) Replica() *smr.Replica { return n.replica }

// AuthContext exposes the node's command-authentication context.
func (n *Node) AuthContext() *smr.AuthContext { return n.authCtx }

// Manager exposes the node's snapshot manager; every node has one.
func (n *Node) Manager() *smr.SnapshotManager { return n.mgr }

// GroupStores returns the node's kv store as a one-element slice.
//
// Deprecated: every node runs one consensus group; the slice is kept for
// callers written when a node ran several.
func (n *Node) GroupStores() []*kv.Store { return []*kv.Store{n.store} }

// Submit queues a client command directly (in-process clients). The
// command must be a signed envelope (kv.SignedCommand): every node
// authenticates its clients, so anything else is dropped.
func (n *Node) Submit(cmd model.Value) {
	n.replica.Submit(cmd)
	n.kickDispatcher()
}

// otherPeers lists every cluster member but this one.
func (n *Node) otherPeers() []model.PID {
	peers := make([]model.PID, 0, n.cfg.N-1)
	for _, p := range model.AllPIDs(n.cfg.N) {
		if p != n.cfg.ID {
			peers = append(peers, p)
		}
	}
	return peers
}

// Start runs recovery and launches the dispatcher and the client listener.
// It must be called exactly once.
//
// Recovery ordering is disk first, then peers:
//
//  1. smr.Restore, the restore order the simulator runs too: the newest
//     verified local checkpoint (digest-checked by the storage layer)
//     restores the bulk of the state with no network at all, then every
//     decision the WAL recorded after it flows through the commit queue
//     (the in-order prefix commits immediately; the pipeline's
//     out-of-order frontier re-buffers behind its gaps). Each replayed
//     record also reseeds the transport's decision ring, so this node can
//     serve the decisions to peers whose disks lagged. A checkpoint that
//     fails to load or install is logged and the node proceeds from its
//     WAL: availability over durability.
//  2. Peer probe — only a checkpoint strictly ahead of the disk state is
//     adopted (b+1 matching digests). After a whole-cluster power cycle
//     the probe finds nothing ahead (or nobody up yet) and the disk state
//     stands.
//
// The record of which (client, seq) committed is the store's dedup
// windows: a snapshot install restores them with the state, and every
// WAL-replayed commit applies through the normal commit path.
func (n *Node) Start() {
	if !n.started.CompareAndSwap(false, true) {
		return
	}
	n.events.Emit("start", "n", n.cfg.N,
		"pipeline", n.cfg.Pipeline, "durable", n.cfg.DataDir != "")
	// Each replayed record reseeds the decision ring before its delivery:
	// peers recovering alongside us may need decisions our commit queue
	// buffers behind a gap.
	replayed := 0
	commits, local, err := smr.Restore(n.replica, n.mgr, n.onCommit, func(instance uint64, value model.Value) {
		n.tn.RecordDecision(instance, value)
		replayed++
	})
	n.commits = commits
	if err != nil {
		n.logf("restore: %v (proceeding on what the disk restored)", err)
	}
	if local != nil {
		n.tn.ReleaseInstance(local.LastInstance)
		n.logf("restored local checkpoint at instance %d (log index %d)",
			local.LastInstance, local.LogIndex)
		n.events.Emit("recover.local",
			"instance", local.LastInstance, "logindex", local.LogIndex)
	}
	if replayed > 0 {
		n.logf("replayed %d decision(s) from the wal, committed through instance %d",
			replayed, n.commits.NextCommit()-1)
		n.events.Emit("wal.replay", "records", replayed, "instance", n.commits.NextCommit()-1)
	}
	// Peer probe: adopt the newest checkpoint b+1 peers agree on when it is
	// ahead of everything the disk restored. A fresh cluster (or one where
	// every peer is also mid-restart) fails the probe quickly and proceeds
	// on local state; the stall watcher retries later.
	if snap, err := n.tn.FetchVerifiedSnapshot(n.otherPeers(), n.cfg.B+1, n.cfg.FetchTimeout); err != nil {
		n.logf("no peer snapshot (%v), proceeding on local state", err)
	} else {
		n.installPeerSnapshot(snap, "recover.peer")
	}
	if n.backend != nil && n.commits.NextCommit() == 1 {
		// Durable node with nothing to restore: a fresh start (or a wiped
		// disk). The event makes first-boot vs recovery unambiguous in the
		// merged timeline.
		n.events.Emit("recover.none")
	}
	n.mu.Lock()
	n.next = n.commits.NextCommit()
	n.mu.Unlock()
	n.wg.Add(1)
	go n.runDispatcher()
	n.wg.Add(1)
	go n.stallWatch()
	if n.clientLn != nil {
		n.wg.Add(1)
		go n.serveClients()
	}
}

// onCommit is the node's commit hook, called by its commit queue in
// instance order after the snapshot manager's checkpoint chance. The
// decision is cached before the buffers are released, so a laggard
// probing right after the release always finds it.
func (n *Node) onCommit(instance uint64, decided model.Value, resps []string, checkpointed bool) {
	n.tn.RecordDecision(instance, decided)
	n.tn.ReleaseInstance(instance)
	if checkpointed {
		n.events.Emit("checkpoint", "instance", instance)
	}
	n.logf("instance %d decided %d command(s), log length %d",
		instance, len(resps), n.replica.Log.Len())
	n.events.Emit("decide",
		"instance", instance, "cmds", len(resps), "loglen", n.replica.Log.Len())
}

// Stop shuts the node down and joins its goroutines. The storage backends
// are flushed and closed last, after every in-flight commit has drained.
func (n *Node) Stop() {
	if n.stopping.Swap(true) {
		return
	}
	close(n.quit)
	n.events.Emit("stop")
	if n.clientLn != nil {
		_ = n.clientLn.Close()
	}
	_ = n.tn.Close()
	n.wg.Wait()
	if n.backend != nil {
		if err := n.backend.Close(); err != nil {
			n.logf("closing storage: %v", err)
		}
	}
	if n.ownEvents {
		_ = n.events.Close()
	}
}

// runDispatcher drives the pipelined instance schedule: up to
// Pipeline concurrent RunProc workers, instances claiming disjoint queue
// slices, decisions flowing through the in-order commit queue. It starts
// an instance when a peer already has (join) or when the commit queue is
// Ready: a first instance for any unclaimed command, a further concurrent
// one only for a full batch. The instance's owner (transport.Owner) claims
// its batch; every other replica only reserves the slice, which keeps the
// claim offsets of concurrent instances apart and is built into a batch
// only if the owner's proposal does not come or is refused. It keeps the
// instance counter glued to the commit watermark so a snapshot
// fast-forward skips the dead instances instead of starting them.
func (n *Node) runDispatcher() {
	defer n.wg.Done()
	sem := make(chan struct{}, n.cfg.Pipeline)
	for !n.stopping.Load() {
		n.mu.Lock()
		if wm := n.commits.NextCommit(); n.next < wm {
			n.next = wm
		}
		next := n.next
		n.mu.Unlock()
		join := n.tn.HasInstance(next)
		if !join && !n.commits.Ready(int(n.inflight.Load())) {
			n.waitWork()
			continue
		}
		sem <- struct{}{} // caps in-flight instances
		n.mu.Lock()
		if wm := n.commits.NextCommit(); n.next < wm {
			n.next = wm
		}
		instance := n.next
		n.next++
		n.mu.Unlock()
		proposal := model.NoValue
		if transport.Owner(instance, n.cfg.N) == n.cfg.ID {
			proposal = n.commits.Claim(instance, 0)
		} else {
			n.commits.Reserve(instance)
		}
		n.wg.Add(1)
		n.inflight.Add(1)
		go func(instance uint64, proposal model.Value) {
			defer n.wg.Done()
			defer func() {
				// In this order: the kicked dispatcher must read the
				// in-flight count without this worker in it.
				n.inflight.Add(-1)
				<-sem
				n.kickDispatcher() // a slot freed: schedule the next instance now
			}()
			n.decideInstance(instance, proposal)
		}(instance, proposal)
	}
}

// waitWork parks the dispatcher until something schedulable might exist: a
// local kick (client submit, freed slot), a peer starting a new instance,
// or the poll-interval backstop. Sleeping a flat interval here throttled
// the whole pipeline — every slot handoff and every follower join ate up
// to the full interval of dead time per instance.
func (n *Node) waitWork() {
	timer := time.NewTimer(5 * time.Millisecond)
	defer timer.Stop()
	select {
	case <-n.kick:
	case <-n.tn.InstanceNotify():
	case <-timer.C:
	}
}

// kickDispatcher pulses the dispatcher's wake channel (never blocks).
func (n *Node) kickDispatcher() {
	select {
	case n.kick <- struct{}{}:
	default:
	}
}

// decideInstance runs one instance once, to its end. proposal is the
// owner's claimed batch, or NoValue on a follower, which reserved its
// slice. The one RunProc call ends in a decision, or when the node stops
// or a catch-up releases the instance. Nothing re-runs an instance: a
// process rebuilt from a fresh estimate would forget the vote already cast.
func (n *Node) decideInstance(instance uint64, proposal model.Value) {
	start := time.Now()
	if proposal == model.NoValue {
		proposal = n.follow(instance)
	} else {
		proposal = n.announce(instance, proposal)
	}
	if n.commits.NextCommit() > instance {
		return // a catch-up fast-forwarded past this instance
	}
	params := n.params
	params.Chooser = smr.CommandChooser{
		Auth:    n.authCtx,
		Resolve: payloadResolver{tn: n.tn, instance: instance},
	}
	proc, err := core.NewProcess(n.tn.ID(), proposal, params)
	if err != nil {
		// Never expected: New validated params, and proposals are never
		// NoValue. The stall watcher's catch-up commits the instance.
		n.logf("instance %d: building process: %v", instance, err)
		return
	}
	decided, err := n.tn.RunProc(instance, proc)
	if err != nil {
		return // the node stopped, or a catch-up committed the instance
	}
	// Commit latency ends at the decision, whether or not the payload is
	// here to resolve it.
	n.commitNS.ObserveSince(start)
	if decidedLate(params.Schedule(), proc.DecidedAt()) {
		n.lateDecisions.Inc()
	}
	n.deliverDecided(instance, decided)
}

// announce publishes a batch once on the payload plane and returns the
// vote that proposes it: its content address. The announce is enqueued on
// the same per-peer FIFO as the round-1 votes that follow, so a receiver
// normally holds the payload before it needs the digest. What travels by
// digest is the announce rule, smr.ByDigest.
func (n *Node) announce(instance uint64, proposal model.Value) model.Value {
	if !smr.ByDigest(proposal) {
		return proposal
	}
	sum := smr.DigestOf(proposal)
	n.tn.AnnouncePayload(instance, sum, proposal)
	return smr.DigestVote(sum)
}

// follow is a follower's initial value for the instance: the owner's
// round-1 vote when it shows up within BaseTimeout and passes the adoption
// rule, and otherwise this replica's own reserved batch, announced. A
// stopped, slow, equivocating or forging owner thus costs one bounded wait;
// the followers' values then differ, and phase 2's selection round
// chooses among them.
func (n *Node) follow(instance uint64) model.Value {
	if vote, ok := n.tn.AwaitOwner(instance, n.cfg.BaseTimeout); ok {
		pull := func(sum [sha256.Size]byte) (model.Value, bool) {
			// The owner's announce travels just ahead of its vote, so this
			// is normally a store hit; a lost one is fetched by digest.
			return n.tn.AwaitPayload(instance, sum, n.cfg.BaseTimeout)
		}
		if adopt(n.authCtx, vote, pull) {
			n.adopted.Inc()
			return vote
		}
	}
	n.fallbacks.Inc()
	return n.announce(instance, n.commits.Propose(instance))
}

// adopt is the adoption rule: a follower votes its owner's round-1 vote,
// as it arrived, only if the body behind it weighs something under ax —
// every entry verifies and the identities are distinct — so a forged or
// equivocating batch is refused, as the chooser would weigh it at zero. A
// digest vote's body is resolved through pull; a vote in the clear is its
// own body. Like the weight, the rule reads the proposal alone: followers
// a few commits apart adopt one proposal alike, so phase 1 does not split
// over what each has committed. A batch of commands already committed is
// adopted, and its instance commits nothing new.
func adopt(ax *smr.AuthContext, vote model.Value, pull func([sha256.Size]byte) (model.Value, bool)) bool {
	body := vote
	if sum, ok := smr.DigestKey(vote); ok {
		if body, ok = pull(sum); !ok {
			return false
		}
	}
	return ax.Weight(body) > 0
}

// decidedLate reports whether a process that decided in round r did so
// after the first phase of Algorithm 1 — the instances where the replicas'
// phase-1 votes split.
func decidedLate(s core.Schedule, r model.Round) bool {
	phase, _ := s.At(r)
	return phase > 1
}

// resolveRearm is how often a blocked resolve gives up waiting for the
// payload's arrival to re-check for a catch-up and re-arm the fetch.
const resolveRearm = 20 * time.Millisecond

// deliverDecided hands instance's decided value to the commit queue. A
// non-digest goes as it is (a malformed digest weighs zero and should never
// decide; if one does, committing it verbatim is uniform across replicas).
// A digest is resolved to the payload store's own value first, so the WAL,
// the decided log and the state machine only store real values. On a miss
// it waits for the payload (push, or the pull the miss armed) or for a
// catch-up to overtake the instance: if the payload never comes — the
// proposer died right after deciding, or a Byzantine digest was locked in —
// the stall watcher's catch-up delivers the value from peers' decisions.
func (n *Node) deliverDecided(instance uint64, decided model.Value) {
	sum, ok := smr.DigestKey(decided)
	if !ok {
		n.commits.Deliver(instance, decided)
		return
	}
	for !n.stopping.Load() {
		if n.commits.NextCommit() > instance {
			return // catch-up delivered the resolved value from a peer
		}
		if resolved, ok := n.tn.AwaitPayload(instance, sum, resolveRearm); ok {
			n.commits.Deliver(instance, resolved)
			return
		}
	}
}

// stallWatch is the node's laggard detector: when the commit watermark
// sits still for StallTimeout with work outstanding — typically because
// peers decided, committed and released instances this node missed (the
// node was down, or it recovered onto a checkpoint behind the head) — it
// probes the cluster and catches up without re-running dead instances.
func (n *Node) stallWatch() {
	defer n.wg.Done()
	check := n.cfg.StallTimeout / 4
	if check < 20*time.Millisecond {
		check = 20 * time.Millisecond
	}
	tick := time.NewTicker(check)
	defer tick.Stop()
	lastWM := uint64(0)
	lastMove := time.Now()
	for {
		select {
		case <-n.quit:
			return
		case <-tick.C:
		}
		wm := n.commits.NextCommit()
		if wm != lastWM {
			lastWM = wm
			lastMove = time.Now()
			continue
		}
		if time.Since(lastMove) < n.cfg.StallTimeout {
			continue
		}
		// Stalled only if there is evidence of outstanding work: local
		// in-flight instances, unclaimed queue backlog, or buffered peer
		// traffic for instances we are not driving (the signature of a
		// laggard with no local writes — peers broadcast newer instances
		// while our dispatcher has nothing to join them with).
		if n.inflight.Load() == 0 && n.commits.Unclaimed() == 0 && n.tn.InstanceCount() == 0 {
			continue // idle, not stalled
		}
		n.stalls.Inc()
		n.events.Emit("stall", "instance", n.commits.NextCommit())
		n.catchUp()
		lastMove = time.Now() // one probe per stall window
	}
}

// catchUp advances the commit watermark past instances the cluster
// has finished without us, cheapest mechanism first:
//
//  1. Verified decisions: peers cache recent decided values
//     (transport.RecordDecision); any instance b+1 peers agree on is
//     committed directly, preserving the local log.
//  2. Verified snapshot: when the gap exceeds the peers' decision caches,
//     install the newest b+1-verified checkpoint under the commit-queue
//     lock and fast-forward, then drain decisions again up to the head.
//
// Committing or installing releases the covered instances, which aborts
// any local worker still running them (ErrInstanceReleased).
func (n *Node) catchUp() {
	n.resyncMu.Lock()
	defer n.resyncMu.Unlock()
	peers := n.otherPeers()
	quorum := n.cfg.B + 1
	drain := func() bool {
		moved := false
		for !n.stopping.Load() {
			next := n.commits.NextCommit()
			decided, err := n.tn.FetchVerifiedDecision(peers, next, quorum, n.cfg.FetchTimeout)
			if err != nil {
				return moved
			}
			n.logf("caught up instance %d from peer decision caches", next)
			n.catchups.Inc()
			n.events.Emit("catchup.decision", "instance", next)
			n.commits.Deliver(next, decided)
			moved = true
		}
		return moved
	}
	if drain() {
		return
	}
	snap, err := n.tn.FetchVerifiedSnapshot(peers, quorum, n.cfg.FetchTimeout)
	if err != nil {
		n.logf("catch-up probe: %v", err)
		return
	}
	if n.installPeerSnapshot(snap, "catchup.snapshot") {
		n.catchups.Inc()
		drain() // bridge the remainder up to the head
	}
}

// installPeerSnapshot installs a b+1-verified peer checkpoint under the
// commit-queue lock and releases the instances it covers, logging the
// install as an event of the given kind. It reports whether it installed:
// CommitQueue.InstallSnapshot refuses a checkpoint that is not ahead of
// the commit watermark (the instances are live here, just slow).
func (n *Node) installPeerSnapshot(snap *snapshot.Snapshot, kind string) bool {
	installed, err := n.commits.InstallSnapshot(snap.LastInstance+1, func() error {
		return n.mgr.Install(snap)
	})
	switch {
	case err != nil:
		n.logf("installing peer snapshot at instance %d: %v", snap.LastInstance, err)
	case !installed:
		n.logf("peers' snapshot (instance %d) not ahead of local state", snap.LastInstance)
	default:
		n.tn.ReleaseInstance(snap.LastInstance)
		n.logf("installed peer snapshot at instance %d (log index %d)",
			snap.LastInstance, snap.LogIndex)
		n.events.Emit(kind, "instance", snap.LastInstance, "logindex", snap.LogIndex)
	}
	return installed
}
