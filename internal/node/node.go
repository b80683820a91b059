// Package node is the reusable replica server behind cmd/kvnode: one
// cluster member assembling the full stack — TCP transport, pipelined
// consensus dispatcher, in-order commit queue, batching, snapshot
// checkpoints and the crash-recovery path — plus the line-oriented client
// protocol. cmd/kvnode is a thin flag wrapper around it; the repo benchmark
// (bench/) stands up whole in-process clusters of them, and the
// crash-recovery e2e tests drive it directly. Every node runs exactly one
// consensus group.
//
// Recovery lifecycle, disk first and peers second: on Start a node with a
// data directory restores its newest digest-verified local checkpoint and
// replays its write-ahead decision log through its commit queue (so a
// whole-cluster power cycle converges from disk alone), then — with
// snapshots enabled — probes its peers for anything newer and installs the
// newest checkpoint backed by b+1 matching digests
// (transport.FetchVerifiedSnapshot), rejoining the pipeline at the
// restored watermark instead of instance 1. If the node later wedges on an
// instance its peers have already committed and compacted away (repeated
// ErrNoDecision), the dispatcher resyncs the same way: fetch a verified
// snapshot covering the stuck instance, install it under the commit-queue
// lock (CommitQueue.InstallSnapshot) and fast-forward.
package node

import (
	"crypto/sha256"
	"errors"
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
	// ClientAddr, when non-empty, serves the kv client protocol (requires
	// a *kv.Store state machine).
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
	// SnapshotInterval checkpoints every K committed instances and enables
	// the recovery path; 0 disables snapshots.
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
	// round adds timeoutGrowth.
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

// The node's fixed tuning: no deployment sets a second value, so these are
// constants rather than Config fields.
const (
	// timeoutGrowth is added to BaseTimeout per round.
	timeoutGrowth = 20 * time.Millisecond
	// maxRounds/extraRounds bound one RunProc attempt. Helper rounds are
	// blasted after the decision (RunProcNotify), so one full phase of them
	// covers any laggard still short of its own decision.
	maxRounds   = 400
	extraRounds = 3
)

// group is the node's consensus group: its complete SMR runtime — replica,
// commit queue, replay window, WAL and snapshot chain.
type group struct {
	n      *Node
	params core.Params // all but the chooser, which decideInstance builds per instance

	replica *smr.Replica
	store   *kv.Store            // the state machine as a kv store; nil otherwise (no client protocol then)
	mgr     *smr.SnapshotManager // nil when snapshots are disabled
	backend storage.Backend      // nil when DataDir is unset
	commits *smr.CommitQueue
	authCtx *smr.AuthContext

	mu   sync.Mutex // guards next
	next uint64

	resyncMu sync.Mutex // serializes catch-up probes

	inflight atomic.Int32 // workers currently inside decideInstance

	// Node-layer instruments (nil = metrics disabled): commit latency from instance claim to decision, catch-up and stall counts.
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
}

// Node is one running replica server: the transport, the client listener
// and the consensus group.
type Node struct {
	cfg       Config
	tn        *transport.Node
	g         *group
	clientLn  net.Listener
	keyring   *auth.ClientKeyring
	metrics   *obs.Registry
	events    *obs.EventLog // nil when disabled
	ownEvents bool          // New opened the log, Stop closes it

	started  atomic.Bool
	stopping atomic.Bool
	quit     chan struct{} // closed by Stop: wakes the goroutines that poll
	wg       sync.WaitGroup
}

// New binds the node's listeners and assembles the stack; Start launches
// it. The state machine must implement snapshot.Snapshotter when
// SnapshotInterval > 0, and must be a *kv.Store when ClientAddr is set.
func New(cfg Config, sm smr.StateMachine) (*Node, error) {
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
	if cfg.ClientAddr != "" {
		if _, ok := sm.(*kv.Store); !ok {
			return nil, fmt.Errorf("node: client protocol needs a *kv.Store, have %T", sm)
		}
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
	// transport's own default — with snapshots disabled the cache is the
	// only catch-up mechanism left. The byte budget is sized for the same
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
		TimeoutGrowth:      timeoutGrowth,
		DecisionCache:      decisionCache,
		DecisionCacheBytes: decisionCache * smr.MaxBatchBytes,
		Metrics:            reg,
		Events:             events,
	})
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}

	g := &group{params: baseParams, next: 1, kick: make(chan struct{}, 1)}
	n := &Node{cfg: cfg, tn: tn, g: g, keyring: keyring,
		metrics: reg, events: events, ownEvents: ownEvents, quit: make(chan struct{})}
	g.n = n
	fail := func(err error) (*Node, error) {
		_ = tn.Close()
		if g.backend != nil {
			_ = g.backend.Close()
		}
		return nil, err
	}
	g.store, _ = sm.(*kv.Store)

	// Authenticated command lifecycle: one AuthContext serves ingress
	// verification, the provenance-checked chooser, the commit-side replay
	// window and the store's apply-time check.
	g.authCtx = smr.NewAuthContext(keyring, smr.DefaultSeqWindow)
	g.replica = smr.NewReplica(cfg.ID, sm)
	g.replica.SetMaxBatch(cfg.MaxBatch)
	g.replica.SetCommandAuth(g.authCtx)
	if g.store != nil {
		// The context (not the bare keyring) lets the apply path answer
		// from the shared verdict cache instead of recomputing HMACs.
		g.store.EnableClientAuth(g.authCtx, smr.DefaultSeqWindow)
	}
	// Instrument namespace: the "g0." prefix is kept from when a node ran
	// several consensus groups, because bench/, the smoke script and STATS
	// readers use these names. GaugeFuncs read live state at snapshot time
	// instead of maintaining redundant counters.
	const prefix = "g0."
	g.replica.SetMetrics(smr.MetricsFor(reg, prefix))
	g.commitNS = reg.Histogram(prefix + "node.commit_ns")
	g.catchups = reg.Counter(prefix + "node.catchups")
	g.stalls = reg.Counter(prefix + "node.stalls")
	g.lateDecisions = reg.Counter(prefix + "node.late_decisions")
	g.adopted = reg.Counter(prefix + "node.proposals_adopted")
	g.fallbacks = reg.Counter(prefix + "node.owner_fallbacks")
	g.reads = reg.Counter(prefix + "kv.reads")
	g.readWaitNS = reg.Histogram(prefix + "kv.read_wait_ns")
	g.staleGets = reg.Counter(prefix + "kv.stale_gets")
	reg.GaugeFunc(prefix+"node.inflight", func() int64 { return int64(g.inflight.Load()) })
	reg.GaugeFunc(prefix+"node.pending", func() int64 { return int64(g.replica.PendingLen()) })
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
		g.backend = backend
		g.replica.SetBackend(backend, func(err error) {
			g.logf("storage degraded: %v", err)
			events.Emit(0, "storage.degraded", "err", err)
		})
	}
	if cfg.SnapshotInterval > 0 {
		mgr, err := smr.NewSnapshotManager(g.replica, smr.SnapshotConfig{Interval: cfg.SnapshotInterval})
		if err != nil {
			return fail(fmt.Errorf("node: %w", err))
		}
		g.mgr = mgr
		tn.SetSnapshotProvider(func() (*snapshot.Snapshot, bool) {
			s, _, ok := mgr.Latest()
			return s, ok
		})
	}
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
func (g *group) logf(format string, args ...any) {
	g.n.cfg.Logf("node %d: "+format, append([]any{g.n.cfg.ID}, args...)...)
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

// Events exposes the node's structured event log (nil when disabled).
func (n *Node) Events() *obs.EventLog { return n.events }

// Replica exposes the node's SMR bookkeeping (tests, metrics).
func (n *Node) Replica() *smr.Replica { return n.g.replica }

// AuthContext exposes the node's command-authentication context.
func (n *Node) AuthContext() *smr.AuthContext { return n.g.authCtx }

// Manager exposes the node's snapshot manager (nil when snapshots are
// disabled).
func (n *Node) Manager() *smr.SnapshotManager { return n.g.mgr }

// Backend exposes the node's storage backend (nil when DataDir is unset).
func (n *Node) Backend() storage.Backend { return n.g.backend }

// GroupStores returns the node's kv state machine as a one-element slice
// (nil when the machine is not a *kv.Store).
//
// Deprecated: every node runs one consensus group; the slice is kept for
// callers written when a node ran several.
func (n *Node) GroupStores() []*kv.Store { return []*kv.Store{n.g.store} }

// Submit queues a client command directly (in-process clients). The
// command must be a signed envelope (kv.SignedCommand): every node
// authenticates its clients, so anything else is dropped.
func (n *Node) Submit(cmd model.Value) {
	n.g.replica.Submit(cmd)
	n.g.kickDispatcher()
}

// seedReplayWindow rebuilds the SMR-layer replay window from the
// state machine's restored dedup windows after a snapshot install. The
// snapshot fast-forward skips Replica.Commit for the instances it covers,
// so without the reseed a recovered node's ingress and chooser would treat
// replays of pre-checkpoint committed commands as fresh — at-most-once
// would survive only at apply time, and the replayed identity could be
// decided into the log a second time.
func (g *group) seedReplayWindow() {
	if g.store != nil {
		g.store.EachAppliedSeq(g.authCtx.Window().Record)
	}
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
//  1. Newest verified local checkpoint (digest-checked by the storage
//     layer) — restores the bulk of the state with no network at all.
//  2. WAL replay — every decision recorded after that checkpoint flows
//     through the commit queue (the in-order prefix commits immediately;
//     the pipeline's out-of-order frontier re-buffers behind its gaps) and
//     reseeds the transport's decision ring, so this node can serve the
//     decisions to peers whose disks lagged.
//  3. Peer probe — only a checkpoint strictly ahead of the disk state is
//     adopted (the PR 3 path, b+1 matching digests). After a whole-cluster
//     power cycle the probe finds nothing ahead (or nobody up yet) and the
//     disk state stands.
//
// Auth replay windows reseed from the restored state machine exactly as in
// peer-driven recovery (seedReplayWindow), and additionally absorb every
// WAL-replayed commit through the normal commit path.
func (n *Node) Start() {
	if !n.started.CompareAndSwap(false, true) {
		return
	}
	n.events.Emit(-1, "start", "n", n.cfg.N,
		"pipeline", n.cfg.Pipeline, "durable", n.cfg.DataDir != "")
	n.g.start()
	if n.clientLn != nil {
		n.wg.Add(1)
		go n.serveClients()
	}
}

// start recovers the group from disk and peers and launches its dispatcher
// and stall watcher.
func (g *group) start() {
	n := g.n
	first := uint64(1)
	if g.backend != nil && g.mgr != nil {
		snap, ok, err := g.backend.LoadSnapshot()
		switch {
		case err != nil:
			g.logf("loading local checkpoint: %v", err)
		case ok:
			if err := g.mgr.Install(snap); err != nil {
				g.logf("installing local checkpoint: %v", err)
				break
			}
			g.seedReplayWindow()
			first = snap.LastInstance + 1
			n.tn.ReleaseInstance(snap.LastInstance)
			g.logf("restored local checkpoint at instance %d (log index %d)",
				snap.LastInstance, snap.LogIndex)
			n.events.Emit(0, "recover.local",
				"instance", snap.LastInstance, "logindex", snap.LogIndex)
		}
	}
	g.commits = smr.NewCommitQueue(g.replica, first, func(instance uint64, decided model.Value, resps []string) {
		// Cache the decision before releasing the buffers, so a laggard
		// probing right after the release always finds it.
		n.tn.RecordDecision(instance, decided)
		n.tn.ReleaseInstance(instance)
		if g.mgr != nil && g.mgr.MaybeSnapshot(instance) {
			n.events.Emit(0, "checkpoint", "instance", instance)
		}
		g.logf("instance %d decided %d command(s), log length %d",
			instance, len(resps), g.replica.Log.Len())
		n.events.Emit(0, "decide",
			"instance", instance, "cmds", len(resps), "loglen", g.replica.Log.Len())
	})
	// Reseed the decision ring before each delivery: peers recovering
	// alongside us may need decisions our commit queue buffers behind a gap.
	switch replayed, err := g.commits.ReplayWAL(func(instance uint64, value model.Value) {
		n.tn.RecordDecision(instance, value)
	}); {
	case err != nil:
		g.logf("wal replay: %v", err)
	case replayed > 0:
		g.logf("replayed %d decision(s) from the wal, committed through instance %d",
			replayed, g.commits.NextCommit()-1)
		n.events.Emit(0, "wal.replay", "records", replayed, "instance", g.commits.NextCommit()-1)
	}
	if g.mgr != nil {
		// Peer probe: adopt the newest checkpoint b+1 peers agree on when
		// it is ahead of everything the disk restored. A fresh cluster (or
		// one where every peer is also mid-restart) fails the probe quickly
		// and proceeds on local state; the stall watcher retries later.
		snap, err := n.tn.FetchVerifiedSnapshot(n.otherPeers(), n.cfg.B+1, n.cfg.FetchTimeout)
		switch {
		case err != nil:
			g.logf("no peer snapshot (%v), proceeding on local state", err)
		case snap.LogIndex <= uint64(g.replica.Log.Len()):
			g.logf("peers' snapshot (instance %d) not ahead of local state", snap.LastInstance)
		default:
			installed, err := g.commits.InstallSnapshot(snap.LastInstance+1, func() error {
				if err := g.mgr.Install(snap); err != nil {
					return err
				}
				g.seedReplayWindow()
				return nil
			})
			if err != nil {
				g.logf("installing recovery snapshot: %v", err)
				break
			}
			if installed {
				n.tn.ReleaseInstance(snap.LastInstance)
				g.logf("recovered from peers at instance %d (log index %d)",
					snap.LastInstance, snap.LogIndex)
				n.events.Emit(0, "recover.peer",
					"instance", snap.LastInstance, "logindex", snap.LogIndex)
			}
		}
	}
	if g.backend != nil && g.commits.NextCommit() == 1 {
		// Durable node with nothing to restore: a fresh start (or a wiped
		// disk). The event makes first-boot vs recovery unambiguous in the
		// merged timeline.
		n.events.Emit(0, "recover.none")
	}
	g.mu.Lock()
	g.next = g.commits.NextCommit()
	g.mu.Unlock()
	n.wg.Add(1)
	go g.runDispatcher()
	n.wg.Add(1)
	go g.stallWatch()
}

// Stop shuts the node down and joins its goroutines. The storage backends
// are flushed and closed last, after every in-flight commit has drained.
func (n *Node) Stop() {
	if n.stopping.Swap(true) {
		return
	}
	close(n.quit)
	n.events.Emit(-1, "stop")
	if n.clientLn != nil {
		_ = n.clientLn.Close()
	}
	_ = n.tn.Close()
	n.wg.Wait()
	if g := n.g; g.backend != nil {
		if err := g.backend.Close(); err != nil {
			g.logf("closing storage: %v", err)
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
func (g *group) runDispatcher() {
	n := g.n
	defer n.wg.Done()
	sem := make(chan struct{}, n.cfg.Pipeline)
	for !n.stopping.Load() {
		g.mu.Lock()
		if wm := g.commits.NextCommit(); g.next < wm {
			g.next = wm
		}
		next := g.next
		g.mu.Unlock()
		join := n.tn.HasInstance(next)
		if !join && !g.commits.Ready(int(g.inflight.Load())) {
			g.waitWork()
			continue
		}
		sem <- struct{}{} // caps in-flight instances
		g.mu.Lock()
		if wm := g.commits.NextCommit(); g.next < wm {
			g.next = wm
		}
		instance := g.next
		g.next++
		g.mu.Unlock()
		proposal := model.NoValue
		if transport.Owner(instance, n.cfg.N) == n.cfg.ID {
			proposal = g.commits.Claim(instance, 0)
		} else {
			g.commits.Reserve(instance)
		}
		n.wg.Add(1)
		g.inflight.Add(1)
		go func(instance uint64, proposal model.Value) {
			defer n.wg.Done()
			defer func() {
				// In this order: the kicked dispatcher must read the
				// in-flight count without this worker in it.
				g.inflight.Add(-1)
				<-sem
				g.kickDispatcher() // a slot freed: schedule the next instance now
			}()
			g.decideInstance(instance, proposal)
		}(instance, proposal)
	}
}

// waitWork parks the dispatcher until something schedulable might exist: a
// local kick (client submit, freed slot), a peer starting a new instance,
// or the poll-interval backstop. Sleeping a flat interval here throttled
// the whole pipeline — every slot handoff and every follower join ate up
// to the full interval of dead time per instance.
func (g *group) waitWork() {
	timer := time.NewTimer(5 * time.Millisecond)
	defer timer.Stop()
	select {
	case <-g.kick:
	case <-g.n.tn.InstanceNotify():
	case <-timer.C:
	}
}

// kickDispatcher pulses the dispatcher's wake channel (never blocks).
func (g *group) kickDispatcher() {
	select {
	case g.kick <- struct{}{}:
	default:
	}
}

// decideInstance runs one instance to its decision, retrying while peers
// are down or slow. proposal is the owner's claimed batch, or NoValue on a
// follower, which reserved its slice. The commit queue cannot advance past
// a missing instance, so a worker gives up only when the node stops or the
// instance is proven to be finished business cluster-wide (released
// locally after a catch-up, which aborts RunProc with ErrInstanceReleased).
func (g *group) decideInstance(instance uint64, proposal model.Value) {
	n := g.n
	start := time.Now()
	if proposal == model.NoValue {
		proposal = g.follow(instance)
	} else {
		proposal = g.announce(instance, proposal)
	}
	params := g.params
	params.Chooser = smr.CommandChooser{
		Auth:    g.authCtx,
		Resolve: payloadResolver{tn: n.tn, instance: instance},
	}
	for !n.stopping.Load() {
		if g.commits.NextCommit() > instance {
			return // a catch-up fast-forwarded past this instance
		}
		proc, err := core.NewProcess(n.tn.ID(), proposal, params)
		if err != nil {
			// Never expected (params are validated, proposals admissible);
			// fall back to NoOp rather than wedging the commit queue.
			if proposal != smr.NoOp {
				g.logf("instance %d: building process: %v (retrying as NoOp)",
					instance, err)
				proposal = smr.NoOp
				continue
			}
			g.logf("instance %d: building process: %v (unrecoverable)",
				instance, err)
			return
		}
		// The decision is committed from inside RunProcNotify's callback —
		// the moment it is reached, before the helper-round blast returns —
		// so the commit watermark (and the client response) never waits on
		// the post-decision helping.
		delivered := false
		decided, err := n.tn.RunProcNotify(instance, proc, maxRounds, extraRounds, func(v model.Value) {
			// A decided digest is resolved back to its batch before it
			// touches the commit queue: the WAL, the decided log and the
			// state machine only ever store real values. A local miss
			// leaves delivered=false and falls through to the blocking
			// resolve below — never on this callback's fast path.
			resolved, ok := g.resolveDecided(instance, v)
			if !ok {
				return
			}
			g.commitNS.ObserveSince(start)
			g.commits.Deliver(instance, resolved)
			delivered = true
		})
		if err != nil {
			if errors.Is(err, transport.ErrClosed) || errors.Is(err, transport.ErrInstanceReleased) {
				return
			}
			g.logf("instance %d: %v (retrying)", instance, err)
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if decidedLate(params.Schedule(), proc.DecidedAt()) {
			g.lateDecisions.Inc()
		}
		if !delivered {
			resolved, ok := g.resolveDecided(instance, decided)
			if !ok {
				// The cluster decided a digest this node cannot resolve
				// yet. Wait for the payload (push, or the pull the miss just
				// armed); if it truly never arrives — the proposer died
				// right after deciding, or a Byzantine digest was locked in
				// — the stall watcher's catch-up delivers the resolved value
				// from a peer's decision ring instead, which fast-forwards
				// the watermark past this instance.
				g.blockingResolve(instance, decided)
				return
			}
			g.commits.Deliver(instance, resolved)
		}
		return
	}
}

// announce publishes a batch once on the payload plane and returns the
// vote that proposes it: its content address. The announce is enqueued on
// the same per-peer FIFO as the round-1 votes that follow, so a receiver
// normally holds the payload before it needs the digest. Singletons and
// NoOps stay in the clear — the digest only pays for itself when the batch
// is bigger than the vote.
func (g *group) announce(instance uint64, proposal model.Value) model.Value {
	if !smr.IsBatch(proposal) || len(proposal) <= smr.DigestVoteSize {
		return proposal
	}
	sum := smr.DigestOf(proposal)
	g.n.tn.AnnouncePayload(instance, sum, proposal)
	return smr.DigestVote(sum)
}

// follow is a follower's initial value for the instance: the owner's
// proposal when it shows up within BaseTimeout and passes the adoption
// rule, and otherwise this replica's own reserved batch, announced. A
// stopped, slow, equivocating or forging owner thus costs one bounded wait;
// the followers' values then differ, and phase 2's selection round
// chooses among them.
func (g *group) follow(instance uint64) model.Value {
	n := g.n
	if p, ok := n.tn.AwaitOwner(instance, n.cfg.BaseTimeout); ok {
		pull := func(sum [sha256.Size]byte) (model.Value, bool) {
			// The owner voted a digest whose announce did not reach us:
			// fetch the body by content address rather than wait it out.
			return n.tn.AwaitPayload(instance, sum, n.cfg.BaseTimeout)
		}
		if vote, ok := adopt(g.authCtx, p, pull); ok {
			g.adopted.Inc()
			return vote
		}
	}
	g.fallbacks.Inc()
	return g.announce(instance, g.commits.Propose(instance))
}

// adopt is the adoption rule: a follower votes its owner's proposal only
// if the body weighs something under ax — every entry verifies, the
// identities are distinct and at least one has not committed — so a forged,
// equivocating or stale batch is refused, as the chooser would weigh it at
// zero. The vote it returns is the one the owner cast: the digest of an
// announced batch (the announce was digest-checked on arrival, so nothing
// is hashed here), or the owner's round-1 vote itself, a digest resolved
// through pull or a value in the clear.
func adopt(ax *smr.AuthContext, p transport.OwnerProposal, pull func([sha256.Size]byte) (model.Value, bool)) (model.Value, bool) {
	vote, body := p.Vote, p.Vote
	if p.Body != model.NoValue {
		vote, body = smr.DigestVote(p.Sum), p.Body
	} else if sum, ok := smr.DigestKey(p.Vote); ok {
		if body, ok = pull(sum); !ok {
			return model.NoValue, false
		}
	}
	if ax.Weight(body) == 0 {
		return model.NoValue, false
	}
	return vote, true
}

// decidedLate reports whether a process that decided in round r did so
// after the first phase of Algorithm 1 — the instances where the replicas'
// phase-1 votes split.
func decidedLate(s core.Schedule, r model.Round) bool {
	phase, _ := s.At(r)
	return phase > 1
}

// resolveDecided maps instance's decided value to what the commit queue
// should apply: non-digests pass through; digests resolve against the
// payload plane, to the store's own value — the WAL, the decided log and
// the commit queue share it, nothing copies it. It never blocks (callers on
// the decision fast path).
func (g *group) resolveDecided(instance uint64, v model.Value) (model.Value, bool) {
	sum, ok := smr.DigestKey(v)
	if !ok {
		// Not a digest — or a malformed one, which weighs zero and should
		// never decide; if one does, committing it verbatim is uniform
		// across replicas (the application layer rejects the opaque bytes,
		// like any other Byzantine value that slips past the chooser).
		return v, true
	}
	return g.n.tn.ResolvePayload(instance, sum)
}

// resolveRearm is how often a blocked resolve gives up waiting for the
// payload's arrival to re-check for a catch-up and re-arm the fetch.
const resolveRearm = 20 * time.Millisecond

// blockingResolve waits for a decided digest's payload to arrive (push or
// pull) or for the instance to be overtaken by a catch-up. It owns the
// instance's delivery: nothing else will commit it except a catch-up
// fast-forward.
func (g *group) blockingResolve(instance uint64, decided model.Value) {
	n := g.n
	sum, _ := smr.DigestKey(decided) // resolveDecided passes non-digests through
	for !n.stopping.Load() {
		if g.commits.NextCommit() > instance {
			return // catch-up delivered the resolved value from a peer
		}
		if resolved, ok := n.tn.AwaitPayload(instance, sum, resolveRearm); ok {
			g.commits.Deliver(instance, resolved)
			return
		}
	}
}

// stallWatch is the node's laggard detector: when the commit watermark
// sits still for StallTimeout with work outstanding — typically because
// peers decided, committed and released instances this node missed (the
// node was down, or it recovered onto a checkpoint behind the head) — it
// probes the cluster and catches up without re-running dead instances.
func (g *group) stallWatch() {
	n := g.n
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
		wm := g.commits.NextCommit()
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
		if g.inflight.Load() == 0 && g.commits.Unclaimed() == 0 && n.tn.InstanceCount() == 0 {
			continue // idle, not stalled
		}
		g.stalls.Inc()
		n.events.Emit(0, "stall", "instance", g.commits.NextCommit())
		g.catchUp()
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
func (g *group) catchUp() {
	n := g.n
	g.resyncMu.Lock()
	defer g.resyncMu.Unlock()
	peers := n.otherPeers()
	quorum := n.cfg.B + 1
	drain := func() bool {
		moved := false
		for !n.stopping.Load() {
			next := g.commits.NextCommit()
			decided, err := n.tn.FetchVerifiedDecision(peers, next, quorum, n.cfg.FetchTimeout)
			if err != nil {
				return moved
			}
			g.logf("caught up instance %d from peer decision caches", next)
			g.catchups.Inc()
			n.events.Emit(0, "catchup.decision", "instance", next)
			g.commits.Deliver(next, decided)
			moved = true
		}
		return moved
	}
	if drain() || g.mgr == nil {
		return
	}
	snap, err := n.tn.FetchVerifiedSnapshot(peers, quorum, n.cfg.FetchTimeout)
	if err != nil {
		g.logf("catch-up probe: %v", err)
		return
	}
	if snap.LastInstance < g.commits.NextCommit() {
		return // not behind after all (instances are live, just slow)
	}
	installed, err := g.commits.InstallSnapshot(snap.LastInstance+1, func() error {
		if err := g.mgr.Install(snap); err != nil {
			return err
		}
		g.seedReplayWindow()
		return nil
	})
	if err != nil {
		g.logf("catch-up install: %v", err)
		return
	}
	if installed {
		n.tn.ReleaseInstance(snap.LastInstance)
		g.logf("resynced to instance %d (log index %d)",
			snap.LastInstance, snap.LogIndex)
		g.catchups.Inc()
		n.events.Emit(0, "catchup.snapshot",
			"instance", snap.LastInstance, "logindex", snap.LogIndex)
		drain() // bridge the remainder up to the head
	}
}
