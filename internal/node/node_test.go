package node

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"genconsensus/internal/adversary"
	"genconsensus/internal/auth"
	"genconsensus/internal/core"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/quorum"
	"genconsensus/internal/smr"
	"genconsensus/internal/transport"
	"genconsensus/internal/wire"
)

// TestNewEnforcesTable1 checks New against the class-3 row of Table 1
// (n > 3b+2f, 2b+f < TD ≤ n-b-f): outside it the FLV's threshold no longer
// guarantees agreement or termination, so New must refuse to build a node.
func TestNewEnforcesTable1(t *testing.T) {
	for _, tc := range []struct {
		name        string
		n, b, f, td int
		want        error
	}{
		{"n=3 b=1", 3, 1, 0, 0, quorum.ErrNTooSmall},
		{"n=4 b=1 td=2", 4, 1, 0, 2, quorum.ErrTDTooSmall},
		{"n=4 b=1 f=1 td=4", 4, 1, 1, 4, quorum.ErrNTooSmall},
		{"n=6 b=1 f=1 td=6", 6, 1, 1, 6, quorum.ErrTDTooLarge},
		{"bench n=4 b=1 f=0", 4, 1, 0, 0, nil},
		{"node tests n=6 b=1 f=1 td=4", 6, 1, 1, 4, nil},
		{"default td n=6 b=1 f=1", 6, 1, 1, 0, nil},
		{"n=7 b=1 td=5", 7, 1, 0, 5, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nd, err := New(Config{
				N: tc.n, B: tc.b, F: tc.f, TD: tc.td,
				ListenAddr: "127.0.0.1:0",
				AuthSeed:   42,
			}, kv.NewStore())
			if !errors.Is(err, tc.want) {
				t.Fatalf("New: %v, want %v", err, tc.want)
			}
			if nd != nil {
				nd.Stop()
			}
		})
	}
}

// TestNewRefusesSharding: every node runs one consensus group, so New
// refuses Shards > 1 and a data directory a sharded node wrote (its state
// lives in group-<g> subdirectories a one-group node would never read),
// each with an error naming the removal; Shards 0 and 1 are accepted.
func TestNewRefusesSharding(t *testing.T) {
	fresh := func(t *testing.T) string { return t.TempDir() }
	sharded := func(t *testing.T) string {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "group-1"), 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	for _, tc := range []struct {
		name    string
		shards  int
		dataDir func(*testing.T) string
		refused bool
	}{
		{"shards 0", 0, fresh, false},
		{"shards 1", 1, fresh, false},
		{"shards 4", 4, fresh, true},
		{"sharded data dir", 1, sharded, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nd, err := New(Config{
				N: 4, B: 1,
				ListenAddr: "127.0.0.1:0",
				AuthSeed:   42,
				Shards:     tc.shards,
				DataDir:    tc.dataDir(t),
			}, kv.NewStore())
			if nd != nil {
				nd.Stop()
			}
			if !tc.refused {
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "sharding was removed") {
				t.Fatalf("New: %v, want an error naming the sharding removal", err)
			}
		})
	}
}

// TestDecidedLate checks the round-to-phase test behind the
// node.late_decisions counter on the schedule a node actually runs: phase
// 1 has no selection round, so round 2 is phase 1's decision, round 3 is
// phase 2's selection and round 5 its decision.
func TestDecidedLate(t *testing.T) {
	nd, err := New(Config{N: 4, B: 1, ListenAddr: "127.0.0.1:0", AuthSeed: 42}, kv.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Stop()
	sched := nd.g.params.Schedule()
	for _, tc := range []struct {
		round model.Round
		late  bool
	}{
		{1, false},
		{2, false},
		{3, true},
		{5, true},
		{8, true},
	} {
		if got := decidedLate(sched, tc.round); got != tc.late {
			t.Errorf("decision in round %d: late = %v, want %v", tc.round, got, tc.late)
		}
	}
}

// startNodes builds and starts an n-member cluster of in-process replica
// servers on loopback ":0" addresses. mutate tweaks each config before the
// node is built.
func startNodes(t *testing.T, n int, mutate func(*Config)) ([]*Node, map[model.PID]string) {
	t.Helper()
	nodes := make([]*Node, n)
	peers := make(map[model.PID]string, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			ID: model.PID(i), N: n, B: 1,
			ListenAddr: "127.0.0.1:0",
			AuthSeed:   42,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		nd, err := New(cfg, kv.NewStore())
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = nd
		peers[model.PID(i)] = nd.Addr()
	}
	for _, nd := range nodes {
		nd.SetPeers(peers)
	}
	for _, nd := range nodes {
		nd.Start()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			if nd != nil {
				nd.Stop()
			}
		}
	})
	return nodes, peers
}

// submitAll delivers a command to every given node (the PBFT client model).
func submitAll(nodes []*Node, cmd model.Value) {
	for _, nd := range nodes {
		if nd != nil {
			nd.Submit(cmd)
		}
	}
}

// signedWriter signs SETs for one client at increasing sequence numbers,
// under the client seed every test cluster uses: every node authenticates
// its clients, so Submit and the commit path take only signed commands.
type signedWriter struct {
	signer *auth.ClientSigner
	seq    uint64
}

func newSignedWriter(client uint32) *signedWriter {
	return &signedWriter{signer: auth.NewClientSigner(42, client)}
}

// set returns the envelope for SET key=value at the writer's next sequence.
func (w *signedWriter) set(key, value string) model.Value {
	w.seq++
	cmd, err := kv.SignedCommand(w.signer, w.seq, "SET", key, value)
	if err != nil {
		panic(err) // only a key or value too large for any command fails
	}
	return cmd
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// hasKeys reports whether the node's store holds every key in want.
func hasKeys(nd *Node, want map[string]string) bool {
	store := nd.g.store
	for k, v := range want {
		if got, ok := store.Get(k); !ok || got != v {
			return false
		}
	}
	return true
}

// checkLogConsistency mirrors smr.Cluster.CheckConsistency for node
// clusters: equal global lengths and identical entries on every
// retained-window overlap. Callers check once every key has applied, but
// an instance in flight by then may still be committing somewhere, so the
// logs are compared from one read in which their lengths agree.
func checkLogConsistency(t *testing.T, nodes []*Node) {
	t.Helper()
	firsts := make([]uint64, len(nodes))
	logs := make([][]model.Value, len(nodes))
	lengths := make([]int, len(nodes))
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		agree := true
		for i, nd := range nodes {
			firsts[i], logs[i] = nd.Replica().Log.Retained()
			lengths[i] = int(firsts[i]) + len(logs[i])
			agree = agree && lengths[i] == lengths[0]
		}
		if agree {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("log lengths never agreed: %v", lengths)
		}
	}
	refFirst, ref := firsts[0], logs[0]
	for i := 1; i < len(nodes); i++ {
		first, entries := firsts[i], logs[i]
		lo := max(refFirst, first)
		for j := lo; j < uint64(lengths[0]); j++ {
			if ref[j-refFirst] != entries[j-first] {
				t.Fatalf("node %d log[%d] = %q, node 0 has %q",
					i, j, entries[j-first], ref[j-refFirst])
			}
		}
	}
}

// TestKVNodeCluster is the smoke test for the factored-out replica server:
// a 4-node PBFT cluster serving real clients over the TCP client protocol.
func TestKVNodeCluster(t *testing.T) {
	nodes, _ := startNodes(t, 4, func(cfg *Config) {
		cfg.ClientAddr = "127.0.0.1:0"
		cfg.MaxBatch = 4
		cfg.Pipeline = 2
		cfg.BaseTimeout = 40 * time.Millisecond
	})
	// Pipelined session writes over one connection per node.
	broadcastWrites(t, nodes, 1, 1, "color", "green", "shape", "circle", "size", "big")
	want := map[string]string{"color": "green", "shape": "circle", "size": "big"}
	for i, nd := range nodes {
		nd := nd
		waitFor(t, 20*time.Second, fmt.Sprintf("node %d to apply", i), func() bool {
			return hasKeys(nd, want)
		})
	}
	// Reads and log length over the client protocol.
	conn, err := net.Dial("tcp", nodes[0].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintln(conn, "GET color")
	sc := bufio.NewScanner(conn)
	if !sc.Scan() || sc.Text() != "green" {
		t.Fatalf("GET color = %q", sc.Text())
	}
	fmt.Fprintln(conn, "LOGLEN")
	if !sc.Scan() || sc.Text() == "0" {
		t.Fatalf("LOGLEN = %q", sc.Text())
	}
	// STATS dumps the live registry as key=value lines up to END.
	fmt.Fprintln(conn, "STATS")
	stats := map[string]string{}
	for sc.Scan() && sc.Text() != "END" {
		if k, v, ok := strings.Cut(sc.Text(), "="); ok {
			stats[k] = v
		}
	}
	for _, key := range []string{"g0.smr.commits", "g0.smr.decisions", "transport.frames_out"} {
		if stats[key] == "" || stats[key] == "0" {
			t.Errorf("STATS %s = %q, want non-zero", key, stats[key])
		}
	}
	waitFor(t, 20*time.Second, "logs to converge", func() bool {
		for _, nd := range nodes[1:] {
			if nd.Replica().Log.Len() != nodes[0].Replica().Log.Len() {
				return false
			}
		}
		return true
	})
	checkLogConsistency(t, nodes)
}

// TestKVNodeCrashRecovery is the crash-recovery e2e on a class-3
// n=6, b=1, f=1 cluster over real loopback TCP: a node is killed
// mid-load, the survivors keep deciding and compact their logs past its
// position, and the restarted node catches up through the verified
// state-transfer exchange (b+1 matching digests) plus the live log tail,
// ending fully consistent with the cluster.
func TestKVNodeCrashRecovery(t *testing.T) {
	const n = 6
	mutate := func(cfg *Config) {
		cfg.F = 1
		cfg.TD = 4
		cfg.MaxBatch = 4
		cfg.Pipeline = 2
		cfg.SnapshotInterval = 2
		cfg.BaseTimeout = 40 * time.Millisecond
		cfg.FetchTimeout = time.Second
		cfg.StallTimeout = 400 * time.Millisecond
		if testing.Verbose() {
			cfg.Logf = t.Logf
		}
	}
	nodes, peers := startNodes(t, n, mutate)

	want := map[string]string{}
	w := newSignedWriter(1)
	key := func(i int) (string, string) { return fmt.Sprintf("rk-%d", i), fmt.Sprintf("rv-%d", i) }
	submitRange := func(targets []*Node, from, to int) {
		for i := from; i < to; i++ {
			k, v := key(i)
			want[k] = v
			submitAll(targets, w.set(k, v))
		}
	}

	// Phase 1: load with everyone up.
	submitRange(nodes, 0, 12)
	for i, nd := range nodes {
		nd := nd
		waitFor(t, 30*time.Second, fmt.Sprintf("phase 1 on node %d", i), func() bool {
			return hasKeys(nd, want)
		})
	}

	// Kill node 5 mid-run (the f=1 benign fault).
	crashed := nodes[5]
	crashed.Stop()
	nodes[5] = nil
	crashLen := crashed.Replica().Log.Len()

	// Phase 2: the survivors keep deciding; their checkpoints must move
	// past the crashed node's log so recovery cannot be a plain replay.
	live := nodes[:5]
	submitRange(live, 12, 24)
	for i, nd := range live {
		nd := nd
		waitFor(t, 30*time.Second, fmt.Sprintf("phase 2 on node %d", i), func() bool {
			return hasKeys(nd, want) && nd.Replica().Log.FirstIndex() > uint64(crashLen)
		})
	}

	// Restart node 5 on its old address with empty state: Start must fetch
	// a b+1-verified snapshot from the survivors and rejoin at the
	// watermark.
	cfg := Config{
		ID: model.PID(5), N: n, B: 1,
		ListenAddr: peers[model.PID(5)],
		AuthSeed:   42,
		Peers:      peers,
	}
	mutate(&cfg)
	restarted, err := New(cfg, kv.NewStore())
	if err != nil {
		t.Fatalf("restarting node 5: %v", err)
	}
	nodes[5] = restarted
	restarted.Start()

	// Phase 3: load with the recovered member back in rotation; everyone —
	// including it — must converge. (The load also drives the wedge-resync
	// path in case the restart-time probe raced the survivors.)
	submitRange(nodes, 24, 30)
	waitFor(t, 30*time.Second, "recovered node to install a snapshot", func() bool {
		return restarted.Replica().Log.Len() > crashLen
	})
	for i, nd := range nodes {
		nd := nd
		waitFor(t, 60*time.Second, fmt.Sprintf("phase 3 on node %d", i), func() bool {
			return hasKeys(nd, want)
		})
	}
	refLen := nodes[0].Replica().Log.Len()
	waitFor(t, 30*time.Second, "logs to converge", func() bool {
		for _, nd := range nodes {
			if nd.Replica().Log.Len() != nodes[0].Replica().Log.Len() {
				return false
			}
		}
		return true
	})
	if got := nodes[0].Replica().Log.Len(); got < refLen {
		t.Fatalf("log shrank: %d < %d", got, refLen)
	}
	checkLogConsistency(t, nodes)

	// The recovered store matches a survivor's exactly (state digests are
	// byte-comparable thanks to deterministic encoding).
	refState := nodes[0].g.store.SnapshotState()
	gotState := restarted.g.store.SnapshotState()
	if string(refState) != string(gotState) {
		t.Fatal("recovered state differs from a survivor's")
	}
	if restarted.Manager().Taken() == 0 && restarted.Replica().Log.FirstIndex() == 0 {
		t.Fatal("recovered node never adopted a checkpoint")
	}
}

// TestKVNodeLaggardCatchUp exercises the decision-cache catch-up on its
// own: the cluster is killed-and-restarted-node territory again, but with
// a snapshot interval so large that no checkpoint exists yet — the
// restarted node must rebuild its whole log purely from b+1-verified
// cached decisions (instances its peers committed and released and will
// never run again).
func TestKVNodeLaggardCatchUp(t *testing.T) {
	const n = 4
	mutate := func(cfg *Config) {
		cfg.MaxBatch = 4
		cfg.Pipeline = 2
		cfg.SnapshotInterval = 1 << 20 // effectively never: decisions only
		cfg.BaseTimeout = 40 * time.Millisecond
		cfg.FetchTimeout = time.Second
		cfg.StallTimeout = 300 * time.Millisecond
		if testing.Verbose() {
			cfg.Logf = t.Logf
		}
	}
	nodes, peers := startNodes(t, n, mutate)

	want := map[string]string{}
	w := newSignedWriter(1)
	submitRange := func(targets []*Node, from, to int) {
		for i := from; i < to; i++ {
			k, v := fmt.Sprintf("lk-%d", i), fmt.Sprintf("lv-%d", i)
			want[k] = v
			submitAll(targets, w.set(k, v))
		}
	}
	submitRange(nodes, 0, 8)
	for i, nd := range nodes {
		nd := nd
		waitFor(t, 30*time.Second, fmt.Sprintf("phase 1 on node %d", i), func() bool {
			return hasKeys(nd, want)
		})
	}

	nodes[3].Stop()
	nodes[3] = nil
	live := nodes[:3]
	submitRange(live, 8, 14)
	for i, nd := range live {
		nd := nd
		waitFor(t, 30*time.Second, fmt.Sprintf("phase 2 on node %d", i), func() bool {
			return hasKeys(nd, want)
		})
	}

	cfg := Config{
		ID: model.PID(3), N: n, B: 1,
		ListenAddr: peers[model.PID(3)],
		AuthSeed:   42,
		Peers:      peers,
	}
	mutate(&cfg)
	restarted, err := New(cfg, kv.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	nodes[3] = restarted
	restarted.Start()
	// Deliberately submit the new load only to the survivors: the
	// restarted node has no local writes and no joinable instance, so its
	// only wake-up signal is the peers' broadcast traffic buffering in its
	// transport — the stall watcher must notice that and drain the peers'
	// decision caches (there is no snapshot to install).
	submitRange(live, 14, 16)
	for i, nd := range nodes {
		nd := nd
		waitFor(t, 60*time.Second, fmt.Sprintf("phase 3 on node %d", i), func() bool {
			return hasKeys(nd, want)
		})
	}
	waitFor(t, 30*time.Second, "logs to converge", func() bool {
		for _, nd := range nodes {
			if nd.Replica().Log.Len() != nodes[0].Replica().Log.Len() {
				return false
			}
		}
		return true
	})
	checkLogConsistency(t, nodes)
	if restarted.Replica().Log.FirstIndex() != 0 {
		t.Error("laggard installed a snapshot that should not exist")
	}
	if got := restarted.g.store.SnapshotState(); string(got) != string(nodes[0].g.store.SnapshotState()) {
		t.Fatal("caught-up state differs from a survivor's")
	}
}

// TestKVNodeAuthenticatedE2E is the TCP half of the fabrication acceptance
// criterion: a 4-node cluster (n=4, b=1) in which member 3 is a real
// Byzantine proposer — a raw transport endpoint running the
// FabricateCommands strategy over the live consensus instances — while a
// client drives session writes. Every honest node's decided log must
// contain only authenticated commands: nothing fabricated, nothing
// unauthenticated, no forged key in any store. A replay of a committed
// sequence must bounce at ingress.
func TestKVNodeAuthenticatedE2E(t *testing.T) {
	const (
		n        = 4
		seed     = int64(42)
		numCli   = 4
		byzantin = model.PID(3)
	)
	honest := make([]*Node, 3)
	peers := make(map[model.PID]string, n)
	for i := 0; i < 3; i++ {
		cfg := Config{
			ID: model.PID(i), N: n, B: 1,
			ListenAddr:  "127.0.0.1:0",
			ClientAddr:  "127.0.0.1:0",
			AuthSeed:    seed,
			NumClients:  numCli,
			MaxBatch:    8,
			Pipeline:    2,
			BaseTimeout: 40 * time.Millisecond,
		}
		if testing.Verbose() {
			cfg.Logf = t.Logf
		}
		nd, err := New(cfg, kv.NewStore())
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		honest[i] = nd
		peers[model.PID(i)] = nd.Addr()
	}
	t.Cleanup(func() {
		for _, nd := range honest {
			nd.Stop()
		}
	})

	// Member 3: a bare transport endpoint with valid channel keys (the
	// Byzantine member is a legitimate cluster member — only its behaviour
	// is hostile) driving fabricated command batches into live instances.
	tn, err := transport.Listen(transport.Config{
		ID: byzantin, N: n,
		ListenAddr:  "127.0.0.1:0",
		AuthSeed:    seed,
		BaseTimeout: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tn.Close() })
	peers[byzantin] = tn.Addr()

	for _, nd := range honest {
		nd.SetPeers(peers)
	}
	tn.SetPeers(peers)
	for _, nd := range honest {
		nd.Start()
	}

	sched := core.Schedule{Flag: model.FlagPhase}
	var byzWG sync.WaitGroup
	for inst := uint64(1); inst <= 6; inst++ {
		byzWG.Add(1)
		go func(inst uint64) {
			defer byzWG.Done()
			proc := adversary.NewProc(byzantin, n, sched, int64(inst),
				smr.FabricateCommands(inst*1000))
			_, _ = tn.RunProc(inst, proc, 30, 0)
		}(inst)
	}
	defer byzWG.Wait()

	// Client 1's session load over the real TCP protocol (the kvctl
	// shape), pipelined to every honest replica.
	want := map[string]string{}
	var pairs []string
	for seq := 1; seq <= 10; seq++ {
		key, value := fmt.Sprintf("ek-%d", seq), fmt.Sprintf("ev-%d", seq)
		want[key] = value
		pairs = append(pairs, key, value)
	}
	broadcastWrites(t, honest, 1, 1, pairs...)
	for i, nd := range honest {
		nd := nd
		waitFor(t, 30*time.Second, fmt.Sprintf("node %d to apply the signed load", i), func() bool {
			return hasKeys(nd, want)
		})
	}
	// Replay of an already-committed seq, validly tagged on a fresh session,
	// bounces at ingress.
	waitFor(t, 10*time.Second, "replay window to absorb instance commits", func() bool {
		s := dialSession(t, honest[0].ClientAddr(), 1)
		return s.send(t, s.scmd(1, "SET", "ek-1", "ev-1")) == "ERR replayed sequence"
	})
	// ASEQ reports the applied horizon signing clients resume from.
	reads := dialRead(t, honest[0].ClientAddr())
	for line, want := range map[string]string{"ASEQ 1": "10", "ASEQ 0": "0"} {
		if got := reads.ask(t, line); got != want {
			t.Errorf("%q → %q, want %q", line, got, want)
		}
	}

	// Provenance audit over every honest decided log: nothing fabricated,
	// nothing anonymous, and no sign of the adversary's (client, seq)
	// space. Honest (client, seq) duplicates are NOT asserted absent here:
	// with pipelined dispatchers, replicas whose queues transiently
	// diverge may legitimately re-propose a committed command (see
	// CommitQueue's claim policy) — at-most-once is the state machine's
	// (client, seq) dedup, which the hasKeys convergence above already
	// exercised. The strict no-duplicate audit runs in the serial sim soak
	// (smr.Cluster.CheckProvenance), where honest re-proposal cannot occur.
	for i, nd := range honest {
		_, entries := nd.Replica().Log.Retained()
		for pos, entry := range entries {
			if entry == smr.NoOp {
				continue
			}
			if !nd.AuthContext().VerifyValue(entry) {
				t.Fatalf("node %d log[%d]: unauthenticated entry %q", i, pos, entry)
			}
			env, err := wire.DecodeCommand(string(entry))
			if err != nil {
				t.Fatalf("node %d log[%d]: %v", i, pos, err)
			}
			if env.Client != 1 {
				t.Fatalf("node %d log[%d]: command from client %d, only client 1 ever wrote", i, pos, env.Client)
			}
		}
		for k := range nd.g.store.Snapshot() {
			if strings.HasPrefix(k, "forged-") {
				t.Fatalf("node %d: fabricated key %q applied", i, k)
			}
		}
	}
}

// TestKVNodeAuthRecoveryReplayWindow: a recovered node must reject replays
// of commands committed BEFORE its checkpoint. The snapshot fast-forward
// skips Replica.Commit for covered instances, so the replay window is
// rebuilt from the restored state machine's dedup windows
// (seedReplayWindow) — without it the node would answer QUEUED here and
// re-propose an already-committed identity.
func TestKVNodeAuthRecoveryReplayWindow(t *testing.T) {
	const n = 4
	mutate := func(cfg *Config) {
		cfg.ClientAddr = "127.0.0.1:0"
		cfg.MaxBatch = 4
		cfg.Pipeline = 2
		cfg.SnapshotInterval = 2
		cfg.BaseTimeout = 40 * time.Millisecond
		cfg.FetchTimeout = time.Second
		cfg.StallTimeout = 400 * time.Millisecond
		if testing.Verbose() {
			cfg.Logf = t.Logf
		}
	}
	nodes, peers := startNodes(t, n, mutate)

	want := map[string]string{}
	w := newSignedWriter(1)
	submitSigned := func(targets []*Node, count int) {
		for i := 0; i < count; i++ {
			key, value := fmt.Sprintf("rk-%d", w.seq+1), fmt.Sprintf("rv-%d", w.seq+1)
			want[key] = value
			submitAll(targets, w.set(key, value))
		}
	}

	submitSigned(nodes, 8)
	for i, nd := range nodes {
		nd := nd
		waitFor(t, 30*time.Second, fmt.Sprintf("phase 1 on node %d", i), func() bool {
			return hasKeys(nd, want)
		})
	}

	nodes[3].Stop()
	crashLen := nodes[3].Replica().Log.Len()
	nodes[3] = nil
	live := nodes[:3]
	submitSigned(live, 8)
	for i, nd := range live {
		nd := nd
		waitFor(t, 30*time.Second, fmt.Sprintf("phase 2 on node %d", i), func() bool {
			return hasKeys(nd, want) && nd.Replica().Log.FirstIndex() > uint64(crashLen)
		})
	}

	cfg := Config{
		ID: model.PID(3), N: n, B: 1,
		ListenAddr: peers[model.PID(3)],
		AuthSeed:   42,
		Peers:      peers,
	}
	mutate(&cfg)
	restarted, err := New(cfg, kv.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	nodes[3] = restarted
	restarted.Start()
	waitFor(t, 30*time.Second, "node 3 to recover via snapshot", func() bool {
		return restarted.Replica().Log.Len() > crashLen
	})

	// Replay of a pre-checkpoint committed command against the recovered
	// node, validly tagged on a fresh session: ingress must reject it from
	// the reseeded window, not QUEUE it.
	s := dialSession(t, restarted.ClientAddr(), 1)
	if got := s.send(t, s.scmd(1, "SET", "rk-1", "rv-1")); got != "ERR replayed sequence" {
		t.Fatalf("replay at recovered node = %q, want ERR replayed sequence", got)
	}
	// Fresh signed writes still flow through the recovered member.
	submitSigned(nodes, 2)
	for i, nd := range nodes {
		nd := nd
		waitFor(t, 30*time.Second, fmt.Sprintf("phase 3 on node %d", i), func() bool {
			return hasKeys(nd, want)
		})
	}
}

// TestKVNodeSnapshotRequestFlood: checkpoints no longer encode the state at
// every boundary — the bytes are made when a peer asks. A peer that asks in
// a tight loop must not turn that into more work than one encoding per
// checkpoint, and what it is served must still be what b+1 verification
// needs: the same digest from every donor at the same watermark.
func TestKVNodeSnapshotRequestFlood(t *testing.T) {
	nodes, _ := startNodes(t, 4, func(cfg *Config) {
		cfg.ClientAddr = "127.0.0.1:0"
		cfg.MaxBatch = 4
		cfg.Pipeline = 2
		cfg.SnapshotInterval = 2
		cfg.BaseTimeout = 40 * time.Millisecond
		cfg.FetchTimeout = time.Second
	})
	donor := nodes[0]
	materialized := donor.Metrics().Counter("g0.smr.snapshot_materialized")
	// Read the counter first: Taken only grows, so a bound that holds for
	// the pair read in this order held at the moment the counter was read.
	bounded := func() bool {
		m := materialized.Load()
		return m <= uint64(donor.Manager().Taken())
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served, agreed int
	wg.Add(1)
	go func() { // node 3 floods node 0 (and cross-checks node 1) with requests
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap, digest, err := nodes[3].tn.FetchSnapshot(0, time.Second)
			if err != nil {
				continue // no checkpoint yet
			}
			served++
			if !bounded() {
				t.Errorf("donor encoded %d snapshots for %d checkpoints", materialized.Load(), donor.Manager().Taken())
				return
			}
			if other, otherDigest, err := nodes[3].tn.FetchSnapshot(1, time.Second); err == nil &&
				other.LastInstance == snap.LastInstance {
				agreed++
				if otherDigest != digest {
					t.Errorf("checkpoint %d: donors 0 and 1 serve different digests", snap.LastInstance)
					return
				}
			}
		}
	}()

	want := map[string]string{}
	w := newSignedWriter(1)
	for i := 0; i < 120; i++ {
		k, v := fmt.Sprintf("fk-%d", i%16), fmt.Sprintf("fv-%d", i)
		want[k] = v
		submitAll(nodes, w.set(k, v))
		if i%8 == 7 {
			time.Sleep(10 * time.Millisecond) // spread the load over many boundaries
		}
	}
	for i, nd := range nodes {
		nd := nd
		waitFor(t, 30*time.Second, fmt.Sprintf("load on node %d", i), func() bool { return hasKeys(nd, want) })
	}
	close(stop)
	wg.Wait()

	taken := donor.Manager().Taken()
	if !bounded() || materialized.Load() == 0 {
		t.Fatalf("donor encoded %d snapshots for %d checkpoints", materialized.Load(), taken)
	}
	if served <= taken || agreed == 0 {
		t.Fatalf("flood too thin to prove anything: %d requests served over %d checkpoints, %d cross-checked", served, taken, agreed)
	}
	t.Logf("%d requests served from %d encodings over %d checkpoints; %d cross-checked against a second donor",
		served, materialized.Load(), taken, agreed)

	// The checkpoint instruments are part of the live STATS dump.
	stats := strings.Join(dialRead(t, donor.ClientAddr()).askMulti(t, "STATS"), "\n")
	for _, key := range []string{"g0.smr.checkpoint_ns.count=", "g0.smr.snapshot_materialized=", "g0.smr.snapshot_materialize_ns.p50="} {
		if !strings.Contains(stats, "\n"+key) || strings.Contains(stats, "\n"+key+"0\n") {
			t.Errorf("STATS has no non-zero %s", strings.TrimSuffix(key, "="))
		}
	}
}
