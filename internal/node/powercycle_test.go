package node

import (
	"encoding/hex"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/smr"
	"genconsensus/internal/snapshot"
	"genconsensus/internal/storage"
	"genconsensus/internal/wire"
)

// TestKVNodePowerCycle is the whole-cluster outage e2e over real loopback
// TCP: every node of a class-3 n=6, b=1, f=1 cluster is
// killed mid-load — no survivor holds anything in memory — and the cluster
// is restarted from its -data-dir equivalents alone. The restarted nodes
// must recover disk-first (local checkpoint + WAL replay), converge their
// logs, states and dedup windows, keep enforcing provenance (the
// CheckProvenance equivalent for node clusters: every decided entry
// authenticates, replays of pre-outage commands bounce at ingress) and
// decide fresh signed load.
func TestKVNodePowerCycle(t *testing.T) {
	const (
		n    = 6
		seed = int64(42)
	)
	root := testLogRoot(t)
	mutate := func(cfg *Config) {
		cfg.F = 1
		cfg.TD = 4
		cfg.ClientAddr = "127.0.0.1:0"
		cfg.NumClients = 4
		cfg.MaxBatch = 4
		cfg.Pipeline = 2
		cfg.SnapshotInterval = 2
		cfg.DataDir = filepath.Join(root, fmt.Sprintf("member-%d", cfg.ID))
		// No fsync: the test power-cycles processes, not the machine, so
		// page-cache durability is exactly what a restart sees — and what
		// keeps 12 node boots fast under -race.
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
	submitSigned := func(targets []*Node, count int, record bool) {
		for i := 0; i < count; i++ {
			key, value := fmt.Sprintf("pk-%d", w.seq+1), fmt.Sprintf("pv-%d", w.seq+1)
			if record {
				want[key] = value
			}
			submitAll(targets, w.set(key, value))
		}
	}

	// Phase 1: enough load that every member checkpoints, compacts and
	// holds a durable checkpoint — so the restart below restores from a
	// checkpoint plus the WAL above it.
	submitSigned(nodes, 16, true)
	for i, nd := range nodes {
		nd := nd
		waitFor(t, 30*time.Second, fmt.Sprintf("phase 1 on node %d", i), func() bool {
			return hasKeys(nd, want) && nd.Replica().Log.FirstIndex() > 0 &&
				nd.Metrics().CounterValue("g0.storage.ckpt.full_bytes") > 0
		})
	}

	// Phase 2: kill EVERY node mid-load — commands in flight, pipelines
	// busy, watermarks scattered. Nothing survives in memory; the data
	// directories are all that is left. In-flight commands that no node
	// decided before the cut are legitimately lost (durability starts at
	// the decision), so they are not recorded in want.
	submitSigned(nodes, 8, false)
	for _, nd := range nodes {
		nd.Stop()
	}

	// Power is back: rebuild all six processes from their data dirs, on
	// the same addresses.
	restarted := make([]*Node, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			ID: model.PID(i), N: n, B: 1,
			ListenAddr: peers[model.PID(i)],
			AuthSeed:   seed,
			Peers:      peers,
		}
		mutate(&cfg)
		nd, err := New(cfg, kv.NewStore())
		if err != nil {
			t.Fatalf("restarting node %d: %v", i, err)
		}
		restarted[i] = nd
		nodes[i] = nd
	}
	for _, nd := range restarted {
		nd.Start()
	}

	// Disk-first recovery must bring back at least the phase-1 state with
	// no peer holding anything in memory.
	for i, nd := range restarted {
		nd := nd
		waitFor(t, 30*time.Second, fmt.Sprintf("restored state on node %d", i), func() bool {
			return hasKeys(nd, want)
		})
	}

	// Phase 3: fresh signed load after the outage — the cluster must still
	// decide, checkpoint and converge, including whichever members restored
	// behind the frontier.
	submitSigned(nodes, 10, true)
	for i, nd := range nodes {
		nd := nd
		waitFor(t, 60*time.Second, fmt.Sprintf("phase 3 on node %d", i), func() bool {
			return hasKeys(nd, want)
		})
	}
	waitFor(t, 30*time.Second, "logs to converge", func() bool {
		for _, nd := range nodes[1:] {
			if nd.Replica().Log.Len() != nodes[0].Replica().Log.Len() {
				return false
			}
		}
		return true
	})
	checkLogConsistency(t, nodes)

	// States — data, dedup windows, response caches — are byte-identical
	// across the restarted cluster (SnapshotState covers all three).
	refState := nodes[0].store.SnapshotState()
	for i, nd := range nodes[1:] {
		if got := nd.store.SnapshotState(); string(got) != string(refState) {
			t.Fatalf("node %d state diverges from node 0 after the power cycle", i+1)
		}
	}

	// Provenance still holds over every restored log: nothing
	// unauthenticated was decided across the outage, and only the
	// provisioned client ever appears.
	for i, nd := range nodes {
		_, entries := nd.Replica().Log.Retained()
		for pos, entry := range entries {
			if entry == smr.NoOp {
				continue
			}
			if !nd.AuthContext().VerifyValue(entry) {
				t.Fatalf("node %d log[%d]: unauthenticated entry after power cycle", i, pos)
			}
			env, err := wire.DecodeCommand(string(entry))
			if err != nil {
				t.Fatalf("node %d log[%d]: %v", i, pos, err)
			}
			if env.Client != 1 {
				t.Fatalf("node %d log[%d]: client %d never signed anything", i, pos, env.Client)
			}
		}
	}

	// Dedup windows converged: a replay of a pre-outage committed command
	// bounces at ingress on a restarted node (the reseeded replay window,
	// not a peer, is what rejects it).
	s := dialSession(t, restarted[0].ClientAddr(), 1)
	if got := s.send(t, s.scmd(1, "SET", "pk-1", "pv-1")); got != "ERR replayed sequence" {
		t.Fatalf("replay after power cycle = %q, want ERR replayed sequence", got)
	}
	// ASEQ agrees with the signer's horizon on every node (the probe base
	// kvctl resumes from).
	for i, nd := range nodes {
		if got := nd.store.ClientMaxSeq(1); got != w.seq {
			t.Fatalf("node %d ClientMaxSeq = %d, want %d", i, got, w.seq)
		}
	}
}

// TestKVNodeAnonymousDataDir restarts a node on a data directory written
// by an older, anonymous kvnode: a checkpoint holding the kvstate1 encoding
// of a store that never saw an envelope (with its request-id table; the
// fixture internal/kv restores too) and a WAL tail of anonymous kv.Command
// batches. The checkpointed keys come back; the tail's commands enter the
// decided log but are answered ERR unauthenticated command and not
// applied. There is no migration.
func TestKVNodeAnonymousDataDir(t *testing.T) {
	dir := t.TempDir()
	disk, err := storage.OpenDisk(storage.DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../kv/testdata/legacy_v1.hex")
	if err != nil {
		t.Fatal(err)
	}
	v1, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil || string(v1[:8]) != "kvstate1" {
		t.Fatalf("fixture: %v (%.8q)", err, v1)
	}
	legacy := kv.NewStore()
	if err := legacy.RestoreState(v1); err != nil {
		t.Fatal(err)
	}
	if err := disk.SaveSnapshot(&snapshot.Snapshot{LastInstance: 2, LogIndex: 2, State: v1}); err != nil {
		t.Fatal(err)
	}
	tail, err := smr.EncodeBatch([]model.Value{
		kv.Command("r3", "SET", "tail-c", "c"),
		kv.Command("r4", "DEL", "key-00", ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.AppendWAL(3, tail); err != nil {
		t.Fatal(err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	nd, err := New(Config{
		ID: 0, N: 4, B: 1,
		ListenAddr:       "127.0.0.1:0",
		AuthSeed:         42,
		SnapshotInterval: 1024,
		DataDir:          dir,
		FetchTimeout:     100 * time.Millisecond,
	}, kv.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Stop)
	nd.Start() // recovers from disk before it returns

	if got := nd.commits.NextCommit(); got != 4 {
		t.Fatalf("recovered through instance %d, want 3", got-1)
	}
	store := nd.store
	if got, want := store.Snapshot(), legacy.Snapshot(); len(want) == 0 || !maps.Equal(got, want) {
		t.Fatalf("restored keys %v, want the checkpoint's %v", got, want)
	}
	first, entries := nd.Replica().Log.Retained()
	if first != 2 || len(entries) != 2 {
		t.Fatalf("log retains %d entries from %d, want the WAL tail's 2 from 2", len(entries), first)
	}
	for _, entry := range entries {
		if resp := store.Apply(entry); resp != kv.RespUnauthenticated {
			t.Errorf("WAL tail command %q answered %q, want %q", entry, resp, kv.RespUnauthenticated)
		}
	}
	if commits := nd.Metrics().CounterValue("g0.smr.commits"); commits != 0 {
		t.Errorf("g0.smr.commits = %d, want 0: an anonymous command was applied", commits)
	}
}
