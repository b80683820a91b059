package node

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/smr"
	"genconsensus/internal/wire"
)

// TestKVNodePowerCycle is the whole-cluster outage e2e over real loopback
// TCP: every node of a class-3 n=6, b=1, f=1 authenticated cluster is
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
		cfg.ClientAuth = true
		cfg.NumClients = 4
		cfg.MaxBatch = 4
		cfg.Pipeline = 2
		cfg.SnapshotInterval = 2
		cfg.AppliedKeep = 256
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
	signer := auth.NewClientSigner(seed, 1)

	want := map[string]string{}
	seq := uint64(0)
	submitSigned := func(targets []*Node, count int, record bool) {
		t.Helper()
		for i := 0; i < count; i++ {
			seq++
			key, value := fmt.Sprintf("pk-%d", seq), fmt.Sprintf("pv-%d", seq)
			if record {
				want[key] = value
			}
			cmd, err := kv.SignedCommand(signer, seq, "SET", key, value)
			if err != nil {
				t.Fatal(err)
			}
			submitAll(targets, cmd)
		}
	}

	// Phase 1: enough load that every member checkpoints and compacts, and
	// writes a delta link after its first full checkpoint — so the restart
	// below restores through a delta chain.
	submitSigned(nodes, 16, true)
	for i, nd := range nodes {
		nd := nd
		waitFor(t, 30*time.Second, fmt.Sprintf("phase 1 on node %d", i), func() bool {
			return hasKeys(nd, want) && nd.Replica().Log.FirstIndex() > 0 && deltaCheckpointBytes(nd, 0) > 0
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
	refState := nodes[0].sm.(*kv.Store).SnapshotState()
	for i, nd := range nodes[1:] {
		if got := nd.sm.(*kv.Store).SnapshotState(); string(got) != string(refState) {
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
			if env.Client != signer.Client() {
				t.Fatalf("node %d log[%d]: client %d never signed anything", i, pos, env.Client)
			}
		}
	}

	// Dedup windows converged: a replay of a pre-outage committed command
	// bounces at ingress on a restarted node (the reseeded replay window,
	// not a peer, is what rejects it).
	conn, err := net.Dial("tcp", restarted[0].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	replayMAC := hex.EncodeToString(kv.AuthMAC(signer, 1, "SET", "pk-1", "pv-1"))
	fmt.Fprintf(conn, "ACMD 1 1 %s SET pk-1 pv-1\n", replayMAC)
	if !sc.Scan() || sc.Text() != "ERR replayed sequence" {
		t.Fatalf("replay after power cycle = %q, want ERR replayed sequence", sc.Text())
	}
	// ASEQ agrees with the signer's horizon on every node (the probe base
	// kvctl -auth resumes from).
	for i, nd := range nodes {
		if got := nd.sm.(*kv.Store).ClientMaxSeq(1); got != seq {
			t.Fatalf("node %d ClientMaxSeq = %d, want %d", i, got, seq)
		}
	}
}

// deltaCheckpointBytes is the delta-checkpoint bytes group g of nd has
// written to disk: nonzero once its checkpoint chain holds a delta link.
func deltaCheckpointBytes(nd *Node, g wire.GroupID) uint64 {
	return nd.Metrics().CounterValue(fmt.Sprintf("g%d.storage.ckpt.delta_bytes", g))
}
