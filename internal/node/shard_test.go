package node

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/wire"
)

// keyOwnedBy scans for a key the deterministic hash assigns to group g —
// tests need keys with known owners without hard-coding hash outputs.
func keyOwnedBy(g wire.GroupID, shards int, prefix string) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		if wire.GroupForKey(k, shards) == g {
			return k
		}
	}
}

// shardedHasKeys reports whether every key in want is present in the store
// of its OWNING group — and in no other group's store. Presence elsewhere
// would mean the key→group mapping drifted (e.g. across a restart).
func shardedHasKeys(nd *Node, shards int, want map[string]string) bool {
	stores := nd.GroupStores()
	for k, v := range want {
		owner := wire.GroupForKey(k, shards)
		if got, ok := stores[owner].Get(k); !ok || got != v {
			return false
		}
		for g, st := range stores {
			if wire.GroupID(g) == owner {
				continue
			}
			if _, ok := st.Get(k); ok {
				return false
			}
		}
	}
	return true
}

// TestKVNodeShardRedirect covers the wrong-shard contract: SHARDS reports
// the group count, USE pins a connection, a pinned write whose key hashes
// to another group is answered with the redirect (never silently
// misrouted), and reads route by key regardless of the pin.
func TestKVNodeShardRedirect(t *testing.T) {
	const shards = 2
	nodes, _ := startNodes(t, 4, func(cfg *Config) {
		cfg.ClientAddr = "127.0.0.1:0"
		cfg.Shards = shards
		cfg.MaxBatch = 4
		cfg.Pipeline = 2
		cfg.BaseTimeout = 40 * time.Millisecond
	})
	key0 := keyOwnedBy(0, shards, "rk0")
	key1 := keyOwnedBy(1, shards, "rk1")

	// Unpinned write to a group-0 key, applied cluster-wide.
	broadcastWrites(t, nodes, 1, 1, key0, "v0")
	want := map[string]string{key0: "v0"}
	for i, nd := range nodes {
		nd := nd
		waitFor(t, 20*time.Second, fmt.Sprintf("node %d to apply", i), func() bool {
			return shardedHasKeys(nd, shards, want)
		})
	}

	s := dialSession(t, nodes[0].ClientAddr(), 1)
	ask := func(line string) string {
		t.Helper()
		return s.send(t, line)
	}

	if got := ask("SHARDS"); got != "2" {
		t.Fatalf("SHARDS = %q, want 2", got)
	}
	if got := ask("USE 7"); got != "ERR no such group (have 2)" {
		t.Fatalf("USE 7 = %q", got)
	}
	if got := ask("USE 1"); got != "OK 1" {
		t.Fatalf("USE 1 = %q", got)
	}
	// Pinned to group 1; a group-0 key must bounce with its owner, not be
	// silently decided by the wrong group.
	if got := ask(s.scmd(2, "SET", key0, "nope")); got != "ERR wrongshard 0" {
		t.Fatalf("pinned wrong-shard write = %q, want ERR wrongshard 0", got)
	}
	if got := ask(s.scmd(3, "SET", key1, "v1")); got != "QUEUED" {
		t.Fatalf("pinned right-shard write = %q, want QUEUED", got)
	}
	// GET routes by key even on a pinned connection.
	if got := ask("GET " + key0); got != "v0" {
		t.Fatalf("GET %s on pinned conn = %q, want v0", key0, got)
	}
	// The bounced write never reached any group's store.
	if _, ok := nodes[0].GroupStores()[0].Get(key0); !ok {
		t.Fatal("group-0 store lost its key")
	}
	if got, _ := nodes[0].GroupStores()[0].Get(key0); got == "nope" {
		t.Fatal("redirected write was applied anyway")
	}
}

// TestKVNodeShardReplayIsolation pins down per-group replay windows: a
// (client, seq) pair committed on group 0 must NOT bounce when the same
// pair arrives for a key group 1 owns — the windows are per group, like
// the WALs and snapshot chains. True replays (same group) still bounce.
func TestKVNodeShardReplayIsolation(t *testing.T) {
	const shards = 2
	nodes, _ := startNodes(t, 4, func(cfg *Config) {
		cfg.ClientAddr = "127.0.0.1:0"
		cfg.Shards = shards
		cfg.NumClients = 4
		cfg.MaxBatch = 4
		cfg.Pipeline = 2
		cfg.BaseTimeout = 40 * time.Millisecond
	})
	key0 := keyOwnedBy(0, shards, "ri0")
	key1 := keyOwnedBy(1, shards, "ri1")

	// (client 1, seq 1) committed on group 0.
	broadcastWrites(t, nodes, 1, 1, key0, "a")
	for i, nd := range nodes {
		nd := nd
		waitFor(t, 20*time.Second, fmt.Sprintf("node %d group 0 apply", i), func() bool {
			return nd.GroupStores()[0].ClientMaxSeq(1) == 1
		})
	}

	// Same (client, seq), key owned by group 1: group 1's window has never
	// seen it, so it must be accepted — not rejected by group 0's history.
	s := dialSession(t, nodes[0].ClientAddr(), 1)
	if got := s.send(t, s.scmd(1, "SET", key1, "b")); got != "QUEUED" {
		t.Fatalf("cross-group same-seq submit = %q, want QUEUED", got)
	}
	// A true replay — same group, same (client, seq), on a fresh session —
	// still bounces at ingress off group 0's window.
	s = dialSession(t, nodes[0].ClientAddr(), 1)
	if got := s.send(t, s.scmd(1, "SET", key0, "a")); got != "ERR replayed sequence" {
		t.Fatalf("same-group replay = %q, want ERR replayed sequence", got)
	}
}

// TestKVNodeShardedPowerCycle is the whole-cluster outage e2e for a
// sharded node: both groups' WALs and snapshot chains live under
// DataDir/group-<g>, every process is killed, and the cluster restarts
// from the data directories alone. Keys must come back in the store of
// the SAME group that owned them before the outage (the key→group hash is
// seedless and stable across restarts), and fresh load must decide.
func TestKVNodeShardedPowerCycle(t *testing.T) {
	const (
		n      = 4
		shards = 2
	)
	root := t.TempDir()
	mutate := func(cfg *Config) {
		cfg.ClientAddr = "127.0.0.1:0"
		cfg.Shards = shards
		cfg.MaxBatch = 4
		cfg.Pipeline = 2
		// A checkpoint every instance: phase 1's six commands per group take
		// at least two instances, so every group's chain holds a delta link
		// before the outage.
		cfg.SnapshotInterval = 1
		cfg.DataDir = filepath.Join(root, fmt.Sprintf("member-%d", cfg.ID))
		cfg.BaseTimeout = 40 * time.Millisecond
		cfg.FetchTimeout = time.Second
		cfg.StallTimeout = 400 * time.Millisecond
		if testing.Verbose() {
			cfg.Logf = t.Logf
		}
	}
	nodes, peers := startNodes(t, n, mutate)

	want := map[string]string{}
	var pairs []string
	for i := 0; i < 12; i++ {
		key, value := fmt.Sprintf("sp-%d", i), fmt.Sprintf("sv-%d", i)
		want[key] = value
		pairs = append(pairs, key, value)
	}
	broadcastWrites(t, nodes, 1, 1, pairs...)
	for i, nd := range nodes {
		nd := nd
		waitFor(t, 30*time.Second, fmt.Sprintf("phase 1 on node %d", i), func() bool {
			return shardedHasKeys(nd, shards, want) && deltaCheckpointBytes(nd, 0) > 0 && deltaCheckpointBytes(nd, 1) > 0
		})
	}

	// Kill every process: the per-group data directories are all that is
	// left.
	for _, nd := range nodes {
		nd.Stop()
	}
	restarted := make([]*Node, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			ID: model.PID(i), N: n, B: 1,
			ListenAddr: peers[model.PID(i)],
			AuthSeed:   42,
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
	t.Cleanup(func() {
		for _, nd := range restarted {
			nd.Stop()
		}
	})

	// Disk-first recovery: every key restored into its pre-outage group —
	// shardedHasKeys also asserts absence from the other group, so a
	// mapping drift across the restart would fail here.
	for i, nd := range restarted {
		nd := nd
		waitFor(t, 30*time.Second, fmt.Sprintf("restored state on node %d", i), func() bool {
			return shardedHasKeys(nd, shards, want)
		})
	}

	// Fresh load after the outage decides on both groups.
	pairs = pairs[:0]
	for i := 12; i < 20; i++ {
		key, value := fmt.Sprintf("sp-%d", i), fmt.Sprintf("sv-%d", i)
		want[key] = value
		pairs = append(pairs, key, value)
	}
	broadcastWrites(t, nodes, 1, 13, pairs...)
	for i, nd := range nodes {
		nd := nd
		waitFor(t, 60*time.Second, fmt.Sprintf("phase 2 on node %d", i), func() bool {
			return shardedHasKeys(nd, shards, want)
		})
	}

	// Both groups really decided instances, and the group logs converge
	// across the cluster. Every poll reads all the lengths afresh: a
	// trailing duplicate instance may commit after any one read.
	for g := 0; g < shards; g++ {
		gid := wire.GroupID(g)
		waitFor(t, 30*time.Second, fmt.Sprintf("group %d logs to converge", g), func() bool {
			ref := nodes[0].GroupReplica(gid).Log.Len()
			for _, nd := range nodes[1:] {
				if nd.GroupReplica(gid).Log.Len() != ref {
					return false
				}
			}
			return ref > 0
		})
	}
}
