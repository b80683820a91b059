package node

// End-to-end digest voting over real TCP: clusters propose by content
// address, payloads travel once on the payload plane (push, or pull under
// a small gossip fanout), and the committed logs hold only resolved
// batches — commits never wedge on a digest.

import (
	"fmt"
	"testing"
	"time"

	"genconsensus/internal/kv"
	"genconsensus/internal/smr"
)

func digestClusterConfig(cfg *Config) {
	cfg.DigestVotes = true
	cfg.MaxBatch = 8
	cfg.Pipeline = 2
	cfg.BaseTimeout = 40 * time.Millisecond
}

// assertResolvedLogs fails if any committed log entry is still a digest.
func assertResolvedLogs(t *testing.T, nodes []*Node) {
	t.Helper()
	for i, nd := range nodes {
		_, entries := nd.Replica().Log.Retained()
		for j, entry := range entries {
			if smr.IsDigestVote(entry) {
				t.Fatalf("node %d log[%d] is an unresolved digest: %q", i, j, entry)
			}
		}
	}
}

func runDigestCluster(t *testing.T, mutate func(*Config)) {
	t.Helper()
	nodes, _ := startNodes(t, 4, func(cfg *Config) {
		digestClusterConfig(cfg)
		if mutate != nil {
			mutate(cfg)
		}
	})
	want := map[string]string{}
	for i := 0; i < 30; i++ {
		k, v := fmt.Sprintf("dk%d", i), fmt.Sprintf("dv%d", i)
		want[k] = v
		submitAll(nodes, kv.Command(fmt.Sprintf("dr%d", i), "SET", k, v))
	}
	for _, nd := range nodes {
		nd := nd
		waitFor(t, 15*time.Second, "digest-mode commits", func() bool { return hasKeys(nd, want) })
	}
	checkLogConsistency(t, nodes)
	assertResolvedLogs(t, nodes)
}

// Full-mesh announces: every peer holds the payload before weighing it.
func TestKVNodeDigestVotes(t *testing.T) {
	runDigestCluster(t, nil)
	// (payload-plane counters are covered by TestKVNodeDigestStats below.)
}

// Fanout 1: most peers never get the push and must resolve by pulling —
// the gossip recovery path carries the commit load.
func TestKVNodeDigestGossipFanout(t *testing.T) {
	runDigestCluster(t, func(cfg *Config) { cfg.GossipFanout = 1 })
}

// The payload plane shows up in the observability surface: per-group
// counters and store gauges under g<k>.transport.payload_*.
func TestKVNodeDigestStats(t *testing.T) {
	nodes, _ := startNodes(t, 4, digestClusterConfig)
	want := map[string]string{}
	for i := 0; i < 20; i++ {
		k, v := fmt.Sprintf("sk%d", i), fmt.Sprintf("sv%d", i)
		want[k] = v
		submitAll(nodes, kv.Command(fmt.Sprintf("sr%d", i), "SET", k, v))
	}
	for _, nd := range nodes {
		nd := nd
		waitFor(t, 15*time.Second, "digest-mode commits", func() bool { return hasKeys(nd, want) })
	}
	hits := uint64(0)
	for _, nd := range nodes {
		hits += nd.Metrics().CounterValue("g0.transport.payload_hits")
	}
	if hits == 0 {
		t.Fatal("no payload_hits counted: digest mode did not engage")
	}
	found := false
	for _, stat := range nodes[0].Metrics().Snapshot() {
		if stat.Name == "g0.transport.payload_store_bytes" {
			found = true
		}
	}
	if !found {
		t.Fatal("payload_store_bytes gauge missing from snapshot")
	}
}

// Digest voting shrinks the voting plane (agree on references, move bulk
// data once): the same 64-command load costs at least 5x fewer
// envelope+session bytes per decided instance than full-value voting.
// Payload frames are excluded — they are the plane the bytes moved to.
func TestKVNodeDigestShrinksVotingPlane(t *testing.T) {
	perInstance := map[bool]float64{}
	for _, tc := range []struct {
		name   string
		digest bool
	}{{"mesh", false}, {"digest", true}} {
		t.Run(tc.name, func(t *testing.T) {
			nodes, _ := startNodes(t, 4, func(cfg *Config) {
				cfg.DigestVotes = tc.digest
				cfg.MaxBatch = 64
				cfg.Pipeline = 2
				cfg.BaseTimeout = 40 * time.Millisecond
			})
			want := map[string]string{}
			for i := 0; i < 64; i++ {
				k, v := fmt.Sprintf("vk%d", i), fmt.Sprintf("%064d", i) // bench/'s 64-byte values
				want[k] = v
				submitAll(nodes, kv.Command(fmt.Sprintf("vr%d", i), "SET", k, v))
			}
			for _, nd := range nodes {
				nd := nd
				waitFor(t, 15*time.Second, "commits", func() bool { return hasKeys(nd, want) })
			}
			var voteBytes uint64
			for _, nd := range nodes {
				voteBytes += nd.Metrics().CounterValue("transport.bytes_in.envelope")
				voteBytes += nd.Metrics().CounterValue("transport.bytes_in.session")
			}
			decisions := nodes[0].Metrics().CounterValue("g0.smr.decisions")
			if decisions == 0 {
				t.Fatal("no decisions counted")
			}
			perInstance[tc.digest] = float64(voteBytes) / float64(decisions)
			t.Logf("%d vote bytes over %d instances", voteBytes, decisions)
		})
	}
	if mesh, digest := perInstance[false], perInstance[true]; mesh < 5*digest {
		t.Fatalf("vote bytes per instance: mesh %.0f, digest %.0f — want mesh >= 5x digest", mesh, digest)
	}
}
