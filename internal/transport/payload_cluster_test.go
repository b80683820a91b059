package transport_test

// The value plane under whole replica servers: tests that need both
// internal/node's dispatcher and this package's test hooks, and therefore
// live in the external test package (node imports transport).

import (
	"fmt"
	"testing"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/node"
	"genconsensus/internal/smr"
	"genconsensus/internal/transport"
)

// startReplicas starts n loopback replica servers built from cfg (each
// with its own ID and a free port) that know each other's addresses, and
// stops them when the test ends.
func startReplicas(t *testing.T, n int, cfg node.Config) []*node.Node {
	t.Helper()
	nodes := make([]*node.Node, n)
	peers := make(map[model.PID]string, n)
	for i := range nodes {
		c := cfg
		c.ID, c.N, c.ListenAddr = model.PID(i), n, "127.0.0.1:0"
		nd, err := node.New(c, kv.NewStore())
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
			nd.Stop()
		}
	})
	return nodes
}

// writeAll submits writes signed SETs of key(i) = value(i) to every
// replica but skip (-1 for none) and waits until every replica has
// applied all of them, failing the test after wait.
func writeAll(t *testing.T, nodes []*node.Node, writes, skip int, key, value func(int) string, wait time.Duration) {
	t.Helper()
	signer := auth.NewClientSigner(42, 1)
	for i := 0; i < writes; i++ {
		cmd, err := kv.SignedCommand(signer, uint64(i+1), "SET", key(i), value(i))
		if err != nil {
			t.Fatal(err)
		}
		for j, nd := range nodes {
			if j != skip {
				nd.Submit(cmd)
			}
		}
	}
	deadline := time.Now().Add(wait)
	for i, nd := range nodes {
		store := nd.GroupStores()[0]
		for w := 0; w < writes; w++ {
			for {
				if got, ok := store.Get(key(w)); ok && got == value(w) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("node %d never applied %s", i, key(w))
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
}

// runPayloadCluster drives writes signed 64-byte SETs through a 4-replica
// loopback cluster at MaxBatch=64, Pipeline=4, submitting each to every
// replica but skip (-1 for none), and checks what every test here needs:
// everything commits, every replica holds the same resolved log, and no
// group ever sat still long enough to trip its stall watcher.
func runPayloadCluster(t *testing.T, writes int, skip int) []*node.Node {
	t.Helper()
	const n = 4
	nodes := startReplicas(t, n, node.Config{B: 1, AuthSeed: 42, MaxBatch: 64, Pipeline: 4})
	start := time.Now()
	writeAll(t, nodes, writes, skip,
		func(i int) string { return fmt.Sprintf("pk%d", i) },
		func(i int) string { return fmt.Sprintf("%064d", i) },
		30*time.Second)
	deadline := start.Add(30 * time.Second)

	// Every key applied does not mean every instance did: a trailing one
	// (a NoOp, or a batch of re-proposed duplicates) may still be
	// committing somewhere, so the logs are compared once their lengths
	// agree.
	logs := make([][]model.Value, n)
	for {
		for i, nd := range nodes {
			_, logs[i] = nd.Replica().Log.Retained()
		}
		if sameLengths(logs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("log lengths never converged: %d, %d, %d, %d",
				len(logs[0]), len(logs[1]), len(logs[2]), len(logs[3]))
		}
		time.Sleep(5 * time.Millisecond)
	}
	ref := logs[0]
	for i, nd := range nodes {
		for j, entry := range logs[i] {
			if entry != ref[j] {
				t.Fatalf("node %d log[%d] differs from node 0's", i, j)
			}
			if smr.IsDigestVote(entry) {
				t.Fatalf("node %d log[%d] is an unresolved digest", i, j)
			}
		}
		if stalls := nd.Metrics().CounterValue("g0.node.stalls"); stalls != 0 {
			t.Fatalf("node %d stalled %d time(s)", i, stalls)
		}
	}
	return nodes
}

func sameLengths(logs [][]model.Value) bool {
	for _, l := range logs {
		if len(l) != len(logs[0]) {
			return false
		}
	}
	return true
}

// A healthy cluster never loses a payload its own in-flight instances
// need, however tight the store: with every sender's cap at its minimum
// the load commits without a stall. (A byte-budget FIFO at 256 KiB wedged
// here — a payload evicted before its own instance decided.)
func TestPayloadClusterPinnedAtMinimumCap(t *testing.T) {
	t.Cleanup(transport.SetPayloadSenderCap(1))
	runPayloadCluster(t, 640, -1)
}

// Every announce addressed to replica 2 is lost, and no client reaches it
// (or it would hold most bodies as its own proposals). It still commits
// the same log as the rest — pulling each body it must weigh or apply by
// digest, from a peer's store or, once the peer has released the instance,
// its decision ring — and never falls back on the stall watcher. Commit
// latency is observed for every instance a replica's workers decide, the
// ones whose payload had to be pulled included: on a replica that never
// caught up, g0.node.commit_ns counts exactly its decisions.
func TestPayloadClusterLostAnnounce(t *testing.T) {
	t.Cleanup(transport.SetPayloadAnnounceDrop(func(_, to model.PID) bool { return to == 2 }))
	nodes := runPayloadCluster(t, 200, 2)
	if fetches := nodes[2].Metrics().CounterValue("g0.transport.payload_fetches"); fetches == 0 {
		t.Fatal("replica 2 committed without a single fetch: the announces were not dropped")
	}
	for i, nd := range nodes {
		reg := nd.Metrics()
		if reg.CounterValue("g0.node.catchups") != 0 {
			continue // a caught-up instance commits without a local decision
		}
		// A worker observes at its decision, just before delivering it, so
		// the two counts may differ for the moment between.
		var observed, decisions uint64
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			observed = reg.Histogram("g0.node.commit_ns").Count()
			decisions = reg.CounterValue("g0.smr.decisions")
			if observed == decisions || time.Now().After(deadline) {
				break
			}
		}
		if observed != decisions {
			t.Errorf("node %d: commit_ns observed %d instances, decided %d", i, observed, decisions)
		}
	}
}
