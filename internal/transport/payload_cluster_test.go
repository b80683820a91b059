package transport_test

// The value plane under whole replica servers: tests that need both
// internal/node's dispatcher and this package's test hooks, and therefore
// live in the external test package (node imports transport).

import (
	"fmt"
	"testing"
	"time"

	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/node"
	"genconsensus/internal/smr"
	"genconsensus/internal/transport"
)

// runPayloadCluster drives writes 64-byte SETs through a 4-replica
// loopback cluster at MaxBatch=64, Pipeline=4, submitting each to every
// replica but skip (-1 for none), and checks what every test here needs:
// everything commits, every replica holds the same resolved log, and no
// group ever sat still long enough to trip its stall watcher.
func runPayloadCluster(t *testing.T, writes int, skip int) []*node.Node {
	t.Helper()
	const n = 4
	nodes := make([]*node.Node, n)
	peers := make(map[model.PID]string, n)
	for i := range nodes {
		nd, err := node.New(node.Config{
			ID: model.PID(i), N: n, B: 1,
			ListenAddr: "127.0.0.1:0",
			AuthSeed:   42,
			MaxBatch:   64,
			Pipeline:   4,
		}, kv.NewStore())
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

	want := make(map[string]string, writes)
	for i := 0; i < writes; i++ {
		k, v := fmt.Sprintf("pk%d", i), fmt.Sprintf("%064d", i)
		want[k] = v
		cmd := kv.Command(fmt.Sprintf("pr%d", i), "SET", k, v)
		for j, nd := range nodes {
			if j != skip {
				nd.Submit(cmd)
			}
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for i, nd := range nodes {
		store := nd.GroupStores()[0]
		for k, v := range want {
			for {
				if got, ok := store.Get(k); ok && got == v {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("node %d never applied %s", i, k)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}

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
// its decision ring — and never falls back on the stall watcher.
func TestPayloadClusterLostAnnounce(t *testing.T) {
	t.Cleanup(transport.SetPayloadAnnounceDrop(func(_, to model.PID) bool { return to == 2 }))
	nodes := runPayloadCluster(t, 200, 2)
	if fetches := nodes[2].Metrics().CounterValue("g0.transport.payload_fetches"); fetches == 0 {
		t.Fatal("replica 2 committed without a single fetch: the announces were not dropped")
	}
}
