package node

// End-to-end digest voting over real TCP: clusters propose by content
// address, payloads travel once on the payload plane (announced to every
// peer), and the committed logs hold only resolved
// batches — commits never wedge on a digest. (The lifetime tests that need
// the transport's hooks — minimum cap, lost announces — are in
// internal/transport/payload_cluster_test.go.)

import (
	"fmt"
	"testing"
	"time"

	"genconsensus/internal/model"
	"genconsensus/internal/smr"
)

func digestClusterConfig(cfg *Config) {
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

// Full-mesh announces: every peer holds the payload before weighing it.
// (Payload-plane counters are covered by TestKVNodeDigestStats below.)
func TestKVNodeDigestVotes(t *testing.T) {
	nodes, _ := startNodes(t, 4, digestClusterConfig)
	want := map[string]string{}
	w := newSignedWriter(1)
	for i := 0; i < 30; i++ {
		k, v := fmt.Sprintf("dk%d", i), fmt.Sprintf("dv%d", i)
		want[k] = v
		submitAll(nodes, w.set(k, v))
	}
	for _, nd := range nodes {
		nd := nd
		waitFor(t, 15*time.Second, "digest-mode commits", func() bool { return hasKeys(nd, want) })
	}
	checkLogConsistency(t, nodes)
	assertResolvedLogs(t, nodes)
}

// The payload plane shows up in the observability surface: counters and
// store gauges under g0.transport.payload_*.
func TestKVNodeDigestStats(t *testing.T) {
	nodes, _ := startNodes(t, 4, digestClusterConfig)
	want := map[string]string{}
	w := newSignedWriter(1)
	for i := 0; i < 20; i++ {
		k, v := fmt.Sprintf("sk%d", i), fmt.Sprintf("sv%d", i)
		want[k] = v
		submitAll(nodes, w.set(k, v))
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

// Agree on references, move the bulk data once — as absolute budgets on
// bench/'s shape (64 commands of 64-byte values, MaxBatch=64, n=4). The
// voting plane (envelope + session frames) costs at most 16 KiB per decided
// instance however large the batch (measured 2,790 B = 24 frames of ~116
// B, two rounds of 12; the budget leaves room for a phase-2 decision); the
// payload plane carries each proposal across each link once, so at
// most n(n-1) encoded batches per instance plus framing.
func TestKVNodeDigestShrinksVotingPlane(t *testing.T) {
	const n = 4
	nodes, _ := startNodes(t, n, func(cfg *Config) {
		cfg.MaxBatch = 64
		cfg.Pipeline = 2
		cfg.BaseTimeout = 40 * time.Millisecond
	})
	want := map[string]string{}
	var cmds []model.Value
	w := newSignedWriter(1)
	for i := 0; i < 64; i++ {
		k, v := fmt.Sprintf("vk%d", i), fmt.Sprintf("%064d", i) // bench/'s 64-byte values
		want[k] = v
		cmd := w.set(k, v)
		cmds = append(cmds, cmd)
		submitAll(nodes, cmd)
	}
	for _, nd := range nodes {
		nd := nd
		waitFor(t, 15*time.Second, "commits", func() bool { return hasKeys(nd, want) })
	}
	batch, err := smr.EncodeBatch(cmds)
	if err != nil {
		t.Fatal(err)
	}
	var voteBytes, payloadBytes uint64
	for _, nd := range nodes {
		voteBytes += nd.Metrics().CounterValue("transport.bytes_in.envelope")
		voteBytes += nd.Metrics().CounterValue("transport.bytes_in.session")
		payloadBytes += nd.Metrics().CounterValue("transport.bytes_in.payload")
	}
	decisions := nodes[0].Metrics().CounterValue("g0.smr.decisions")
	if decisions == 0 {
		t.Fatal("no decisions counted")
	}
	t.Logf("%d vote bytes, %d payload bytes over %d instances (full batch %d bytes)",
		voteBytes, payloadBytes, decisions, len(batch))
	if per := float64(voteBytes) / float64(decisions); per > 16<<10 {
		t.Fatalf("voting plane: %.0f bytes per instance, budget %d", per, 16<<10)
	}
	if per, budget := float64(payloadBytes)/float64(decisions), 1.1*float64(n*(n-1)*len(batch)); per > budget {
		t.Fatalf("payload plane: %.0f bytes per instance, budget %.0f: a proposal crossed a link more than once", per, budget)
	}
}

// A decided digest whose payload is still in flight is delivered by the
// payload's arrival, not by the next tick of a poll (it used to sleep 20 ms
// between looks): arriving 1 ms after the decision, it commits within 10.
func TestKVNodeDigestWakesOnArrival(t *testing.T) {
	nodes, _ := startNodes(t, 4, digestClusterConfig)
	nd := nodes[0]
	w := newSignedWriter(1)
	batchOf := func(tag string) model.Value {
		batch, err := smr.EncodeBatch([]model.Value{w.set(tag+"a", "1"), w.set(tag+"b", "2")})
		if err != nil {
			t.Fatal(err)
		}
		return batch
	}
	// Dial and handshake the 1 -> 0 link first; the measurement is of the
	// wake-up, not of connection set-up.
	warm := batchOf("warm")
	nodes[1].tn.AnnouncePayload(1, smr.DigestOf(warm), warm)
	waitFor(t, 5*time.Second, "link warm-up", func() bool {
		_, ok := nodes[0].tn.ResolvePayload(1, smr.DigestOf(warm))
		return ok
	})
	best := time.Hour
	for instance := uint64(1); instance <= 3 && best >= 10*time.Millisecond; instance++ {
		// Each attempt decides the group's next instance, on a loaded box
		// the best of three is the wake-up's own latency.
		batch := batchOf(fmt.Sprintf("wake%d", instance))
		sum := smr.DigestOf(batch)
		start := time.Now()
		go func() {
			time.Sleep(time.Millisecond)
			nodes[1].tn.AnnouncePayload(instance, sum, batch)
		}()
		nd.deliverDecided(instance, smr.DigestVote(sum))
		if took := time.Since(start); took < best {
			best = took
		}
		if next := nd.commits.NextCommit(); next != instance+1 {
			t.Fatalf("deliverDecided returned with the watermark at %d, want %d", next, instance+1)
		}
	}
	t.Logf("delivered %v after the decision", best)
	if best >= 10*time.Millisecond {
		t.Fatalf("payload arriving 1 ms after the decision was delivered in %v", best)
	}
	assertResolvedLogs(t, nodes[:1])
}
