package node

// One proposer per instance: the instance's owner (transport.Owner)
// announces its batch, every other replica adopts it under the adoption
// rule, and a replica the owner never reaches proposes its own batch.

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/smr"
)

// The adoption rule refuses every batch the chooser would weigh at zero —
// forged or carrying one identity twice — and adopts anything else as the
// vote its owner cast. It reads the proposal alone: four followers, each
// with its own context and store as every node holds, sit at different
// commit points, and each proposal is adopted by all four or by none —
// a batch some of them have already committed included.
func TestOwnerAdoptionRule(t *testing.T) {
	w := newSignedWriter(1)
	batch := func(cmds ...model.Value) model.Value {
		b, err := smr.EncodeBatch(cmds)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	noPull := func([sha256.Size]byte) (model.Value, bool) {
		t.Fatal("a vote in the clear was pulled")
		return model.NoValue, false
	}

	history := []model.Value{w.set("f", "6"), w.set("g", "7"), w.set("h", "8")}
	followers := make([]*smr.AuthContext, 4)
	for i := range followers {
		followers[i] = smr.NewAuthContext(auth.NewClientKeyring(42, 16), kv.DefaultSeqWindow)
		store := kv.NewStore()
		store.EnableClientAuth(followers[i], kv.DefaultSeqWindow)
		for _, cmd := range history[:i] {
			store.Apply(cmd)
		}
	}
	ax := followers[0]

	genuine := w.set("c", "3")
	forged := []byte(w.set("d", "4"))
	forged[len(forged)-1] ^= 1 // the MAC is the envelope's tail
	first := w.set("e", "5")
	twin := &signedWriter{signer: w.signer, seq: w.seq - 1}
	second := twin.set("e", "other") // first's (client, seq), another payload
	for _, tc := range []struct {
		name  string
		body  model.Value
		adopt bool
	}{
		{"honest batch", batch(w.set("a", "1"), w.set("b", "2")), true},
		{"partly committed", batch(history[2], genuine), true},
		{"all replayed", batch(history...), true},
		{"forged entry", batch(genuine, model.Value(forged)), false},
		{"duplicate identity", batch(genuine, first, second), false},
		{"NoOp", smr.NoOp, false},
	} {
		// The owner votes its batch by digest, as it announced it, and
		// NoOp in the clear; the digest resolves to the announced body.
		vote, pull := tc.body, noPull
		if smr.ByDigest(tc.body) {
			vote = smr.DigestVote(smr.DigestOf(tc.body))
			pull = func(sum [sha256.Size]byte) (model.Value, bool) {
				return tc.body, sum == smr.DigestOf(tc.body)
			}
		}
		adopted := 0
		for _, fax := range followers {
			if adopt(fax, vote, pull) {
				adopted++
			}
		}
		if adopted != 0 && adopted != len(followers) {
			t.Errorf("%s: adopted by %d of %d followers", tc.name, adopted, len(followers))
		} else if got := adopted > 0; got != tc.adopt {
			t.Errorf("%s: adopted = %v, want %v", tc.name, got, tc.adopt)
		}
	}

	// The announce was lost: the owner's digest vote is pulled by content
	// address and the pulled body judged by the same rule.
	pulled := batch(w.set("i", "9"))
	vote := smr.DigestVote(smr.DigestOf(pulled))
	pull := func(sum [sha256.Size]byte) (model.Value, bool) {
		if sum != smr.DigestOf(pulled) {
			t.Fatalf("pulled digest %x, want the owner's", sum[:4])
		}
		return pulled, true
	}
	if !adopt(ax, vote, pull) {
		t.Fatal("pulled batch: not adopted")
	}
	failed := func([sha256.Size]byte) (model.Value, bool) { return model.NoValue, false }
	if adopt(ax, vote, failed) {
		t.Fatal("adopted a digest whose body never arrived")
	}
}

// writeWaves commits one signed SET per wave through every live node,
// waiting for each to apply everywhere before the next: one or more
// instances per wave, so every member owns some of them.
func writeWaves(t *testing.T, nodes []*Node, waves int) {
	t.Helper()
	w := newSignedWriter(1)
	for i := 0; i < waves; i++ {
		k, v := fmt.Sprintf("ow%d", i), fmt.Sprintf("v%d", i)
		want := map[string]string{k: v}
		submitAll(nodes, w.set(k, v))
		for _, nd := range nodes {
			if nd != nil {
				waitFor(t, 15*time.Second, "wave commit", func() bool { return hasKeys(nd, want) })
			}
		}
	}
}

// A healthy cluster under signed load decides every instance on its
// owner's batch: each replica adopts the batches of the instances it does
// not own, and none ever falls back on its own.
func TestKVNodeOwnersPropose(t *testing.T) {
	nodes, _ := startNodes(t, 4, func(cfg *Config) {
		cfg.BaseTimeout = 500 * time.Millisecond // no owner is that slow here
	})
	writeWaves(t, nodes, 8)
	checkLogConsistency(t, nodes)
	for i, nd := range nodes {
		m := nd.Metrics()
		if got := m.CounterValue("g0.node.owner_fallbacks"); got != 0 {
			t.Errorf("node %d fell back on its own batch %d time(s)", i, got)
		}
		if got := m.CounterValue("g0.node.proposals_adopted"); got == 0 {
			t.Errorf("node %d adopted no owner's proposal", i)
		}
	}
}

// With one member stopped, the instances it owns are proposed by the
// others after one bounded wait: every write still commits on the three
// live replicas, and each of them counts its fallbacks.
func TestKVNodeOwnerStopped(t *testing.T) {
	nodes, _ := startNodes(t, 4, func(cfg *Config) {
		cfg.BaseTimeout = 40 * time.Millisecond
	})
	nodes[0].Stop()
	nodes[0] = nil
	writeWaves(t, nodes, 8)
	live := nodes[1:]
	checkLogConsistency(t, live)
	for i, nd := range live {
		if got := nd.Metrics().CounterValue("g0.node.owner_fallbacks"); got == 0 {
			t.Errorf("node %d never fell back, though node 0 owns every fourth instance", i+1)
		}
	}
}
