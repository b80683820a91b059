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
	"genconsensus/internal/model"
	"genconsensus/internal/smr"
	"genconsensus/internal/transport"
)

// The adoption rule refuses every batch the chooser would weigh at zero —
// forged, carrying one identity twice, or wholly committed already — and
// adopts anything else as the vote its owner cast.
func TestOwnerAdoptionRule(t *testing.T) {
	ax := smr.NewAuthContext(auth.NewClientKeyring(42, 16), smr.DefaultSeqWindow)
	w := newSignedWriter(1)
	batch := func(cmds ...model.Value) model.Value {
		b, err := smr.EncodeBatch(cmds)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	announced := func(body model.Value) transport.OwnerProposal {
		return transport.OwnerProposal{Sum: smr.DigestOf(body), Body: body}
	}
	noPull := func([sha256.Size]byte) (model.Value, bool) {
		t.Fatal("an announced body was pulled")
		return model.NoValue, false
	}

	good := batch(w.set("a", "1"), w.set("b", "2"))
	if vote, ok := adopt(ax, announced(good), noPull); !ok || vote != smr.DigestVote(smr.DigestOf(good)) {
		t.Fatalf("honest batch: adopt = %q, %v; want its digest vote", vote, ok)
	}

	genuine := w.set("c", "3")
	forged := []byte(w.set("d", "4"))
	forged[len(forged)-1] ^= 1 // the MAC is the envelope's tail
	first := w.set("e", "5")
	twin := &signedWriter{signer: w.signer, seq: w.seq - 1}
	second := twin.set("e", "other") // first's (client, seq), another payload
	replayed := []model.Value{w.set("f", "6"), w.set("g", "7")}
	for _, cmd := range replayed {
		ax.RecordCommitted(cmd)
	}
	for _, tc := range []struct {
		name string
		body model.Value
	}{
		{"forged entry", batch(genuine, model.Value(forged))},
		{"duplicate identity", batch(genuine, first, second)},
		{"all replayed", batch(replayed...)},
		{"NoOp", smr.NoOp},
	} {
		if vote, ok := adopt(ax, announced(tc.body), noPull); ok {
			t.Errorf("%s: adopted as %q", tc.name, vote)
		}
	}

	// The announce was lost but the owner's round-1 vote arrived: its
	// digest is pulled and the pulled body judged by the same rule.
	pulled := batch(w.set("i", "9"))
	vote := smr.DigestVote(smr.DigestOf(pulled))
	pull := func(sum [sha256.Size]byte) (model.Value, bool) {
		if sum != smr.DigestOf(pulled) {
			t.Fatalf("pulled digest %x, want the owner's", sum[:4])
		}
		return pulled, true
	}
	if got, ok := adopt(ax, transport.OwnerProposal{Vote: vote}, pull); !ok || got != vote {
		t.Fatalf("pulled batch: adopt = %q, %v; want the owner's vote", got, ok)
	}
	failed := func([sha256.Size]byte) (model.Value, bool) { return model.NoValue, false }
	if _, ok := adopt(ax, transport.OwnerProposal{Vote: vote}, failed); ok {
		t.Fatal("adopted a digest whose body never arrived")
	}
	if _, ok := adopt(ax, transport.OwnerProposal{Vote: smr.NoOp}, noPull); ok {
		t.Fatal("adopted the owner's NoOp vote")
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
