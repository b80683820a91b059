package genconsensus

import (
	"fmt"
	"math/rand"
	"testing"

	"genconsensus/internal/auth"
	"genconsensus/internal/core"
	"genconsensus/internal/flv"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/selector"
	"genconsensus/internal/smr"
)

// TestSMRDigestSoak is the large-cluster soak of digest voting: a class-3
// n=25, b=4, f=4 (TD=17) cluster under signed client load where the full
// Byzantine budget comes up mid-run — two members voting hostile digests
// (well-formed content addresses of payloads nobody published), one
// fabricating unsigned envelopes, one replaying the committed log — and one
// member crashes. Every wave must preserve log consistency AND provenance,
// no digest vote may ever reach an honest log (resolve-before-weigh prices
// unresolvable references at zero; decided digests resolve before commit),
// and the honest stores must converge to exactly the signed writes. This is
// the throughput-survives-large-n claim exercised at the safety layer: 25
// members agree on 32-byte content addresses while the payload plane (the
// shared DigestTable here, the transport store on TCP) carries the bytes.
func TestSMRDigestSoak(t *testing.T) {
	const (
		n, b, f = 25, 4, 4
		td      = n - b - f // 17
	)
	rng := rand.New(rand.NewSource(2500))
	params := core.Params{
		N: n, B: b, F: f, TD: td,
		Flag:       model.FlagPhase,
		FLV:        flv.NewClass3(n, td, b, false),
		Selector:   selector.NewAll(n),
		UseHistory: true,
	}
	cluster := newSignedCluster(t, params, 2501, smr.ClusterConfig{MaxBatch: 4})

	signers := []*auth.ClientSigner{
		auth.NewClientSigner(soakClientSeed, 0),
		auth.NewClientSigner(soakClientSeed, 1),
		auth.NewClientSigner(soakClientSeed, 2),
	}
	seqs := make([]uint64, len(signers))
	want := map[string]string{}
	submit := func() {
		c := rng.Intn(len(signers))
		seqs[c]++
		key := fmt.Sprintf("gk-%d-%d", c, seqs[c]%17)
		value := fmt.Sprintf("gv-%d-%d", c, seqs[c])
		cmd, err := kv.SignedCommand(signers[c], seqs[c], "SET", key, value)
		if err != nil {
			t.Fatal(err)
		}
		want[key] = value
		cluster.Submit(0, cmd)
	}

	// Warm-up wave so the replay strategy has a committed log to capture.
	for i := 0; i < 8; i++ {
		submit()
	}
	if err := cluster.Drain(40); err != nil {
		t.Fatal(err)
	}
	committed := cluster.Replica(1).Log.Entries()

	// The fault schedule: the full b=4 Byzantine budget plus one of the f=4
	// crash slots, staged across the waves.
	faulty := map[model.PID]bool{0: true, 21: true, 22: true, 23: true, 24: true}
	for wave := 0; wave < 8; wave++ {
		burst := rng.Intn(10)
		for i := 0; i < burst; i++ {
			submit()
		}
		switch wave {
		case 1:
			if err := cluster.SetByzantine(24, smr.HostileDigests()); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := cluster.SetByzantine(23, smr.FabricateCommands(5000)); err != nil {
				t.Fatal(err)
			}
		case 3:
			if err := cluster.SetByzantine(22, smr.ReplayCommands(committed)); err != nil {
				t.Fatal(err)
			}
		case 4:
			if err := cluster.Crash(0); err != nil {
				t.Fatal(err)
			}
		case 5:
			if err := cluster.SetByzantine(21, smr.HostileDigests()); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cluster.RunInstance(); err != nil {
			t.Fatalf("wave %d: %v", wave, err)
		}
		if err := cluster.CheckConsistency(); err != nil {
			t.Fatalf("wave %d: %v", wave, err)
		}
		if err := cluster.CheckProvenance(); err != nil {
			t.Fatalf("wave %d: %v", wave, err)
		}
	}
	if err := cluster.Drain(160); err != nil {
		t.Fatal(err)
	}
	if err := cluster.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := cluster.CheckProvenance(); err != nil {
		t.Fatal(err)
	}

	// The replicated log never stores digests: every honest entry resolved
	// before commit, and no hostile digest ever priced above zero.
	for p := 0; p < n; p++ {
		if faulty[model.PID(p)] {
			continue
		}
		for i, entry := range cluster.Replica(model.PID(p)).Log.Entries() {
			if smr.IsDigestVote(entry) {
				t.Fatalf("replica %d log[%d] is a digest vote: %q", p, i, entry)
			}
		}
	}

	// Honest stores converge to exactly the signed writes.
	ref := cluster.Replica(1).SM.(*kv.Store).Snapshot()
	for k, v := range want {
		if ref[k] != v {
			t.Fatalf("missing signed write %s = %q (got %q)", k, v, ref[k])
		}
	}
	if len(ref) != len(want) {
		t.Fatalf("store holds %d keys, want %d", len(ref), len(want))
	}
	for p := 2; p <= 20; p += 3 {
		got := cluster.Replica(model.PID(p)).SM.(*kv.Store).Snapshot()
		if len(got) != len(ref) {
			t.Fatalf("replica %d: %d keys vs %d", p, len(got), len(ref))
		}
		for k, v := range ref {
			if got[k] != v {
				t.Fatalf("replica %d: %s = %q, want %q", p, k, got[k], v)
			}
		}
	}
}
