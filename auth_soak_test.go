package genconsensus

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"genconsensus/internal/auth"
	"genconsensus/internal/core"
	"genconsensus/internal/flv"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/selector"
	"genconsensus/internal/smr"
)

// soakClientSeed derives the soaks' client keys.
const soakClientSeed = int64(2010)

// newSignedCluster builds a cluster over params and cfg whose replicas and
// kv stores all verify under one context over the soak keyring (clients
// 0..3, replay window 256).
func newSignedCluster(t *testing.T, params core.Params, seed int64, cfg smr.ClusterConfig) *smr.Cluster {
	t.Helper()
	ax := smr.NewAuthContext(auth.NewClientKeyring(soakClientSeed, 4), 256)
	cluster, err := smr.NewCluster(params, ax, func(model.PID) smr.StateMachine {
		store := kv.NewStore()
		store.EnableClientAuth(ax, 256)
		return store
	}, seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cluster
}

// class3Soak is the soaks' class-3 (n=6, b=1, f=1) parameterization.
func class3Soak() core.Params {
	return core.Params{
		N: 6, B: 1, F: 1, TD: 4,
		Flag:       model.FlagPhase,
		FLV:        flv.NewClass3(6, 4, 1, false),
		Selector:   selector.NewAll(6),
		UseHistory: true,
	}
}

// serialSoakStrategy names one Byzantine proposer of the serial soak; mk
// builds it from the committed log of the warm-up wave, which the replay
// and strip strategies capture from.
type serialSoakStrategy struct {
	name string
	mk   func(committed []model.Value) Strategy
}

// TestSMRAuthenticatedSoak is the fabrication soak of the authenticated
// command lifecycle: the serial soak (runSerialSoak) with the Byzantine
// member rotating through the command-injection strategies — fabricating
// envelopes no client signed, replaying the committed log, and stripping
// signatures off real payloads.
func TestSMRAuthenticatedSoak(t *testing.T) {
	runSerialSoak(t, 0, []serialSoakStrategy{
		{"fabricate", func([]model.Value) Strategy { return smr.FabricateCommands(5000) }},
		{"replay", func(committed []model.Value) Strategy { return smr.ReplayCommands(committed) }},
		{"strip", func(committed []model.Value) Strategy { return smr.StripSignatures(committed) }},
	})
}

// TestSMRBatchedSoak is the serial soak (runSerialSoak) with the Byzantine
// member rotating through the generic strategies: silence, equivocation,
// random junk, forged timestamps and mimicry.
func TestSMRBatchedSoak(t *testing.T) {
	var strategies []serialSoakStrategy
	for _, st := range []Strategy{
		Silent(),
		Equivocate("evil-a", "evil-b"),
		RandomJunk("junk-1", "junk-2", "__noop__"),
		ForgeTimestamp("forged"),
		Mimic(),
	} {
		strategies = append(strategies, serialSoakStrategy{st.Name(), func([]model.Value) Strategy { return st }})
	}
	runSerialSoak(t, 3, strategies)
}

// runSerialSoak is the serial soak, one subtest per strategy: a class-3
// (n=6, b=1, f=1) cluster under bursty signed load from three clients where
// the Byzantine member runs the strategy while one member crashes mid-run.
// Every wave must preserve log consistency (CheckConsistency) AND
// provenance (CheckProvenance): no unauthenticated entry and no (client,
// seq) decided twice, on any honest log. The stores must converge to
// exactly the signed writes. Subtest i draws its seeds from firstRun+i, so
// a reported failure replays in isolation.
func runSerialSoak(t *testing.T, firstRun int, strategies []serialSoakStrategy) {
	for i, st := range strategies {
		run := firstRun + i
		t.Run(st.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(600 + int64(run)))
			cluster := newSignedCluster(t, class3Soak(), 700+int64(run), smr.ClusterConfig{MaxBatch: 8})

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
				key := fmt.Sprintf("sk-%d-%d", c, seqs[c]%13)
				value := fmt.Sprintf("sv-%d-%d", c, seqs[c])
				cmd, err := kv.SignedCommand(signers[c], seqs[c], "SET", key, value)
				if err != nil {
					t.Fatal(err)
				}
				want[key] = value
				cluster.Submit(0, cmd)
			}

			// Warm-up wave so the replay/strip strategies have a committed
			// log to capture from.
			for i := 0; i < 10; i++ {
				submit()
			}
			if err := cluster.Drain(40); err != nil {
				t.Fatal(err)
			}
			committed := cluster.Replica(1).Log.Entries()

			for wave := 0; wave < 8; wave++ {
				burst := rng.Intn(16)
				for i := 0; i < burst; i++ {
					submit()
				}
				if wave == 1 {
					if err := cluster.SetByzantine(5, st.mk(committed)); err != nil {
						t.Fatal(err)
					}
				}
				if wave == 4 {
					if err := cluster.Crash(0); err != nil {
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
			if err := cluster.Drain(120); err != nil {
				t.Fatal(err)
			}
			if err := cluster.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			if err := cluster.CheckProvenance(); err != nil {
				t.Fatal(err)
			}

			// Live honest replicas converge to exactly the signed writes:
			// identical stores, every expected key present, nothing forged.
			ref := cluster.Replica(1).SM.(*kv.Store).Snapshot()
			for k, v := range want {
				if ref[k] != v {
					t.Fatalf("missing signed write %s = %q (got %q)", k, v, ref[k])
				}
			}
			for k := range ref {
				if !strings.HasPrefix(k, "sk-") {
					t.Fatalf("unexpected key %q in the store", k)
				}
			}
			for p := 2; p <= 4; p++ {
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
		})
	}
}
