package smr

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"genconsensus/internal/auth"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/wire"
)

// countingAuth counts the MACs a context actually runs.
type countingAuth struct {
	*auth.ClientKeyring
	macs int
}

func (c *countingAuth) VerifyCommandStr(client uint32, seq uint64, payload, mac string) bool {
	c.macs++
	return c.ClientKeyring.VerifyCommandStr(client, seq, payload, mac)
}

// TestVerdictHitNeedsByteEquality: the verdict ring vouches for bytes, not
// for identities. A value that shares (client, seq) with a verified
// envelope but not its bytes is judged by its own MAC, whatever the slot
// holds, and judging it never costs the genuine envelope its verdict.
func TestVerdictHitNeedsByteEquality(t *testing.T) {
	ca := &countingAuth{ClientKeyring: auth.NewClientKeyring(testClientSeed, 8)}
	ax := NewAuthContext(ca, 16)
	signer := auth.NewClientSigner(testClientSeed, 1)
	genuine := signedKV(t, signer, 9, "k", "value")

	if !ax.VerifyValue(genuine) || ca.macs != 1 {
		t.Fatalf("first sight: verified with %d MACs, want 1", ca.macs)
	}
	if !ax.VerifyValue(genuine) || ca.macs != 1 {
		t.Fatalf("second sight ran %d MACs, want the verdict from the ring", ca.macs-1)
	}

	// One payload byte flipped under the original MAC, same length, same
	// identity: rejected while the genuine value sits in the slot.
	_, _, payload, _, err := wire.DecodeCommandParts(string(genuine))
	if err != nil {
		t.Fatal(err)
	}
	at := strings.Index(string(genuine), payload) + len(payload) - 1
	forged := genuine[:at] + model.Value([]byte{genuine[at] ^ 1}) + genuine[at+1:]
	for i := 0; i < 3; i++ {
		if ax.VerifyValue(forged) {
			t.Fatal("forgery under a genuine identity accepted")
		}
	}
	if ca.macs != 4 {
		t.Fatalf("three forgery judgements ran %d MACs, want 3 (failures are not remembered)", ca.macs-1)
	}
	if !ax.VerifyValue(genuine) || ca.macs != 4 {
		t.Fatal("judging the forgery cost the genuine envelope its verdict")
	}

	// An equivocating but provisioned client: the second payload verifies by
	// its own MAC, takes the slot, and the first then verifies by MAC again.
	// Both keep the one identity throughout.
	second := signedKV(t, signer, 9, "k", "other")
	for _, v := range []model.Value{second, second, genuine, genuine} {
		if id := ax.identify(v); !id.ok || id.client != 1 || id.seq != 9 {
			t.Fatalf("equivocation judged %+v", id)
		}
	}
	if ca.macs != 6 {
		t.Fatalf("equivocating pair ran %d MACs, want 2 (one per change of slot holder)", ca.macs-4)
	}

	// Preverify is a slot store: no MAC on the next sight.
	minted := signedKV(t, signer, 10, "k", "minted")
	ax.Preverify(minted, 1, 10)
	if !ax.VerifyValue(minted) || ca.macs != 6 {
		t.Fatal("preverified envelope was verified again")
	}
}

// TestVerdictRingByteBudget: a provisioned client cannot pin more than
// verdictRingBytes of envelope bytes; past the budget its commands still
// verify, by MAC, and are not remembered.
func TestVerdictRingByteBudget(t *testing.T) {
	ca := &countingAuth{ClientKeyring: auth.NewClientKeyring(testClientSeed, 8)}
	ax := NewAuthContext(ca, 0)
	signer := auth.NewClientSigner(testClientSeed, 1)
	big := strings.Repeat("x", 24<<10)
	n := verdictRingBytes/len(big) + 4
	cmds := make([]model.Value, n)
	for i := range cmds {
		cmds[i] = signedKV(t, signer, uint64(i+1), "k", big)
		if !ax.VerifyValue(cmds[i]) {
			t.Fatalf("command %d rejected", i)
		}
	}
	if got := ax.verdicts[1].bytes; got > verdictRingBytes {
		t.Fatalf("ring pins %d bytes, budget %d", got, verdictRingBytes)
	}
	before := ca.macs
	if !ax.VerifyValue(cmds[0]) || ca.macs != before {
		t.Fatal("a command inside the budget lost its verdict")
	}
	if !ax.VerifyValue(cmds[n-1]) || ca.macs != before+1 {
		t.Fatal("a command past the budget must verify by MAC, uncached")
	}
	// The budget is per client: a second client's ring is unaffected.
	other := signedKV(t, auth.NewClientSigner(testClientSeed, 2), 1, "k", "v")
	ax.VerifyValue(other)
	before = ca.macs
	if !ax.VerifyValue(other) || ca.macs != before {
		t.Fatal("one client's full ring cost another its verdicts")
	}
	// A forged client id never allocates a ring.
	ax.VerifyValue(signedKV(t, auth.NewClientSigner(testClientSeed+1, 7), 1, "k", "v"))
	if _, ok := ax.verdicts[7]; ok {
		t.Fatal("an unverified command allocated a verdict ring")
	}
}

// referenceSurvivors is Commit's queue filter as it stood before the queue
// was indexed by identity, evaluated against the store as it is now (call
// it before Commit): an entry goes iff its identity is among the decided
// ones or already applied.
func referenceSurvivors(ax *AuthContext, store *kv.Store, pending, decided []model.Value) []model.Value {
	decidedIdents := make(map[[2]uint64]struct{})
	for _, cmd := range decided {
		if id := ax.identify(cmd); cmd != NoOp && id.ok {
			decidedIdents[id.key()] = struct{}{}
		}
	}
	var kept []model.Value
	for _, v := range pending {
		id := ax.identify(v)
		if _, dup := decidedIdents[id.key()]; !dup && !store.SeqApplied(id.client, id.seq) {
			kept = append(kept, v)
		}
	}
	return kept
}

func pendingValues(r *Replica) []model.Value {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]model.Value, len(r.pending))
	for i, p := range r.pending {
		out[i] = p.v
	}
	return out
}

// TestCommitKeepsQueueOrder: CommitQueue's claim offsets are positions in
// the pending slice, so Commit must leave exactly the survivors the old
// filter left, in the same order — on queues holding every kind of zombie:
// identities committed under other bytes, seqs below the horizon, and
// entries decided verbatim.
func TestCommitKeepsQueueOrder(t *testing.T) {
	const window = 16
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ax := NewAuthContext(auth.NewClientKeyring(testClientSeed, 8), window)
		signers := []*auth.ClientSigner{auth.NewClientSigner(testClientSeed, 1), auth.NewClientSigner(testClientSeed, 2)}
		store := kv.NewStore()
		store.EnableClientAuth(ax, window)
		r := NewReplica(0, store)
		r.SetCommandAuth(ax)
		// Queued early: one will be decided under other bytes, one falls
		// below the horizon.
		for _, v := range []model.Value{signedKV(t, signers[0], 3, "early", "a"), signedKV(t, signers[1], 1, "early", "b")} {
			if !r.Submit(v) {
				t.Fatal("early submit refused")
			}
		}
		next := []uint64{4, 2}
		for round := 0; round < 30; round++ {
			// Top the queue up, mostly in order, sometimes far ahead.
			for i := rng.Intn(12); i > 0; i-- {
				c := rng.Intn(2)
				seq := next[c]
				next[c]++
				if rng.Intn(8) == 0 {
					seq += uint64(rng.Intn(3 * window))
				}
				r.Submit(signedKV(t, signers[c], seq, "k", fmt.Sprint(round)))
			}
			pending := pendingValues(r)
			// Decide a random subset of the queue — some verbatim, some
			// under other bytes (the equivocation another replica queued) —
			// plus the odd command this replica never saw.
			var decided []model.Value
			for _, v := range pending {
				id := ax.identify(v)
				switch {
				case !id.ok || rng.Intn(3) != 0:
				case rng.Intn(4) == 0:
					decided = append(decided, signedKV(t, signers[id.client-1], id.seq, "k", "other-bytes"))
				default:
					decided = append(decided, v)
				}
			}
			if rng.Intn(3) == 0 {
				c := rng.Intn(2)
				decided = append(decided, signedKV(t, signers[c], next[c]+uint64(rng.Intn(2*window)), "k", "elsewhere"))
			}
			rng.Shuffle(len(decided), func(i, j int) { decided[i], decided[j] = decided[j], decided[i] })
			batch := NoOp
			if len(decided) > 0 {
				var err error
				if batch, err = EncodeBatch(decided); err != nil {
					t.Fatal(err)
				}
			}
			want := referenceSurvivors(ax, store, pending, decided)
			r.Commit(batch)
			if got := pendingValues(r); !slices.Equal(got, want) {
				t.Fatalf("seed %d round %d: %d survivors, reference %d\n got %q\nwant %q", seed, round, len(got), len(want), got, want)
			}
			// The index holds exactly the survivors, each findable.
			r.mu.Lock()
			for i := range r.pending {
				if h := r.holderLocked(r.pending[i].ident); h != &r.pending[i] {
					t.Fatalf("seed %d round %d: survivor %d not found through the index", seed, round, i)
				}
			}
			if len(r.queued) != len(r.pending) {
				t.Fatalf("seed %d round %d: index holds %d identities for %d pending", seed, round, len(r.queued), len(r.pending))
			}
			r.mu.Unlock()
		}
	}
}

// The per-command questions of the write path allocate nothing.
func TestIdentityLookupsAllocateNothing(t *testing.T) {
	ax, signer := testAuthContext(t)
	cmd := signedKV(t, signer, 5, "k", "v")
	if !ax.VerifyValue(cmd) {
		t.Fatal("genuine envelope rejected")
	}
	store := authKVStore(ax)
	store.Apply(signedKV(t, signer, 4, "k", "v"))
	for name, fn := range map[string]func(){
		"identify hit": func() { ax.identify(cmd) },
		"SeqApplied":   func() { store.SeqApplied(1, 5) },
		"Weight":       func() { ax.Weight(cmd) },
	} {
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
}
