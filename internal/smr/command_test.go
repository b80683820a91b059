package smr

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"genconsensus/internal/adversary"
	"genconsensus/internal/auth"
	"genconsensus/internal/core"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/wire"
)

const testClientSeed = 77

// testKeyring provisions clients 0..7; testSigner is client c's end of it.
func testKeyring() *auth.ClientKeyring       { return auth.NewClientKeyring(testClientSeed, 8) }
func testSigner(c uint32) *auth.ClientSigner { return auth.NewClientSigner(testClientSeed, c) }

func testAuthContext(t *testing.T) (*AuthContext, *auth.ClientSigner) {
	t.Helper()
	return NewAuthContext(testKeyring(), 16), testSigner(1)
}

// signedKV is the package's signing helper: signer's SET key=value as its
// command seq.
func signedKV(t testing.TB, signer *auth.ClientSigner, seq uint64, key, value string) model.Value {
	t.Helper()
	cmd, err := kv.SignedCommand(signer, seq, "SET", key, value)
	if err != nil {
		t.Fatal(err)
	}
	return cmd
}

// TestForgeryCorpus is the table-driven forgery corpus of the issue: every
// way a Byzantine proposer can damage an envelope — bad MAC, truncated
// encoding, replayed sequence number, wrong client id, stripped signature —
// must be rejected by verification, weigh zero with the chooser, and bounce
// off Submit; the genuine envelope must pass all three.
func TestForgeryCorpus(t *testing.T) {
	ax, signer := testAuthContext(t)
	genuine := signedKV(t, signer, 5, "color", "green")
	env, err := wire.DecodeCommand(string(genuine))
	if err != nil {
		t.Fatal(err)
	}

	badMAC := env
	badMAC.MAC = append([]byte(nil), env.MAC...)
	badMAC.MAC[0] ^= 0x40
	badMACCmd, err := wire.EncodeCommand(badMAC)
	if err != nil {
		t.Fatal(err)
	}

	// Same fields signed by the wrong client's key: claiming client 2's id
	// with client 1's MAC (or vice versa) must not verify.
	wrongClient := env
	wrongClient.Client = 2
	wrongClientCmd, err := wire.EncodeCommand(wrongClient)
	if err != nil {
		t.Fatal(err)
	}

	replayed := signedKV(t, signer, 3, "shape", "circle")
	ax.RecordCommitted(replayed) // committed once already

	cases := []struct {
		name       string
		cmd        model.Value
		wantVerify bool
		wantWeight int
	}{
		{"genuine", genuine, true, 1},
		{"bad MAC", model.Value(badMACCmd), false, 0},
		{"truncated envelope", genuine[:len(genuine)-7], false, 0},
		{"replayed seq", replayed, true, 0},
		{"wrong client id", model.Value(wrongClientCmd), false, 0},
		{"stripped signature", model.Value(env.Payload), false, 0},
		{"legacy raw command", kv.Command("req-1", "SET", "k", "v"), false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ax.VerifyValue(tc.cmd); got != tc.wantVerify {
				t.Errorf("VerifyValue = %v, want %v", got, tc.wantVerify)
			}
			if got := ax.Weight(tc.cmd); got != tc.wantWeight {
				t.Errorf("Weight = %d, want %d", got, tc.wantWeight)
			}
			// Ingress: a replica queues only the genuine, fresh command.
			r := authReplica(0, ax)
			r.Submit(tc.cmd)
			wantQueued := 0
			if tc.wantWeight > 0 {
				wantQueued = 1
			}
			if got := r.PendingLen(); got != wantQueued {
				t.Errorf("Submit queued %d, want %d", got, wantQueued)
			}
			// A batch carrying the corpus entry: fabricated entries poison
			// the whole batch; a replayed entry merely doesn't count.
			filler := signedKV(t, signer, 100, "filler", "x")
			batch, err := EncodeBatch([]model.Value{filler, tc.cmd})
			if err != nil {
				t.Fatal(err)
			}
			wantBatch := 1 + tc.wantWeight
			if !tc.wantVerify {
				wantBatch = 0
			}
			if got := ax.Weight(batch); got != wantBatch {
				t.Errorf("batch Weight = %d, want %d", got, wantBatch)
			}
		})
	}
}

// TestAuthChooserExcludesForged: a Byzantine vote carrying a big
// fabricated batch loses to a small honest one (it would win on structure
// alone), and an all-replayed batch cannot outweigh NoOp-free honest work.
func TestAuthChooserExcludesForged(t *testing.T) {
	ax, signer := testAuthContext(t)
	honest := signedKV(t, signer, 1, "a", "1")
	honestBatch, err := EncodeBatch([]model.Value{honest})
	if err != nil {
		t.Fatal(err)
	}

	forged := make([]model.Value, 0, 8)
	for i := 0; i < 8; i++ {
		mac := make([]byte, wire.CommandMACSize)
		enc, err := wire.EncodeCommand(wire.CommandEnvelope{
			Client: 3, Seq: uint64(100 + i),
			Payload: fmt.Sprintf("f-%d|SET|fk-%d|fv", i, i),
			MAC:     mac,
		})
		if err != nil {
			t.Fatal(err)
		}
		forged = append(forged, model.Value(enc))
	}
	forgedBatch, err := EncodeBatch(forged)
	if err != nil {
		t.Fatal(err)
	}

	chooser := CommandChooser{Auth: ax}
	mu := model.Received{
		0: {Kind: model.SelectionRound, Vote: honestBatch},
		1: {Kind: model.SelectionRound, Vote: forgedBatch},
		2: {Kind: model.SelectionRound, Vote: NoOp},
	}
	v, ok := chooser.Choose(mu)
	if !ok || v != honestBatch {
		t.Fatalf("chose %q, want the honest batch", v)
	}

	// Once every honest command is committed, a replayed batch weighs zero
	// and the chooser falls back to an explicit NoOp.
	ax.RecordCommitted(honest)
	replayMu := model.Received{
		0: {Kind: model.SelectionRound, Vote: NoOp},
		1: {Kind: model.SelectionRound, Vote: honestBatch}, // now a pure replay
	}
	v, ok = chooser.Choose(replayMu)
	if !ok || v != NoOp {
		t.Fatalf("chose %q, want NoOp over a replayed batch", v)
	}

	// With no NoOp vote in the vector at all — every vote zero-weight and
	// a Byzantine value crafted to be the lexicographic minimum — the
	// chooser must synthesize NoOp rather than fall back to the minimum
	// rule and decide a fabricated value.
	minimal := model.Value("\x00forged-minimal")
	noNoOpMu := model.Received{
		0: {Kind: model.SelectionRound, Vote: honestBatch}, // pure replay, weight 0
		1: {Kind: model.SelectionRound, Vote: minimal},
	}
	v, ok = chooser.Choose(noNoOpMu)
	if !ok || v != NoOp {
		t.Fatalf("chose %q, want synthesized NoOp (never an unverified minimum)", v)
	}
}

// TestClientWindowEviction: the per-client window tracks exactly the
// horizon's worth of sequence numbers, treats everything below it as
// committed, and handles out-of-order records inside it.
func TestClientWindowEviction(t *testing.T) {
	w := NewClientWindow(8)
	for seq := uint64(1); seq <= 100; seq++ {
		w.Record(7, seq)
	}
	if n := w.TrackedSeqs(7); n > 8+1 {
		t.Fatalf("window tracks %d seqs, want <= 9", n)
	}
	if !w.Seen(7, 100) || !w.Seen(7, 93) {
		t.Error("in-window committed seqs must report seen")
	}
	if !w.Seen(7, 1) || !w.Seen(7, 50) {
		t.Error("below-horizon seqs must be assumed committed")
	}
	if w.Seen(7, 101) {
		t.Error("future seq reported seen")
	}
	if w.Seen(8, 5) {
		t.Error("foreign client reported seen")
	}
	// Out-of-order inside the window.
	w2 := NewClientWindow(8)
	w2.Record(1, 10)
	if w2.Seen(1, 7) {
		t.Error("unrecorded in-window seq reported seen")
	}
	w2.Record(1, 7)
	if !w2.Seen(1, 7) || !w2.Seen(1, 10) {
		t.Error("out-of-order records lost")
	}
}

// TestEquivocatingClient: a provisioned but hostile client signs the same
// sequence number over two different payloads. Both MACs verify, but the
// identity (client, seq) must be admitted at most once: ingress queues only
// the first arrival, a Byzantine batch carrying both weighs zero, and a
// replica left holding the losing payload evicts it at commit instead of
// re-proposing a zero-weight zombie forever.
func TestEquivocatingClient(t *testing.T) {
	ax, signer := testAuthContext(t)
	p1 := signedKV(t, signer, 9, "eq-key", "first")
	p2 := signedKV(t, signer, 9, "eq-key", "second")
	if p1 == p2 {
		t.Fatal("test needs distinct payload bytes for one seq")
	}

	// Ingress: one identity, one slot — and the drop is reported, not
	// silent (re-submitting the identical bytes stays idempotent).
	r := authReplica(0, ax)
	if !r.Submit(p1) {
		t.Fatal("first payload refused")
	}
	if r.Submit(p2) {
		t.Fatal("conflicting payload for a claimed identity reported as admitted")
	}
	if !r.Submit(p1) {
		t.Fatal("idempotent re-submit of the queued payload reported as dropped")
	}
	if got := r.PendingLen(); got != 1 {
		t.Fatalf("queued %d commands for one identity, want 1", got)
	}

	// A batch carrying both equivocations is Byzantine by construction and
	// weighs zero.
	both, err := EncodeBatch([]model.Value{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	if w := ax.Weight(both); w != 0 {
		t.Fatalf("equivocating batch weighs %d, want 0", w)
	}

	// Zombie eviction: a replica holding p2 sees p1 decided elsewhere; the
	// commit must clear p2 from its queue (it can never carry weight again).
	other := authReplica(1, ax)
	other.Submit(p2)
	decided, err := EncodeBatch([]model.Value{p1})
	if err != nil {
		t.Fatal(err)
	}
	other.Commit(decided)
	if got := other.PendingLen(); got != 0 {
		t.Fatalf("losing equivocation still queued (%d pending), want eviction", got)
	}
	// And the identity slot is free again only for committed-replay-safe
	// reuse: a fresh submit of p2 is refused as replayed.
	other.Submit(p2)
	if got := other.PendingLen(); got != 0 {
		t.Fatalf("replayed equivocation re-queued (%d pending)", got)
	}
}

// TestAuthClusterFabrication is the sim half of the acceptance criterion: a
// class-3 cluster under a fabricating Byzantine proposer decides only
// authenticated commands — the forged keys never reach any store, and
// CheckProvenance passes over every honest log.
func TestAuthClusterFabrication(t *testing.T) {
	cluster := newAuthCluster(t, class3Params(6, 4, 1), 321)
	if err := cluster.SetByzantine(5, FabricateCommands(1000)); err != nil {
		t.Fatal(err)
	}

	signer := testSigner(2)
	for seq := uint64(1); seq <= 20; seq++ {
		cluster.Submit(0, signedKV(t, signer, seq, fmt.Sprintf("ak-%d", seq), fmt.Sprintf("av-%d", seq)))
	}
	if err := cluster.Drain(60); err != nil {
		t.Fatal(err)
	}
	if err := cluster.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := cluster.CheckProvenance(); err != nil {
		t.Fatal(err)
	}
	store := cluster.Replica(0).SM.(*kv.Store)
	for seq := 1; seq <= 20; seq++ {
		if v, ok := store.Get(fmt.Sprintf("ak-%d", seq)); !ok || v != fmt.Sprintf("av-%d", seq) {
			t.Fatalf("ak-%d = %q (%v)", seq, v, ok)
		}
	}
	// Nothing forged ever applied.
	snapshot := store.Snapshot()
	for k := range snapshot {
		if strings.HasPrefix(k, "forged-") {
			t.Fatalf("fabricated key %q reached the store", k)
		}
	}
}

// TestInjectionStrategiesWeighZero: every injection strategy's output is
// worthless under the authenticated weight rule, while ReplayCommands'
// batches verify (the MACs are genuine) but carry no fresh weight.
func TestInjectionStrategiesWeighZero(t *testing.T) {
	ax, signer := testAuthContext(t)
	committed := make([]model.Value, 0, 5)
	for seq := uint64(1); seq <= 5; seq++ {
		cmd := signedKV(t, signer, seq, fmt.Sprintf("k%d", seq), "v")
		ax.RecordCommitted(cmd)
		committed = append(committed, cmd)
	}
	sched := core.Params{Flag: model.FlagPhase}.Schedule()
	ctx := &adversary.Ctx{Self: 5, N: 6, Rng: rand.New(rand.NewSource(4)), Sched: sched}
	strategies := []adversary.Strategy{
		FabricateCommands(500),
		ReplayCommands(committed),
		StripSignatures(committed),
	}
	for _, s := range strategies {
		for r := model.Round(1); r <= 12; r++ {
			for _, msg := range s.Messages(ctx, r) {
				if w := ax.Weight(msg.Vote); w != 0 {
					t.Errorf("%s round %d: vote weighs %d, want 0", s.Name(), r, w)
				}
				break // one destination suffices: Fabricate broadcasts one value
			}
		}
	}
}
