package smr

import (
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"genconsensus/internal/adversary"
	"genconsensus/internal/auth"
	"genconsensus/internal/core"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/obs"
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

// TestForgeryCorpus is the table-driven forgery corpus: every way a
// Byzantine proposer can damage an envelope — bad MAC, truncated encoding,
// wrong client id, stripped signature — must be rejected by verification,
// weigh zero with the chooser, and bounce off Submit; the genuine envelope
// must pass all three. A replayed sequence number is genuine bytes: it
// verifies and weighs one, since the weight reads the vote alone, and only
// the member's record of what committed bounces it off Submit.
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
	committed := authKVStore(ax)
	committed.Apply(replayed) // committed once already

	cases := []struct {
		name       string
		cmd        model.Value
		wantVerify bool
		wantWeight int
		wantQueued bool
	}{
		{"genuine", genuine, true, 1, true},
		{"bad MAC", model.Value(badMACCmd), false, 0, false},
		{"truncated envelope", genuine[:len(genuine)-7], false, 0, false},
		{"replayed seq", replayed, true, 1, false},
		{"wrong client id", model.Value(wrongClientCmd), false, 0, false},
		{"stripped signature", model.Value(env.Payload), false, 0, false},
		{"legacy raw command", kv.Command("req-1", "SET", "k", "v"), false, 0, false},
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
			r := NewReplica(0, committed)
			r.SetCommandAuth(ax)
			r.Submit(tc.cmd)
			wantQueued := 0
			if tc.wantQueued {
				wantQueued = 1
			}
			if got := r.PendingLen(); got != wantQueued {
				t.Errorf("Submit queued %d, want %d", got, wantQueued)
			}
			// A batch carrying the corpus entry: fabricated entries poison
			// the whole batch; a replayed entry counts like any genuine one.
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
// alone), a batch every member has committed still weighs its entries, and
// a vector with no authenticated vote selects NoOp, never a forgery.
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

	// At a member that has committed every honest command the batch is a
	// replay, but the weight reads the vote alone: it still beats NoOp, as
	// at a member that has not committed it.
	replayMu := model.Received{
		0: {Kind: model.SelectionRound, Vote: NoOp},
		1: {Kind: model.SelectionRound, Vote: honestBatch},
	}
	v, ok = chooser.Choose(replayMu)
	if !ok || v != honestBatch {
		t.Fatalf("chose %q, want the replayed batch over NoOp", v)
	}

	// With no NoOp vote in the vector at all — every vote zero-weight and
	// a Byzantine value crafted to be the lexicographic minimum — the
	// chooser must synthesize NoOp rather than fall back to the minimum
	// rule and decide a fabricated value.
	minimal := model.Value("\x00forged-minimal")
	noNoOpMu := model.Received{
		0: {Kind: model.SelectionRound, Vote: forgedBatch},
		1: {Kind: model.SelectionRound, Vote: minimal},
	}
	v, ok = chooser.Choose(noNoOpMu)
	if !ok || v != NoOp {
		t.Fatalf("chose %q, want synthesized NoOp (never an unverified minimum)", v)
	}
}

// What the pure weight gives up: a ReplayCommands vote re-proposing a
// committed history outweighs two different honest batches, so the chooser
// selects it. Deciding it costs that instance and nothing more: the commit
// changes no state and moves no smr.commits, and the honest commands stay
// queued and commit in the next instance.
func TestReplayedBatchCostsOneInstance(t *testing.T) {
	ax, signer := testAuthContext(t)
	r := authReplica(0, ax)
	reg := obs.NewRegistry()
	r.SetMetrics(MetricsFor(reg, ""))
	store := r.SM.(*kv.Store)
	cmd := func(seq uint64) model.Value {
		return signedKV(t, signer, seq, fmt.Sprintf("k%d", seq), fmt.Sprint(seq))
	}

	history := []model.Value{cmd(1), cmd(2), cmd(3), cmd(4)}
	r.Commit(mustBatch(t, history...))
	honest := []model.Value{cmd(5), cmd(6), cmd(7)}
	for _, c := range honest {
		if !r.Submit(c) {
			t.Fatalf("honest command %.20q refused", c)
		}
	}

	// The adversary's vote: its first batch replaying the whole history.
	ctx := &adversary.Ctx{Self: 3, N: 4, Rng: rand.New(rand.NewSource(1)), Sched: core.Params{Flag: model.FlagPhase}.Schedule()}
	replay := ReplayCommands(history)
	var replayed model.Value
	for round := model.Round(1); replayed == model.NoValue && round <= 64; round++ {
		if v := replay.Messages(ctx, round)[0].Vote; len(Commands(v)) == len(history) {
			replayed = v
		}
	}
	if replayed == model.NoValue {
		t.Fatal("ReplayCommands never replayed the whole history")
	}
	mu := model.Received{
		0: {Kind: model.SelectionRound, Vote: mustBatch(t, honest[0], honest[1])},
		1: {Kind: model.SelectionRound, Vote: mustBatch(t, honest[2])},
		2: {Kind: model.SelectionRound, Vote: mustBatch(t, honest[0], honest[1])},
		3: {Kind: model.SelectionRound, Vote: replayed},
	}
	chosen, ok := CommandChooser{Auth: ax}.Choose(mu)
	if !ok || chosen != replayed {
		t.Fatalf("chose %.20q, want the heavier replayed batch", chosen)
	}

	state, commits := store.Snapshot(), reg.Counter("smr.commits").Load()
	dups := reg.Counter("smr.duplicates").Load()
	r.Commit(chosen)
	if !maps.Equal(store.Snapshot(), state) {
		t.Error("committing the replayed batch changed the store")
	}
	if got := reg.Counter("smr.commits").Load(); got != commits {
		t.Errorf("smr.commits moved %d -> %d on a replay", commits, got)
	}
	if got := reg.Counter("smr.duplicates").Load(); got != dups+uint64(len(history)) {
		t.Errorf("smr.duplicates moved %d -> %d on a replay of %d commands", dups, got, len(history))
	}
	dups = reg.Counter("smr.duplicates").Load()
	if got := r.PendingLen(); got != len(honest) {
		t.Fatalf("%d commands pending after the replay, want the %d honest ones", got, len(honest))
	}

	// The next instance commits the honest commands.
	r.Commit(r.Proposal())
	if got := reg.Counter("smr.commits").Load(); got != commits+uint64(len(honest)) {
		t.Errorf("smr.commits = %d after the next instance, want %d", got, commits+uint64(len(honest)))
	}
	if got := reg.Counter("smr.duplicates").Load(); got != dups {
		t.Errorf("smr.duplicates moved %d -> %d on an honest instance", dups, got)
	}
	for _, seq := range []uint64{5, 6, 7} {
		if v, ok := store.Get(fmt.Sprintf("k%d", seq)); !ok || v != fmt.Sprint(seq) {
			t.Errorf("k%d = %q, %v after the next instance", seq, v, ok)
		}
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
	cluster := newAuthCluster(t, class3Params(6, 4, 1), 321, ClusterConfig{})
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

// TestInjectionStrategiesWeighZero: every forging strategy's output is
// worthless under the authenticated weight rule, while ReplayCommands'
// batches verify (the MACs are genuine) and weigh their entries, committed
// or not: the weight reads the vote alone.
func TestInjectionStrategiesWeighZero(t *testing.T) {
	ax, signer := testAuthContext(t)
	committed := make([]model.Value, 0, 5)
	for seq := uint64(1); seq <= 5; seq++ {
		committed = append(committed, signedKV(t, signer, seq, fmt.Sprintf("k%d", seq), "v"))
	}
	sched := core.Params{Flag: model.FlagPhase}.Schedule()
	ctx := &adversary.Ctx{Self: 5, N: 6, Rng: rand.New(rand.NewSource(4)), Sched: sched}
	strategies := []struct {
		s       adversary.Strategy
		genuine bool // every value it votes is signed by a real client
	}{
		{FabricateCommands(500), false},
		{ReplayCommands(committed), true},
		{StripSignatures(committed), false},
	}
	for _, tc := range strategies {
		for r := model.Round(1); r <= 12; r++ {
			for _, msg := range tc.s.Messages(ctx, r) {
				want := 0
				if tc.genuine {
					want = len(Commands(msg.Vote))
				}
				if w := ax.Weight(msg.Vote); w != want {
					t.Errorf("%s round %d: vote weighs %d, want %d", tc.s.Name(), r, w, want)
				}
				break // one destination suffices: Fabricate broadcasts one value
			}
		}
	}
}
