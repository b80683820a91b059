package smr

import (
	"fmt"
	"testing"

	"genconsensus/internal/model"
)

func mustBatch(t *testing.T, cmds ...model.Value) model.Value {
	t.Helper()
	b, err := EncodeBatch(cmds)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCommandChooser(t *testing.T) {
	ax, signer := testAuthContext(t)
	c := CommandChooser{Auth: ax}
	if c.Name() != "choose/smr-batch" {
		t.Errorf("Name = %q", c.Name())
	}
	cmd := func(seq uint64) model.Value { return signedKV(t, signer, seq, "k", "v") }
	// The smaller of two signed commands, and of two 2-command batches.
	small, big := min(cmd(1), cmd(2)), max(cmd(1), cmd(2))
	b1, b2 := mustBatch(t, cmd(3), cmd(4)), mustBatch(t, cmd(5), cmd(6))
	batchLo, batchHi := min(b1, b2), max(b1, b2)
	tests := []struct {
		name   string
		mu     model.Received
		want   model.Value
		wantOK bool
	}{
		{
			name: "prefers command over noop",
			mu: model.Received{
				0: {Vote: NoOp}, 1: {Vote: NoOp}, 2: {Vote: big},
			},
			want: big, wantOK: true,
		},
		{
			name: "smallest command wins",
			mu: model.Received{
				0: {Vote: big}, 1: {Vote: small}, 2: {Vote: NoOp},
			},
			want: small, wantOK: true,
		},
		{
			name: "all noop falls back to noop",
			mu: model.Received{
				0: {Vote: NoOp}, 1: {Vote: NoOp},
			},
			want: NoOp, wantOK: true,
		},
		{
			name: "empty vector falls back to noop",
			mu:   model.Received{},
			want: NoOp, wantOK: true,
		},
		{
			name: "null votes ignored",
			mu: model.Received{
				0: {Vote: model.NoValue}, 1: {Vote: big},
			},
			want: big, wantOK: true,
		},
		{
			name: "largest valid batch beats smaller batch and plain command",
			mu: model.Received{
				0: {Vote: mustBatch(t, cmd(7), cmd(8), cmd(9))},
				1: {Vote: mustBatch(t, cmd(7))},
				2: {Vote: small},
				3: {Vote: NoOp},
			},
			want: mustBatch(t, cmd(7), cmd(8), cmd(9)), wantOK: true,
		},
		{
			name: "equal-weight batches tie-break on smallest encoding",
			mu: model.Received{
				0: {Vote: batchHi},
				1: {Vote: batchLo},
			},
			want: batchLo, wantOK: true,
		},
		{
			name: "malformed batch is rejected in favour of a real command",
			mu: model.Received{
				0: {Vote: model.Value(batchMagic + "9999;3:abc")},
				1: {Vote: big},
			},
			want: big, wantOK: true,
		},
		{
			name: "unsigned values weigh nothing",
			mu: model.Received{
				0: {Vote: "junk-1"},
				1: {Vote: mustBatch(t, "cmd-a", "cmd-b")},
			},
			want: NoOp, wantOK: true,
		},
		{
			name: "only junk batches and noops falls back to noop",
			mu: model.Received{
				0: {Vote: model.Value(batchMagic + "junk")},
				1: {Vote: NoOp},
			},
			want: NoOp, wantOK: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := c.Choose(tt.mu)
			if ok != tt.wantOK || (ok && got != tt.want) {
				t.Fatalf("Choose = (%q, %v), want (%q, %v)", got, ok, tt.want, tt.wantOK)
			}
		})
	}
}

// Line 11 is a function of the received vector: members whose stores sit
// at four different commit points, given one selection vector, select one
// value, the heavier batch, even where it has already committed. A chooser
// that weighed each vote against its member's store would rank that batch
// at zero at the two members holding it and pick the lighter one there,
// splitting the round 2-2.
func TestSameVectorSameChoice(t *testing.T) {
	ax, signer := testAuthContext(t)
	cmd := func(seq uint64) model.Value { return signedKV(t, signer, seq, fmt.Sprintf("k%d", seq), "v") }
	heavy := mustBatch(t, cmd(1), cmd(2), cmd(3))
	light := mustBatch(t, cmd(4), cmd(5))
	earlier := mustBatch(t, cmd(9))
	digests := NewDigestTable()
	mu := model.Received{
		0: {Kind: model.SelectionRound, Vote: digests.Put(heavy)},
		1: {Kind: model.SelectionRound, Vote: digests.Put(light)},
		2: {Kind: model.SelectionRound, Vote: NoOp},
		3: {Kind: model.SelectionRound, Vote: digests.Put(heavy)},
	}
	commits := [][]model.Value{nil, {earlier}, {heavy}, {earlier, heavy}}
	want := DigestVote(DigestOf(heavy))
	for p, decided := range commits {
		r := authReplica(model.PID(p), ax)
		for _, v := range decided {
			r.Commit(v)
		}
		chooser := CommandChooser{Auth: ax, Resolve: digests}
		if v, ok := chooser.Choose(mu); !ok || v != want {
			t.Errorf("member %d (committed %d batches) chose %.12q, want the heavy batch's digest", p, len(decided), v)
		}
	}
}

// CheckConsistency detects both divergence shapes: different lengths and
// different entries.
func TestCheckConsistencyDetectsDivergence(t *testing.T) {
	c := newKVClusterForDivergence(t)
	c.Submit(0, signedKV(t, testSigner(1), 1, "k", "v"))
	if _, err := c.RunInstance(); err != nil {
		t.Fatal(err)
	}
	// Corrupt replica 2's log length.
	c.Replica(2).Log.Append("extra")
	if err := c.CheckConsistency(); err == nil {
		t.Fatal("length divergence not detected")
	}
	// Repair lengths but corrupt an entry on replica 1.
	c.Replica(0).Log.Append("extra")
	c.Replica(1).Log.Append("DIFFERENT")
	c.Replica(3).Log.Append("extra")
	if err := c.CheckConsistency(); err == nil {
		t.Fatal("entry divergence not detected")
	}
}

func newKVClusterForDivergence(t *testing.T) *Cluster {
	t.Helper()
	return newKVCluster(t, ClusterConfig{})
}

// Drain with no pending work is a no-op success.
func TestDrainIdle(t *testing.T) {
	c := newKVCluster(t, ClusterConfig{})
	if err := c.Drain(5); err != nil {
		t.Fatalf("idle Drain: %v", err)
	}
	if c.Replica(0).Log.Len() != 0 {
		t.Error("idle Drain ran instances")
	}
}

// RunInstance propagates engine construction failures (e.g. a params
// mutation making the config invalid).
func TestRunInstanceBadParams(t *testing.T) {
	c := newKVCluster(t, ClusterConfig{})
	c.params.FLV = nil
	if _, err := c.RunInstance(); err == nil {
		t.Fatal("invalid params accepted")
	}
}
