package smr

import (
	"fmt"
	"testing"

	"genconsensus/internal/kv"
	"genconsensus/internal/model"
)

func TestDigestVoteCodec(t *testing.T) {
	batch, err := EncodeBatch([]model.Value{"SET a 1", "SET b 2"})
	if err != nil {
		t.Fatal(err)
	}
	sum := DigestOf(batch)
	vote := DigestVote(sum)
	if !IsDigestVote(vote) {
		t.Fatal("IsDigestVote = false")
	}
	if IsBatch(vote) || IsDigestVote(batch) {
		t.Fatal("value kinds are ambiguous")
	}
	got, ok := DigestKey(vote)
	if !ok || got != sum {
		t.Fatal("DigestKey round trip failed")
	}
	// Strictness: magic-prefixed junk of the wrong length is not a vote.
	if _, ok := DigestKey(vote + "x"); ok {
		t.Fatal("oversized digest vote accepted")
	}
	if _, ok := DigestKey(vote[:len(vote)-1]); ok {
		t.Fatal("truncated digest vote accepted")
	}
	if Admissible(vote) {
		t.Fatal("digest vote admissible as a client command")
	}
}

func TestChooserResolveBeforeWeigh(t *testing.T) {
	ax, signer := testAuthContext(t)
	table := NewDigestTable()
	big := mustBatch(t, signedKV(t, signer, 1, "a", "1"), signedKV(t, signer, 2, "b", "2"), signedKV(t, signer, 3, "c", "3"))
	small := mustBatch(t, signedKV(t, signer, 4, "d", "4"))
	resolvable := table.Put(big)
	hostile := DigestVote(DigestOf("never published"))

	chooser := CommandChooser{Auth: ax, Resolve: table}
	// A resolvable digest weighs its payload: the 3-command batch behind
	// the digest beats the 1-command batch voted in the clear.
	mu := model.Received{
		0: {Vote: resolvable},
		1: {Vote: small},
	}
	if v, ok := chooser.Choose(mu); !ok || v != resolvable {
		t.Fatalf("Choose = %q, want the resolvable digest vote", v)
	}
	// An unresolvable digest weighs zero: it loses to any real command.
	mu = model.Received{
		0: {Vote: hostile},
		1: {Vote: small},
	}
	if v, ok := chooser.Choose(mu); !ok || v != small {
		t.Fatalf("Choose = %q, want the small batch", v)
	}
	// Without a resolver every digest weighs zero.
	bare := CommandChooser{Auth: ax}
	if v, _ := bare.Choose(model.Received{0: {Vote: resolvable}, 1: {Vote: NoOp}}); v != NoOp {
		t.Fatalf("resolver-less chooser picked %q, want NoOp", v)
	}
	// A payload that is itself a digest vote never weighs (no recursion).
	nested := table.Put(model.Value(hostile))
	if v, _ := chooser.Choose(model.Received{0: {Vote: nested}, 1: {Vote: NoOp}}); v != NoOp {
		t.Fatalf("nested digest weighed: chose %q", v)
	}
}

// TestClusterDigestVotes runs a sim cluster in digest mode: decisions
// travel as digests, logs only ever store resolved batches, and the state
// converges to the submitted writes.
func TestClusterDigestVotes(t *testing.T) {
	cluster := newAuthCluster(t, class3Params(6, 4, 1), 42, ClusterConfig{MaxBatch: 8})
	table := cluster.Digests()
	for i := 0; i < 40; i++ {
		cluster.Submit(0, signedKV(t, testSigner(1), uint64(i+1), fmt.Sprintf("dg-%d", i), "v"))
	}
	if err := cluster.Drain(60); err != nil {
		t.Fatal(err)
	}
	if err := cluster.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if table.Len() == 0 {
		t.Fatal("no payloads published: digest mode did not engage")
	}
	if got := cluster.Replica(0).SM.(*kv.Store).Len(); got != 40 {
		t.Fatalf("store holds %d keys, want the 40 submitted", got)
	}
	for _, entry := range cluster.Replica(0).Log.Entries() {
		if IsDigestVote(entry) {
			t.Fatalf("unresolved digest reached the log: %q", entry)
		}
	}
}

// TestClusterHostileDigests keeps a Byzantine member voting unresolvable
// digests: no junk may commit and the pipeline must keep deciding.
func TestClusterHostileDigests(t *testing.T) {
	cluster := newAuthCluster(t, class3Params(6, 4, 1), 7, ClusterConfig{MaxBatch: 4})
	if err := cluster.SetByzantine(5, HostileDigests()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		cluster.Submit(0, signedKV(t, testSigner(1), uint64(i+1), fmt.Sprintf("hd-%d", i), "v"))
	}
	if err := cluster.Drain(80); err != nil {
		t.Fatal(err)
	}
	if err := cluster.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for _, entry := range cluster.Replica(0).Log.Entries() {
		if IsDigestVote(entry) {
			t.Fatalf("hostile digest committed: %q", entry)
		}
	}
}
