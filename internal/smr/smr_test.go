package smr

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"genconsensus/internal/adversary"
	"genconsensus/internal/core"
	"genconsensus/internal/flv"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/selector"
)

func pbftParams(n, b int) core.Params {
	return core.Params{
		N: n, B: b, F: 0, TD: 2*b + 1,
		Flag:       model.FlagPhase,
		FLV:        flv.NewPBFT(n, b),
		Selector:   selector.NewAll(n),
		UseHistory: true,
	}
}

func newKVCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	return newAuthCluster(t, pbftParams(4, 1), 7, cfg)
}

// newAuthCluster builds a cluster over params and cfg whose members run kv
// stores, all verifying under one context over the test keyring.
func newAuthCluster(t *testing.T, params core.Params, seed int64, cfg ClusterConfig) *Cluster {
	t.Helper()
	ax := NewAuthContext(testKeyring(), 0)
	c, err := NewCluster(params, ax, func(model.PID) StateMachine { return authKVStore(ax) }, seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// authKVStore is a kv store verifying under ax.
func authKVStore(ax *AuthContext) *kv.Store {
	s := kv.NewStore()
	s.EnableClientAuth(ax, 0)
	return s
}

// authReplica is replica id over an authenticated kv store, both verifying
// under ax.
func authReplica(id model.PID, ax *AuthContext) *Replica {
	r := NewReplica(id, authKVStore(ax))
	r.SetCommandAuth(ax)
	return r
}

// checkQueues asserts that the claim bookkeeping is clean between drains:
// every live member's commit queue sits at one watermark, the next
// instance the cluster starts, and holds no claim (Unclaimed ==
// PendingLen).
func checkQueues(t *testing.T, c *Cluster) {
	t.Helper()
	live := c.liveSet()
	var next uint64
	for p, q := range c.queues {
		if !live[model.PID(p)] {
			continue
		}
		if next == 0 {
			next = q.NextCommit()
		} else if got := q.NextCommit(); got != next {
			t.Fatalf("member %d at NextCommit %d, other live members at %d", p, got, next)
		}
		if u, n := q.Unclaimed(), c.replicas[p].PendingLen(); u != n {
			t.Fatalf("member %d leaks claims: %d of %d pending commands unclaimed", p, u, n)
		}
	}
	if c.instance != next-1 {
		t.Fatalf("cluster instance counter %d, live queues commit next %d", c.instance, next)
	}
}

func TestLogBasics(t *testing.T) {
	var l Log
	if l.Len() != 0 {
		t.Error("fresh log not empty")
	}
	l.Append("a")
	l.Append("b")
	if l.Len() != 2 {
		t.Errorf("Len = %d", l.Len())
	}
	if v, ok := l.Get(1); !ok || v != "b" {
		t.Errorf("Get(1) = %q, %v", v, ok)
	}
	if _, ok := l.Get(5); ok {
		t.Error("Get out of range reported ok")
	}
	if _, ok := l.Get(-1); ok {
		t.Error("Get(-1) reported ok")
	}
	snap := l.Entries()
	snap[0] = "mutated"
	if v, _ := l.Get(0); v != "a" {
		t.Error("Entries aliases the log")
	}
}

func TestReplicaQueue(t *testing.T) {
	ax, signer := testAuthContext(t)
	r := authReplica(0, ax)
	if r.Proposal() != NoOp {
		t.Error("empty queue must propose NoOp")
	}
	cmd := signedKV(t, signer, 1, "k", "v")
	r.Submit(cmd)
	if cmds := Commands(r.Proposal()); len(cmds) != 1 || cmds[0] != cmd {
		t.Errorf("queued command must be proposed, got %v", cmds)
	}
	// Deciding another replica's command must not pop our queue.
	other := signedKV(t, signer, 2, "x", "y")
	r.Commit(other)
	if r.PendingLen() != 1 {
		t.Errorf("pending = %d, want 1", r.PendingLen())
	}
	// Deciding our head pops it.
	resp := r.Commit(cmd)
	if len(resp) != 1 || resp[0] != "OK" {
		t.Errorf("Apply responses = %v", resp)
	}
	if r.PendingLen() != 0 {
		t.Errorf("pending = %d, want 0", r.PendingLen())
	}
	if r.Log.Len() != 2 {
		t.Errorf("log length = %d, want 2", r.Log.Len())
	}
	// NoOp commits append but do not touch the state machine.
	if resp := r.Commit(NoOp); len(resp) != 1 || resp[0] != "" {
		t.Errorf("NoOp responses = %v", resp)
	}
}

// Proposal batches the whole queue (up to the bound) and Commit applies a
// decided batch command-by-command, in order.
func TestReplicaBatchedProposal(t *testing.T) {
	ax, signer := testAuthContext(t)
	r := authReplica(0, ax)
	var cmds []model.Value
	for i := 0; i < 5; i++ {
		c := signedKV(t, signer, uint64(i+1), "k", fmt.Sprintf("v%d", i))
		cmds = append(cmds, c)
		r.Submit(c)
	}
	got, err := DecodeBatch(r.Proposal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("batch carries %d commands, want 5", len(got))
	}
	for i := range cmds {
		if got[i] != cmds[i] {
			t.Fatalf("batch[%d] = %q, want %q (queue order must be preserved)", i, got[i], cmds[i])
		}
	}
	// A batch bound of 2 proposes only the head of the queue.
	r.SetMaxBatch(2)
	if got, err = DecodeBatch(r.Proposal()); err != nil || len(got) != 2 {
		t.Fatalf("bounded batch = %v (err %v), want the first 2 commands", got, err)
	}
	// Committing the full batch drains the queue and applies in order.
	batch, err := EncodeBatch(cmds)
	if err != nil {
		t.Fatal(err)
	}
	resps := r.Commit(batch)
	if len(resps) != 5 {
		t.Fatalf("%d responses, want 5", len(resps))
	}
	if r.PendingLen() != 0 {
		t.Errorf("pending = %d after batch commit", r.PendingLen())
	}
	if r.Log.Len() != 5 {
		t.Errorf("log length = %d, want 5 individual entries", r.Log.Len())
	}
	if v, _ := r.SM.(*kv.Store).Get("k"); v != "v4" {
		t.Errorf("k = %q, want the last command's value", v)
	}
}

// Submitting an already-queued command is a no-op: honest batches never
// contain duplicates.
func TestReplicaSubmitDeduplicates(t *testing.T) {
	ax, signer := testAuthContext(t)
	r := authReplica(0, ax)
	cmd := signedKV(t, signer, 1, "k", "v")
	r.Submit(cmd)
	r.Submit(cmd)
	if r.PendingLen() != 1 {
		t.Fatalf("pending = %d, want 1", r.PendingLen())
	}
	// Once decided, the (client, seq) is in the replay window: a client
	// retry after commit bounces off the door instead of queueing again.
	r.Commit(cmd)
	if r.Submit(cmd) || r.PendingLen() != 0 {
		t.Fatalf("retry after commit admitted (pending %d)", r.PendingLen())
	}
}

// Inadmissible client commands are dropped at Submit: a value that parses
// as a batch (or NoOp, or an oversized blob) must never reach the queue,
// where it would wedge the proposal path forever.
func TestReplicaSubmitRejectsInadmissible(t *testing.T) {
	ax, signer := testAuthContext(t)
	r := authReplica(0, ax)
	poisoned, err := EncodeBatch([]model.Value{"inner"})
	if err != nil {
		t.Fatal(err)
	}
	for name, cmd := range map[string]model.Value{
		"batch-prefixed": poisoned,
		"forged magic":   model.Value(batchMagic + "junk"),
		"noop":           NoOp,
		"empty":          model.NoValue,
		"oversized":      model.Value(strings.Repeat("x", MaxBatchBytes)),
	} {
		r.Submit(cmd)
		if r.PendingLen() != 0 {
			t.Fatalf("%s: command admitted to the queue", name)
		}
	}
	// The cluster path stays live even when a client injects poison before
	// real traffic.
	c := newKVCluster(t, ClusterConfig{})
	c.Submit(0, model.Value(batchMagic+"wedge"))
	good := signedKV(t, signer, 1, "k", "v")
	c.Submit(0, good)
	if err := c.Drain(10); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Replica(0).SM.(*kv.Store).Get("k"); v != "v" {
		t.Fatalf("k = %q, want %q", v, "v")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(core.Params{}, NewAuthContext(testKeyring(), 0), func(model.PID) StateMachine {
		return kv.NewStore()
	}, 0, ClusterConfig{}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestClusterSingleCommand(t *testing.T) {
	c := newKVCluster(t, ClusterConfig{})
	cmd := signedKV(t, testSigner(1), 1, "color", "green")
	c.Submit(0, cmd)
	decided, err := c.RunInstance()
	if err != nil {
		t.Fatal(err)
	}
	if cmds := Commands(decided); len(cmds) != 1 || cmds[0] != cmd {
		t.Fatalf("decided %v, want the submitted command", cmds)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		store := c.Replica(model.PID(i)).SM.(*kv.Store)
		if v, ok := store.Get("color"); !ok || v != "green" {
			t.Fatalf("replica %d: color = %q, %v", i, v, ok)
		}
	}
}

func TestClusterDrain(t *testing.T) {
	c := newKVCluster(t, ClusterConfig{})
	for i := 0; i < 5; i++ {
		cmd := signedKV(t, testSigner(1), uint64(i+1), fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
		c.Submit(model.PID(i%4), cmd)
	}
	if err := c.Drain(40); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	store := c.Replica(2).SM.(*kv.Store)
	for i := 0; i < 5; i++ {
		if v, ok := store.Get(fmt.Sprintf("k%d", i)); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d = %q, %v", i, v, ok)
		}
	}
	if c.PendingTotal() != 0 {
		t.Errorf("pending = %d", c.PendingTotal())
	}
}

// Competing proposals: one instance decides exactly one of them; drain gets
// both in eventually, in the same order everywhere.
func TestClusterCompetingProposals(t *testing.T) {
	c := newKVCluster(t, ClusterConfig{})
	cmdA := signedKV(t, testSigner(1), 1, "k", "fromA")
	cmdB := signedKV(t, testSigner(2), 1, "k", "fromB")
	c.Submit(0, cmdA)
	c.Submit(3, cmdB)
	if err := c.Drain(40); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The later log entry wins the key.
	log := c.Replica(0).Log.Entries()
	var wantVal string
	for _, e := range log {
		switch e {
		case cmdA:
			wantVal = "fromA"
		case cmdB:
			wantVal = "fromB"
		}
	}
	store := c.Replica(1).SM.(*kv.Store)
	if v, _ := store.Get("k"); v != wantVal {
		t.Fatalf("k = %q, want %q (last decided)", v, wantVal)
	}
}

// Duplicate submissions (client retries) are applied once.
func TestClusterDeduplication(t *testing.T) {
	c := newKVCluster(t, ClusterConfig{})
	cmd := signedKV(t, testSigner(1), 1, "count", "1")
	c.Submit(0, cmd)
	c.Submit(1, cmd)
	if err := c.Drain(40); err != nil {
		t.Fatal(err)
	}
	store := c.Replica(0).SM.(*kv.Store)
	if v, _ := store.Get("count"); v != "1" {
		t.Fatalf("count = %q", v)
	}
	// The log may contain the command twice; the state machine dedups.
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainGivesUp(t *testing.T) {
	c := newKVCluster(t, ClusterConfig{})
	c.Submit(0, signedKV(t, testSigner(1), 1, "k", "v"))
	// Zero instances allowed: must report pending work.
	if err := c.Drain(0); err == nil {
		t.Fatal("Drain(0) with pending work must fail")
	}
}

func TestErrorsExported(t *testing.T) {
	if !errors.Is(fmt.Errorf("wrap: %w", ErrDiverged), ErrDiverged) {
		t.Error("ErrDiverged must support errors.Is")
	}
}

// A batched cluster drains k commands in ~k/batch instances, not k.
func TestClusterBatchedDrain(t *testing.T) {
	c := newKVCluster(t, ClusterConfig{MaxBatch: 8})
	const k = 40
	for i := 0; i < k; i++ {
		c.Submit(0, signedKV(t, testSigner(1), uint64(i+1), fmt.Sprintf("k%d", i), "v"))
	}
	instances := 0
	for c.PendingTotal() > 0 {
		if _, err := c.RunInstance(); err != nil {
			t.Fatal(err)
		}
		if instances++; instances > k {
			t.Fatal("runaway instance loop")
		}
	}
	if instances > k/8+1 {
		t.Errorf("%d commands took %d instances at batch size 8", k, instances)
	}
	if got := c.Replica(0).Log.Len(); got != k {
		t.Errorf("log length = %d, want %d individual entries", got, k)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	store := c.Replica(3).SM.(*kv.Store)
	if store.Len() != k {
		t.Errorf("store has %d keys, want %d", store.Len(), k)
	}
}

// A Byzantine member cannot break log consistency or starve the batched
// pipeline: live replicas drain and agree.
func TestClusterByzantineMember(t *testing.T) {
	c := newKVCluster(t, ClusterConfig{MaxBatch: 4})
	if err := c.SetByzantine(3, adversary.Equivocate{A: "evil-a", B: "evil-b"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		c.Submit(0, signedKV(t, testSigner(1), uint64(i+1), fmt.Sprintf("k%d", i), "v"))
	}
	if err := c.Drain(40); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	ref := c.Replica(0).SM.(*kv.Store).Snapshot()
	for i := 1; i < 3; i++ {
		got := c.Replica(model.PID(i)).SM.(*kv.Store).Snapshot()
		if len(got) != len(ref) {
			t.Fatalf("replica %d store size %d != %d", i, len(got), len(ref))
		}
	}
}

// A crashed member freezes as a prefix while the rest of the cluster keeps
// deciding (class-3 parameterization with f = 1).
func TestClusterCrashedMember(t *testing.T) {
	params := core.Params{
		N: 6, B: 1, F: 1, TD: 4,
		Flag:       model.FlagPhase,
		FLV:        flv.NewClass3(6, 4, 1, false),
		Selector:   selector.NewAll(6),
		UseHistory: true,
	}
	c := newAuthCluster(t, params, 3, ClusterConfig{MaxBatch: 4})
	signer := testSigner(1)
	c.Submit(0, signedKV(t, signer, 1, "a", "1"))
	if _, err := c.RunInstance(); err != nil {
		t.Fatal(err)
	}
	frozen := c.Replica(2).Log.Len()
	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		c.Submit(0, signedKV(t, signer, uint64(i+2), "b", fmt.Sprintf("%d", i)))
	}
	if err := c.Drain(40); err != nil {
		t.Fatal(err)
	}
	if got := c.Replica(2).Log.Len(); got != frozen {
		t.Errorf("crashed member's log grew: %d → %d", frozen, got)
	}
	if c.Replica(0).Log.Len() <= frozen {
		t.Error("live members did not keep deciding")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// Fault injection respects the parameterization's budgets.
func TestClusterFaultBudget(t *testing.T) {
	c := newKVCluster(t, ClusterConfig{}) // n=4, b=1, f=0
	if err := c.SetByzantine(3, adversary.Silent{}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetByzantine(2, adversary.Silent{}); !errors.Is(err, ErrFaultBudget) {
		t.Errorf("second Byzantine member err = %v, want ErrFaultBudget", err)
	}
	if err := c.Crash(0); !errors.Is(err, ErrFaultBudget) {
		t.Errorf("crash with f=0 err = %v, want ErrFaultBudget", err)
	}
	if err := c.Crash(3); err == nil {
		t.Error("crashing a Byzantine member accepted")
	}
	if err := c.SetByzantine(7, adversary.Silent{}); err == nil {
		t.Error("out-of-range member accepted")
	}
}

// AppendBatch appends a whole decided batch under one lock acquisition and
// preserves order against Append.
func TestLogAppendBatch(t *testing.T) {
	var l Log
	l.AppendBatch(nil) // no-op
	if l.Len() != 0 {
		t.Error("empty AppendBatch grew the log")
	}
	l.Append("a")
	l.AppendBatch([]model.Value{"b", "c", "d"})
	l.Append("e")
	want := []model.Value{"a", "b", "c", "d", "e"}
	got := l.Entries()
	if len(got) != len(want) {
		t.Fatalf("log = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("log[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// ProposalAt slices the queue at an offset: the pipeline's disjoint
// assignment of pending commands to in-flight instances.
func TestReplicaProposalAt(t *testing.T) {
	ax, signer := testAuthContext(t)
	r := authReplica(0, ax)
	var cmds []model.Value
	for i := 0; i < 6; i++ {
		c := signedKV(t, signer, uint64(i+1), "k", fmt.Sprintf("v%d", i))
		cmds = append(cmds, c)
		r.Submit(c)
	}
	// Slice [2, 2+2): the second window slot at batch 2.
	v, claim := r.ProposalAt(2, 2)
	if claim != 2 {
		t.Fatalf("claim = %d, want 2", claim)
	}
	got, err := DecodeBatch(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != cmds[2] || got[1] != cmds[3] {
		t.Fatalf("slice = %v, want commands 2..3", got)
	}
	// Beyond the queue: NoOp, no claim.
	if v, claim := r.ProposalAt(6, 2); v != NoOp || claim != 0 {
		t.Errorf("past-end proposal = %q claim %d, want NoOp/0", v, claim)
	}
	// Negative skip clamps to the head; limit 0 means replica sizing.
	r.SetMaxBatch(3)
	v, claim = r.ProposalAt(-1, 0)
	if claim != 3 {
		t.Fatalf("claim with maxBatch 3 = %d", claim)
	}
	if got, _ := DecodeBatch(v); got[0] != cmds[0] {
		t.Errorf("negative skip did not clamp to the head")
	}
	// Proposal() is the skip-0 shorthand.
	if v2 := r.Proposal(); v2 != v {
		t.Errorf("Proposal() != ProposalAt(0, ...)")
	}
}

// CommitQueue serializes out-of-order decision delivery into in-order
// commits with claim accounting — the discipline the node's pipelined
// dispatcher commits by.
func TestCommitQueueInOrder(t *testing.T) {
	ax, signer := testAuthContext(t)
	r := authReplica(0, ax)
	var cmds []model.Value
	for i := 0; i < 4; i++ {
		c := signedKV(t, signer, uint64(i+1), fmt.Sprintf("qk%d", i), "v")
		cmds = append(cmds, c)
		r.Submit(c)
	}
	var committed []uint64
	q := NewCommitQueue(r, 1, func(instance uint64, _ model.Value, _ []string) {
		committed = append(committed, instance)
	})
	p1 := q.Claim(1, 2)
	p2 := q.Claim(2, 2)
	if q.Unclaimed() != 0 {
		t.Fatalf("Unclaimed = %d with the whole queue claimed", q.Unclaimed())
	}
	// The slices are disjoint.
	b1, err1 := DecodeBatch(p1)
	b2, err2 := DecodeBatch(p2)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if b1[0] != cmds[0] || b2[0] != cmds[2] {
		t.Fatalf("claims overlap: %v / %v", b1, b2)
	}
	// Instance 2's decision arrives first: buffered, nothing committed.
	if got := q.Deliver(2, p2); got != 0 {
		t.Fatalf("Deliver(2) committed %d instances early", got)
	}
	if r.Log.Len() != 0 {
		t.Fatal("out-of-order decision reached the log")
	}
	if q.Unclaimed() != 0 {
		t.Fatal("buffered decision released its claim before committing")
	}
	// Instance 1 arrives: both flush, in order, claims released.
	if got := q.Deliver(1, p1); got != 2 {
		t.Fatalf("Deliver(1) committed %d instances, want 2", got)
	}
	if len(committed) != 2 || committed[0] != 1 || committed[1] != 2 {
		t.Fatalf("commit order = %v", committed)
	}
	if r.Log.Len() != 4 {
		t.Fatalf("log length = %d, want 4", r.Log.Len())
	}
	if head, _ := r.Log.Get(0); head != cmds[0] {
		t.Fatalf("log[0] = %q, want instance 1's slice first", head)
	}
	if q.Unclaimed() != 0 || r.PendingLen() != 0 {
		t.Errorf("queue not drained: unclaimed %d, pending %d", q.Unclaimed(), r.PendingLen())
	}
	// A NoOp decision for a claimed-empty instance releases its (zero)
	// claim without touching the state machine.
	q.Claim(3, 2)
	if got := q.Deliver(3, NoOp); got != 1 {
		t.Fatalf("NoOp delivery committed %d", got)
	}
	if r.Log.Len() != 5 {
		t.Errorf("NoOp not appended: log length %d", r.Log.Len())
	}
}
