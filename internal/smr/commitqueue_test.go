package smr

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"genconsensus/internal/model"
)

func testCmd(t testing.TB, i int) model.Value {
	return signedKV(t, testSigner(1), uint64(i), fmt.Sprintf("cq-k-%d", i), "v")
}

// Ready is the one start rule: with nothing in flight any unclaimed
// command opens an instance; with instances in flight another opens only
// when the unclaimed slice fills a batch, by count or by bytes.
func TestCommitQueueReady(t *testing.T) {
	small := func(n int) []string { return slices.Repeat([]string{"v"}, n) }
	// Three of these overflow MaxBatchBytes, two fit: a byte-full slice
	// below the count cap of 4.
	big := func(n int) []string { return slices.Repeat([]string{strings.Repeat("x", 12<<10)}, n) }
	for _, tc := range []struct {
		name     string
		values   []string // one submitted command each
		claims   int      // instances claimed (at the count cap) before asking
		inflight int
		want     bool
	}{
		{"empty, idle", nil, 0, 0, false},
		{"empty, busy", nil, 0, 2, false},
		{"partial, idle", small(2), 0, 0, true},
		{"partial, busy", small(3), 0, 1, false},
		{"full, idle", small(4), 0, 0, true},
		{"full, busy", small(4), 0, 3, true},
		{"partial after a claim, busy", small(6), 1, 1, false},
		{"partial after a claim, idle", small(6), 1, 0, true},
		{"full after a claim, busy", small(8), 1, 1, true},
		{"all claimed, idle", small(8), 2, 0, false},
		{"bytes fit, busy", big(2), 0, 1, false},
		{"byte-full below the count cap, busy", big(3), 0, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := authReplica(0, NewAuthContext(testKeyring(), 0))
			r.SetMaxBatch(4)
			for i, v := range tc.values {
				if !r.Submit(signedKV(t, testSigner(1), uint64(i+1), fmt.Sprintf("ready-k%d", i), v)) {
					t.Fatalf("command %d refused", i)
				}
			}
			q := NewCommitQueue(r, 1, nil)
			for i := 0; i < tc.claims; i++ {
				q.Claim(uint64(i+1), 0)
			}
			if got := q.Ready(tc.inflight); got != tc.want {
				t.Errorf("Ready(%d) = %v, want %v (unclaimed %d)", tc.inflight, got, tc.want, q.Unclaimed())
			}
		})
	}
}

// Double delivery of the same instance must commit once and release its
// claim once: the second delivery is finished business.
func TestCommitQueueDoubleRelease(t *testing.T) {
	r := authReplica(0, NewAuthContext(testKeyring(), 0))
	var commits []uint64
	q := NewCommitQueue(r, 1, func(instance uint64, _ model.Value, _ []string) {
		commits = append(commits, instance)
	})
	r.Submit(testCmd(t, 1))
	r.Submit(testCmd(t, 2))
	p1 := q.Claim(1, 1)
	p2 := q.Claim(2, 1)
	if q.Unclaimed() != 0 {
		t.Fatalf("Unclaimed = %d after claiming everything", q.Unclaimed())
	}
	if n := q.Deliver(1, p1); n != 1 {
		t.Fatalf("first delivery committed %d", n)
	}
	// Duplicate delivery of the committed instance: dropped entirely.
	if n := q.Deliver(1, p1); n != 0 {
		t.Fatalf("duplicate delivery committed %d", n)
	}
	if got := r.Log.Len(); got != 1 {
		t.Fatalf("log length %d after duplicate delivery, want 1", got)
	}
	if n := q.Deliver(2, p2); n != 1 {
		t.Fatalf("second instance committed %d", n)
	}
	if q.Unclaimed() != 0 {
		t.Fatalf("Unclaimed = %d after draining, want 0 (claims released exactly once)", q.Unclaimed())
	}
	if len(commits) != 2 || commits[0] != 1 || commits[1] != 2 {
		t.Fatalf("commit order %v", commits)
	}
}

// Commits at the watermark proceed; below it they are dropped without
// touching the log or the claim accounting.
func TestCommitQueueWatermark(t *testing.T) {
	r := authReplica(0, NewAuthContext(testKeyring(), 0))
	q := NewCommitQueue(r, 5, nil)
	if n := q.Deliver(3, testCmd(t, 3)); n != 0 {
		t.Fatalf("below-watermark delivery committed %d", n)
	}
	if n := q.Deliver(4, testCmd(t, 4)); n != 0 {
		t.Fatalf("below-watermark delivery committed %d", n)
	}
	if r.Log.Len() != 0 {
		t.Fatal("below-watermark deliveries reached the log")
	}
	// At the watermark: commits, and flushes any buffered successor.
	if n := q.Deliver(6, testCmd(t, 6)); n != 0 {
		t.Fatalf("gapped delivery committed %d", n)
	}
	if n := q.Deliver(5, testCmd(t, 5)); n != 2 {
		t.Fatalf("watermark delivery flushed %d, want 2", n)
	}
	if got := q.NextCommit(); got != 7 {
		t.Fatalf("NextCommit = %d, want 7", got)
	}
	// Claiming an already-committed instance yields NoOp and no claim.
	r.Submit(testCmd(t, 100))
	if p := q.Claim(4, 1); p != NoOp {
		t.Fatalf("stale claim proposed %q", p)
	}
	if q.Unclaimed() != 1 {
		t.Fatalf("stale claim consumed queue positions: Unclaimed = %d", q.Unclaimed())
	}
}

// Reserve takes the slice Claim would, encoding nothing; Propose builds a
// reservation's batch from where its slice sits when asked, after earlier
// instances committed.
func TestCommitQueueReserve(t *testing.T) {
	r := authReplica(0, NewAuthContext(testKeyring(), 0))
	r.SetMaxBatch(2)
	cmds := make([]model.Value, 5)
	for i := range cmds {
		cmds[i] = testCmd(t, i+1)
		r.Submit(cmds[i])
	}
	q := NewCommitQueue(r, 1, nil)
	batch := func(vs ...model.Value) model.Value {
		b, err := EncodeBatch(vs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	q.Reserve(1)
	q.Reserve(2)
	if got := q.Unclaimed(); got != 1 {
		t.Fatalf("Unclaimed = %d after two reservations of 2, want 1", got)
	}
	if got := q.Propose(2); got != batch(cmds[2], cmds[3]) {
		t.Fatalf("Propose(2) = %q, want the second slice", got)
	}
	// Instance 1 commits the first slice: instance 2's slice is now the
	// queue head, and Propose finds it there.
	q.Deliver(1, batch(cmds[0], cmds[1]))
	if got := q.Propose(2); got != batch(cmds[2], cmds[3]) {
		t.Fatalf("Propose(2) after instance 1 committed = %q, want the same slice", got)
	}
	if got := q.Propose(1); got != NoOp {
		t.Fatalf("Propose of a committed instance = %q, want NoOp", got)
	}
	q.Reserve(3)
	q.Deliver(2, batch(cmds[2], cmds[3]))
	q.Deliver(3, batch(cmds[4]))
	q.Reserve(4)
	if got := q.Propose(4); got != NoOp {
		t.Fatalf("Propose of an empty reservation = %q, want NoOp", got)
	}
	if got := q.Unclaimed(); got != 0 {
		t.Fatalf("Unclaimed = %d after draining, want 0", got)
	}
}

// Out-of-order release under concurrent claimers: W workers claim disjoint
// slices and deliver in scrambled order; every command must commit exactly
// once, in instance order, and the claim offset must return to zero. Run
// with -race: Claim/Deliver/Unclaimed race on purpose.
func TestCommitQueueConcurrentOutOfOrder(t *testing.T) {
	const instances = 40
	r := authReplica(0, NewAuthContext(testKeyring(), 0))
	var mu sync.Mutex
	var order []uint64
	q := NewCommitQueue(r, 1, func(instance uint64, _ model.Value, _ []string) {
		mu.Lock()
		order = append(order, instance)
		mu.Unlock()
	})
	for i := 0; i < instances; i++ {
		r.Submit(testCmd(t, i))
	}
	// Four claimers race for disjoint instance sets (q.mu serializes the
	// slice assignment; the race detector audits the locking).
	proposals := make([]model.Value, instances+1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for inst := uint64(w + 1); inst <= instances; inst += 4 {
				proposals[inst] = q.Claim(inst, 1)
			}
		}(w)
	}
	wg.Wait()
	// Deliver from 4 workers, each a different stride, so later instances
	// routinely arrive before earlier ones.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for inst := uint64(w + 1); inst <= instances; inst += 4 {
				q.Deliver(instances+1-inst, proposals[instances+1-inst])
			}
		}(w)
	}
	wg.Wait()
	if got := r.Log.Len(); got != instances {
		t.Fatalf("log length %d, want %d", got, instances)
	}
	if got := q.Unclaimed(); got != 0 {
		t.Fatalf("Unclaimed = %d after drain, want 0", got)
	}
	if len(order) != instances {
		t.Fatalf("committed %d instances, want %d", len(order), instances)
	}
	for i, inst := range order {
		if inst != uint64(i+1) {
			t.Fatalf("commit order %v: position %d is %d", order, i, inst)
		}
	}
}

// InstallSnapshot fast-forwards past covered instances: older buffered
// decisions and claims are dropped, newer buffered decisions flush, and a
// racing install loses cleanly.
func TestCommitQueueInstallSnapshot(t *testing.T) {
	r := authReplica(0, NewAuthContext(testKeyring(), 0))
	var commits []uint64
	q := NewCommitQueue(r, 1, func(instance uint64, _ model.Value, _ []string) {
		commits = append(commits, instance)
	})
	for i := 0; i < 6; i++ {
		r.Submit(testCmd(t, i))
	}
	for inst := uint64(1); inst <= 6; inst++ {
		q.Claim(inst, 1)
	}
	// Decisions for 3 and 5..6 arrive; 1, 2 and 4 never will (their peers
	// compacted them away).
	q.Deliver(3, testCmd(t, 3))
	q.Deliver(5, testCmd(t, 5))
	q.Deliver(6, testCmd(t, 6))
	installed := false
	ok, err := q.InstallSnapshot(5, func() error { installed = true; return nil })
	if err != nil || !ok {
		t.Fatalf("InstallSnapshot = %v, %v", ok, err)
	}
	if !installed {
		t.Fatal("install callback not run")
	}
	// 5 and 6 were buffered and are now consecutive: both flush.
	if len(commits) != 2 || commits[0] != 5 || commits[1] != 6 {
		t.Fatalf("commits after install: %v", commits)
	}
	if got := q.NextCommit(); got != 7 {
		t.Fatalf("NextCommit = %d, want 7", got)
	}
	// Claims 1..4 dropped, 5..6 released by their commits.
	if got := q.Unclaimed(); got != r.PendingLen() {
		t.Fatalf("Unclaimed = %d, want full queue %d", got, r.PendingLen())
	}
	// A second install at or below the watermark refuses without calling
	// install.
	called := false
	ok, err = q.InstallSnapshot(7, func() error { called = true; return nil })
	if err != nil || ok || called {
		t.Fatalf("stale install: ok=%v err=%v called=%v", ok, err, called)
	}
}

// ReadIndex tracks the highest known-decided instance: the committed
// watermark when the queue is caught up, and the out-of-order frontier
// when decisions are buffered behind a gap.
func TestCommitQueueReadIndex(t *testing.T) {
	r := authReplica(0, NewAuthContext(testKeyring(), 0))
	q := NewCommitQueue(r, 1, nil)
	if got := q.ReadIndex(); got != 0 {
		t.Fatalf("fresh queue ReadIndex = %d, want 0", got)
	}
	if q.Deliver(1, testCmd(t, 1)) != 1 {
		t.Fatal("in-order delivery did not commit")
	}
	if got := q.ReadIndex(); got != 1 {
		t.Fatalf("ReadIndex = %d after committing 1, want 1", got)
	}
	// Instance 3 buffers behind the missing 2: the read index must report
	// 3 — this replica knows a newer decision exists, so a read-index read
	// has to wait for it rather than serve the instance-1 state.
	if q.Deliver(3, testCmd(t, 3)) != 0 {
		t.Fatal("gapped delivery committed")
	}
	if got := q.ReadIndex(); got != 3 {
		t.Fatalf("ReadIndex = %d with buffered instance 3, want 3", got)
	}
	if q.Deliver(2, testCmd(t, 2)) != 2 {
		t.Fatal("gap fill did not flush both")
	}
	if got := q.ReadIndex(); got != 3 {
		t.Fatalf("ReadIndex = %d after flush, want 3", got)
	}
}

// WaitApplied returns immediately for applied instances, blocks across a
// decision gap until the flush passes the target, and respects deadlines.
func TestCommitQueueWaitApplied(t *testing.T) {
	r := authReplica(0, NewAuthContext(testKeyring(), 0))
	q := NewCommitQueue(r, 1, nil)
	q.Deliver(1, testCmd(t, 1))
	if !q.WaitApplied(1, time.Now()) {
		t.Fatal("WaitApplied(applied instance) blocked")
	}
	// Deadline already expired and the instance is not applied: false.
	if q.WaitApplied(2, time.Now().Add(-time.Second)) {
		t.Fatal("WaitApplied reported an unapplied instance as applied")
	}
	// Buffer 3 behind the missing 2, then fill the gap from another
	// goroutine: the waiter must wake once the flush passes instance 3.
	q.Deliver(3, testCmd(t, 3))
	done := make(chan bool, 1)
	go func() {
		done <- q.WaitApplied(3, time.Now().Add(10*time.Second))
	}()
	select {
	case <-done:
		t.Fatal("WaitApplied returned before the gap filled")
	case <-time.After(20 * time.Millisecond):
	}
	q.Deliver(2, testCmd(t, 2))
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("WaitApplied timed out despite the flush")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitApplied never woke after the gap filled")
	}
	if q.WaitApplied(99, time.Now().Add(30*time.Millisecond)) {
		t.Fatal("WaitApplied(future instance) did not time out")
	}
}

// A snapshot install advances the watermark without committing anything
// through the queue; WaitApplied waiters parked on covered instances must
// wake.
func TestCommitQueueWaitAppliedSnapshot(t *testing.T) {
	r := authReplica(0, NewAuthContext(testKeyring(), 0))
	q := NewCommitQueue(r, 1, nil)
	done := make(chan bool, 1)
	go func() {
		done <- q.WaitApplied(7, time.Now().Add(10*time.Second))
	}()
	select {
	case <-done:
		t.Fatal("WaitApplied returned before the snapshot install")
	case <-time.After(20 * time.Millisecond):
	}
	if ok, err := q.InstallSnapshot(9, nil); !ok || err != nil {
		t.Fatalf("InstallSnapshot = %v, %v", ok, err)
	}
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("WaitApplied timed out despite the snapshot fast-forward")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitApplied never woke after the snapshot install")
	}
	if got := q.ReadIndex(); got != 8 {
		t.Fatalf("ReadIndex = %d after snapshot to 9, want 8", got)
	}
}

// seqProbe is a state machine that records the commit queue's apply
// sequence from inside each Apply.
type seqProbe struct {
	q    *CommitQueue
	seen []uint64
}

func (p *seqProbe) Apply(model.Value) string {
	p.seen = append(p.seen, p.q.ApplySeq())
	return "OK"
}

func (p *seqProbe) SeqApplied(uint32, uint64) bool { return false }

// ApplySeq is the read plane's sequence lock: 2·NextCommit, odd exactly
// while an instance or a snapshot install changes the state machine. The
// commit hook runs after the apply and already sees the even value, and a
// failed install leaves the sequence where it was.
func TestCommitQueueApplySeq(t *testing.T) {
	probe := &seqProbe{}
	var hook []uint64
	var q *CommitQueue
	q = NewCommitQueue(NewReplica(0, probe), 1, func(uint64, model.Value, []string) {
		hook = append(hook, q.ApplySeq())
	})
	probe.q = q
	if got := q.ApplySeq(); got != 2 {
		t.Fatalf("fresh ApplySeq = %d, want 2", got)
	}
	q.Deliver(2, testCmd(t, 2)) // buffered behind 1: nothing applies
	if got := q.ApplySeq(); got != 2 || len(probe.seen) != 0 {
		t.Fatalf("buffered delivery moved ApplySeq to %d (applies %v)", got, probe.seen)
	}
	q.Deliver(1, testCmd(t, 1))
	if fmt.Sprint(probe.seen) != "[3 5]" || fmt.Sprint(hook) != "[4 6]" {
		t.Fatalf("during apply %v, in the hook %v; want [3 5] and [4 6]", probe.seen, hook)
	}
	if q.ApplySeq() != 6 || q.NextCommit() != 3 {
		t.Fatalf("ApplySeq %d, NextCommit %d after two commits", q.ApplySeq(), q.NextCommit())
	}
	var during uint64
	if ok, err := q.InstallSnapshot(10, func() error { during = q.ApplySeq(); return nil }); !ok || err != nil {
		t.Fatalf("InstallSnapshot = %v, %v", ok, err)
	}
	if during != 7 || q.ApplySeq() != 20 {
		t.Fatalf("ApplySeq %d during the install, %d after; want 7 and 20", during, q.ApplySeq())
	}
	if ok, err := q.InstallSnapshot(12, func() error { return fmt.Errorf("torn") }); ok || err == nil {
		t.Fatalf("failing install = %v, %v", ok, err)
	}
	if got := q.ApplySeq(); got != 20 {
		t.Fatalf("ApplySeq %d after a failed install, want 20", got)
	}
}
