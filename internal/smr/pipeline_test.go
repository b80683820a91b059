package smr

import (
	"fmt"
	"testing"

	"genconsensus/internal/adversary"
	"genconsensus/internal/core"
	"genconsensus/internal/flv"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/selector"
)

func newPipelinedKVCluster(t *testing.T, seed int64) *Cluster {
	t.Helper()
	return newAuthCluster(t, pbftParams(4, 1), seed)
}

// submitN submits n writes <tag>-k<i> = v<i>, client 1's seqs first,
// first+1, ..., and returns them.
func submitN(t *testing.T, c *Cluster, first uint64, n int, tag string) []model.Value {
	t.Helper()
	cmds := make([]model.Value, n)
	for i := range cmds {
		cmds[i] = signedKV(t, testSigner(1), first+uint64(i), fmt.Sprintf("%s-k%d", tag, i), fmt.Sprintf("v%d", i))
		c.Submit(0, cmds[i])
	}
	return cmds
}

// A pipelined drain produces exactly the state a serial drain would: every
// command applied, logs identical, queues empty.
func TestPipelineDrainBasic(t *testing.T) {
	c := newPipelinedKVCluster(t, 21)
	c.SetBatchSize(4)
	const k = 32
	submitN(t, c, 1, k, "basic")
	p := NewPipeline(c, 4)
	if err := p.Drain(40); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if c.PendingTotal() != 0 {
		t.Errorf("pending = %d after drain", c.PendingTotal())
	}
	store := c.Replica(2).SM.(*kv.Store)
	for i := 0; i < k; i++ {
		if v, ok := store.Get(fmt.Sprintf("basic-k%d", i)); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("basic-k%d = %q, %v", i, v, ok)
		}
	}
	stats := p.Stats()
	if stats.MaxInFlight < 2 {
		t.Errorf("MaxInFlight = %d, window never overlapped", stats.MaxInFlight)
	}
	if stats.Committed != k {
		t.Errorf("Committed = %d, want %d", stats.Committed, k)
	}
}

// Concurrency follows the backlog: beyond the first instance the window
// opens only for a full batch. 20 commands at batch 8 start two full
// instances together and the remaining 4 in a third once the window is
// empty, not three partial-or-full instances at once.
func TestPipelineOpensForFullBatches(t *testing.T) {
	c := newPipelinedKVCluster(t, 25)
	c.SetBatchSize(8)
	submitN(t, c, 1, 20, "backlog")
	p := NewPipeline(c, 4)
	if err := p.Drain(10); err != nil {
		t.Fatal(err)
	}
	stats := p.Stats()
	if stats.MaxInFlight != 2 || stats.Instances != 3 || stats.Committed != 20 {
		t.Errorf("MaxInFlight %d, Instances %d, Committed %d; want 2, 3, 20",
			stats.MaxInFlight, stats.Instances, stats.Committed)
	}
	checkQueues(t, c)
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// Disjoint proposal slices: a window of W instances drains W distinct
// batches, so k commands at batch b need ~k/b instances, not W*k/b.
func TestPipelineDisjointSlices(t *testing.T) {
	c := newPipelinedKVCluster(t, 22)
	c.SetBatchSize(8)
	const k = 64
	submitN(t, c, 1, k, "slices")
	p := NewPipeline(c, 4)
	if err := p.Drain(k); err != nil {
		t.Fatal(err)
	}
	stats := p.Stats()
	if stats.Instances > k/8+2 {
		t.Errorf("%d commands at batch 8 took %d instances; slices overlap", k, stats.Instances)
	}
	if got := c.Replica(0).Log.Len(); got != k {
		t.Errorf("log length = %d, want %d (no duplicate decisions expected here)", got, k)
	}
}

// decide steps one in-flight instance alone to its decision and delivers
// it.
func decide(t *testing.T, p *Pipeline, instance uint64) {
	t.Helper()
	for _, f := range p.inflight {
		if f.instance == instance {
			for !f.engine.Done() {
				f.engine.Step()
			}
			if _, err := p.harvest(); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("instance %d not in flight", instance)
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

// The in-order commit queue: instance k+1 decides first, its decision is
// buffered (logs untouched, claim still held), and only once instance k
// decides do both commit — in instance order.
func TestPipelineOutOfOrderCommit(t *testing.T) {
	c := newPipelinedKVCluster(t, 23)
	c.SetBatchSize(2)
	cmds := submitN(t, c, 1, 4, "ooo")
	p := NewPipeline(c, 2)

	// Start the window by hand: instance 1 claims pending[0:2], instance 2
	// claims pending[2:4].
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	q := c.queues[0]
	if got := q.Unclaimed(); got != 0 {
		t.Fatalf("Unclaimed = %d with both slices claimed", got)
	}

	// Drive ONLY the later instance to its decision.
	decide(t, p, 2)
	if q.NextCommit() != 1 || q.ReadIndex() != 2 {
		t.Fatalf("later decision not buffered: NextCommit %d, ReadIndex %d", q.NextCommit(), q.ReadIndex())
	}
	if got := c.Replica(0).Log.Len(); got != 0 {
		t.Fatalf("later instance committed before earlier one: log length %d", got)
	}
	if got := q.Unclaimed(); got != 0 {
		t.Fatalf("claim released before commit: Unclaimed = %d", got)
	}

	// Now let the earlier instance finish: both must apply, in order.
	decide(t, p, 1)
	if p.stats.OutOfOrder == 0 {
		t.Error("OutOfOrder stat did not record the buffered decision")
	}
	if got := c.Replica(0).Log.Len(); got != 4 {
		t.Fatalf("log length = %d, want 4 after in-order flush", got)
	}
	if q.NextCommit() != 3 {
		t.Errorf("NextCommit = %d after both commits, want 3", q.NextCommit())
	}
	checkQueues(t, c)
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// In-order means the earlier instance's slice occupies the log prefix.
	log := c.Replica(1).Log.Entries()
	if log[0] != cmds[0] {
		t.Errorf("log[0] = %q, want the first submitted command", log[0])
	}
}

// A Byzantine member is active in two overlapping instances at once;
// consistency and liveness must survive.
func TestPipelineByzantineOverlap(t *testing.T) {
	for _, strat := range []adversary.Strategy{
		adversary.Equivocate{A: "evil-a", B: "evil-b"},
		adversary.Silent{},
	} {
		t.Run(strat.Name(), func(t *testing.T) {
			c := newPipelinedKVCluster(t, 24)
			c.SetBatchSize(2)
			if err := c.SetByzantine(3, strat); err != nil {
				t.Fatal(err)
			}
			submitN(t, c, 1, 12, "byz")
			p := NewPipeline(c, 3)
			if err := p.Drain(60); err != nil {
				t.Fatal(err)
			}
			if p.Stats().MaxInFlight < 2 {
				t.Errorf("adversary never faced overlapping instances (MaxInFlight=%d)",
					p.Stats().MaxInFlight)
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			checkQueues(t, c)
			store := c.Replica(0).SM.(*kv.Store)
			for i := 0; i < 12; i++ {
				if _, ok := store.Get(fmt.Sprintf("byz-k%d", i)); !ok {
					t.Fatalf("byz-k%d missing", i)
				}
			}
		})
	}
}

// Crash + Byzantine faults injected mid-pipeline (between drains) leave a
// consistent prefix, exactly as in the serial path.
func TestPipelineFaultsMidDrain(t *testing.T) {
	params := core.Params{
		N: 6, B: 1, F: 1, TD: 4,
		Flag:       model.FlagPhase,
		FLV:        flv.NewClass3(6, 4, 1, false),
		Selector:   selector.NewAll(6),
		UseHistory: true,
	}
	c := newAuthCluster(t, params, 25)
	c.SetBatchSize(4)
	p := NewPipeline(c, 4)
	submitN(t, c, 1, 16, "pre")
	if err := p.Drain(40); err != nil {
		t.Fatal(err)
	}
	if err := c.SetByzantine(5, adversary.Equivocate{A: "x", B: "y"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(0); err != nil {
		t.Fatal(err)
	}
	submitN(t, c, 17, 16, "post")
	if err := p.Drain(60); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	checkQueues(t, c)
}

// A member that crashes with a decision buffered behind a gap rejoins
// through Recover: the catch-up drops the stale buffered decision and the
// claims it held, brings the member to the donors' watermark, and from
// then on it commits alongside them.
func TestPipelineRecoverMidWindow(t *testing.T) {
	c := newAuthCluster(t, class3Params(6, 4, 1), 27)
	c.SetBatchSize(2)
	submitN(t, c, 1, 4, "mid")
	p := NewPipeline(c, 2)
	for i := 0; i < 2; i++ {
		if err := p.start(); err != nil {
			t.Fatal(err)
		}
	}
	// Instance 2 decides first and reaches every member's queue; member 5
	// crashes before instance 1 decides, so it never sees instance 1.
	decide(t, p, 2)
	if err := c.Crash(5); err != nil {
		t.Fatal(err)
	}
	decide(t, p, 1)
	q5 := c.queues[5]
	if q5.NextCommit() != 1 || q5.ReadIndex() != 2 {
		t.Fatalf("crashed member: NextCommit %d, ReadIndex %d; want 1 with instance 2 buffered",
			q5.NextCommit(), q5.ReadIndex())
	}

	submitN(t, c, 5, 8, "more")
	if err := p.Drain(40); err != nil {
		t.Fatal(err)
	}
	if err := c.Recover(5); err != nil {
		t.Fatal(err)
	}
	if got, want := q5.NextCommit(), c.queues[0].NextCommit(); got != want {
		t.Fatalf("recovered member at NextCommit %d, donors at %d", got, want)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	checkQueues(t, c)

	submitN(t, c, 13, 4, "after")
	if err := p.Drain(20); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	checkQueues(t, c)
	store := c.Replica(5).SM.(*kv.Store)
	for i := 0; i < 4; i++ {
		if v, ok := store.Get(fmt.Sprintf("after-k%d", i)); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("recovered member: after-k%d = %q, %v", i, v, ok)
		}
	}
}

// The acceptance criterion: at the same batch size, W=4 decides the same
// workload in at most half the simulated rounds of W=1 (i.e. ≥ 2x
// decided-commands/sec with rounds as the time axis).
func TestPipelineTickSpeedup(t *testing.T) {
	ticks := func(w int) int {
		t.Helper()
		c := newPipelinedKVCluster(t, 26)
		c.SetBatchSize(1)
		const k = 24
		submitN(t, c, 1, k, "speed")
		p := NewPipeline(c, w)
		if err := p.Drain(2 * k); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		if got := p.Stats().Committed; got != k {
			t.Fatalf("W=%d committed %d, want %d", w, got, k)
		}
		return p.Stats().Ticks
	}
	serial := ticks(1)
	pipelined := ticks(4)
	if pipelined*2 > serial {
		t.Errorf("W=4 took %d ticks vs %d at W=1; want ≥ 2x overlap", pipelined, serial)
	}
}
