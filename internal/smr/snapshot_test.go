package smr

import (
	"fmt"
	"testing"

	"genconsensus/internal/core"
	"genconsensus/internal/flv"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/selector"
	"genconsensus/internal/snapshot"
)

func TestLogOffsets(t *testing.T) {
	var l Log
	for i := 0; i < 10; i++ {
		l.Append(model.Value(fmt.Sprintf("c%d", i)))
	}
	l.TruncatePrefix(4)
	if l.Len() != 10 {
		t.Errorf("Len after compaction = %d, want 10 (positions are global)", l.Len())
	}
	if l.FirstIndex() != 4 {
		t.Errorf("FirstIndex = %d, want 4", l.FirstIndex())
	}
	if _, ok := l.Get(3); ok {
		t.Error("Get(3) returned a compacted entry")
	}
	if v, ok := l.Get(4); !ok || v != "c4" {
		t.Errorf("Get(4) = %q, %v", v, ok)
	}
	if v, ok := l.Get(9); !ok || v != "c9" {
		t.Errorf("Get(9) = %q, %v", v, ok)
	}
	if got := l.Entries(); len(got) != 6 || got[0] != "c4" {
		t.Errorf("Entries = %v", got)
	}
	// Appends continue at global positions.
	l.Append("c10")
	if v, ok := l.Get(10); !ok || v != "c10" {
		t.Errorf("Get(10) = %q, %v", v, ok)
	}
	// Tail honors the offset and rejects compacted starts.
	if tail, ok := l.Tail(8); !ok || len(tail) != 3 || tail[0] != "c8" {
		t.Errorf("Tail(8) = %v, %v", tail, ok)
	}
	if _, ok := l.Tail(2); ok {
		t.Error("Tail below FirstIndex reported ok")
	}
	// Truncation is idempotent and clamped.
	l.TruncatePrefix(2) // below base: no-op
	if l.FirstIndex() != 4 {
		t.Errorf("FirstIndex after stale truncate = %d", l.FirstIndex())
	}
	l.TruncatePrefix(100) // beyond end: clamp to Len
	if l.FirstIndex() != 11 || l.Len() != 11 {
		t.Errorf("clamped truncate: first %d len %d", l.FirstIndex(), l.Len())
	}
	l.Reset(42)
	if l.Len() != 42 || l.FirstIndex() != 42 || len(l.Entries()) != 0 {
		t.Errorf("Reset: len %d first %d", l.Len(), l.FirstIndex())
	}
}

func TestSnapshotManagerCheckpointAndInstall(t *testing.T) {
	ax := NewAuthContext(testKeyring(), 0)
	r := authReplica(0, ax)
	store := r.SM.(*kv.Store)
	mgr, err := NewSnapshotManager(r, SnapshotConfig{Interval: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := mgr.Latest(); ok {
		t.Fatal("fresh manager has a snapshot")
	}
	for i := 1; i <= 6; i++ {
		r.Commit(testCmd(t, i))
		mgr.MaybeSnapshot(uint64(i))
	}
	snap, digest, ok := mgr.Latest()
	if !ok || snap.LastInstance != 6 || snap.LogIndex != 6 {
		t.Fatalf("latest = %+v, %v", snap, ok)
	}
	if mgr.Taken() != 3 {
		t.Errorf("Taken = %d, want 3 (instances 2, 4, 6)", mgr.Taken())
	}
	if r.Log.FirstIndex() != 6 {
		t.Errorf("log not compacted: FirstIndex = %d", r.Log.FirstIndex())
	}
	if digest != snapshot.Digest(snap) {
		t.Error("digest mismatch")
	}

	// Install the snapshot on a fresh replica: state and watermark carry
	// over, the log restarts at the snapshot index.
	r2 := authReplica(1, ax)
	store2 := r2.SM.(*kv.Store)
	mgr2, err := NewSnapshotManager(r2, SnapshotConfig{Interval: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr2.Install(snap); err != nil {
		t.Fatal(err)
	}
	if r2.Log.Len() != 6 || r2.Log.FirstIndex() != 6 {
		t.Errorf("installed log: len %d first %d", r2.Log.Len(), r2.Log.FirstIndex())
	}
	if string(store2.SnapshotState()) != string(store.SnapshotState()) {
		t.Error("installed state differs from source state")
	}
	if !store2.SeqApplied(1, 6) {
		t.Error("installed state lost the client window")
	}
	if s2, d2, ok := mgr2.Latest(); !ok || d2 != digest || s2.LastInstance != 6 {
		t.Error("install did not adopt the snapshot as latest")
	}
}

// An install brings the replay record with it — the restored store's dedup
// windows are what ingress asks — so a replica that never saw the commits a
// snapshot covers refuses their replays, and still admits the next
// sequence number.
func TestSnapshotInstallReseedsReplayWindow(t *testing.T) {
	src := authReplica(0, NewAuthContext(testKeyring(), 0))
	mgr, err := NewSnapshotManager(src, SnapshotConfig{Interval: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		src.Commit(testCmd(t, i))
		mgr.MaybeSnapshot(uint64(i))
	}
	snap, _, ok := mgr.Latest()
	if !ok || snap.LastInstance != 5 {
		t.Fatalf("latest = %+v, %v", snap, ok)
	}

	dst := authReplica(1, NewAuthContext(testKeyring(), 0))
	mgr2, err := NewSnapshotManager(dst, SnapshotConfig{Interval: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr2.Install(snap); err != nil {
		t.Fatal(err)
	}
	if dst.Submit(testCmd(t, 5)) {
		t.Error("replay of (1, 5) admitted after installing a snapshot that applied it")
	}
	if !dst.Submit(testCmd(t, 6)) {
		t.Error("fresh (1, 6) refused after the install")
	}
}

// opaqueSM is a state machine without snapshot support.
type opaqueSM struct{}

func (opaqueSM) Apply(model.Value) string       { return "" }
func (opaqueSM) SeqApplied(uint32, uint64) bool { return false }

func TestSnapshotManagerRequiresSnapshotter(t *testing.T) {
	r := NewReplica(0, opaqueSM{})
	if _, err := NewSnapshotManager(r, SnapshotConfig{Interval: 2}); err == nil {
		t.Fatal("manager accepted a non-Snapshotter state machine")
	}
	r2 := NewReplica(0, kv.NewStore())
	if _, err := NewSnapshotManager(r2, SnapshotConfig{}); err == nil {
		t.Fatal("manager accepted interval 0")
	}
}

// class3Params is the class-3 (n, td, b, f) parameterization the recovery
// tests run on.
func class3Params(n, td, b int) core.Params {
	return core.Params{
		N: n, B: b, F: 1, TD: td,
		Flag:       model.FlagPhase,
		FLV:        flv.NewClass3(n, td, b, false),
		Selector:   selector.NewAll(n),
		UseHistory: true,
	}
}

// TestClusterCompactionBounded is the long-haul compaction proof: across
// ≥ 50 snapshot cycles the retained log entries stay bounded while global
// positions keep growing, and consistency holds throughout. (The dedup
// state is the per-client window, bounded by construction:
// kv.TestAuthWindowBounded.)
func TestClusterCompactionBounded(t *testing.T) {
	const (
		interval  = 2
		cycles    = 55
		instances = interval * cycles
	)
	c := newAuthCluster(t, pbftParams(4, 1), 7, ClusterConfig{MaxBatch: 2, SnapshotInterval: interval})
	maxRetained := 0
	for i := 0; i < instances; i++ {
		c.Submit(0, testCmd(t, 1000+i))
		if _, err := c.RunInstance(); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if err := c.CheckConsistency(); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		for p := 0; p < 4; p++ {
			if n := len(c.Replica(model.PID(p)).Log.Entries()); n > maxRetained {
				maxRetained = n
			}
		}
	}
	// Retained entries never exceed one snapshot window's worth of
	// commands (interval instances × batch ≤ 2 commands, + slack for the
	// boundary itself).
	const bound = interval*2 + 2
	if maxRetained > bound {
		t.Errorf("retained entries peaked at %d, want ≤ %d", maxRetained, bound)
	}
	r0 := c.Replica(0)
	if got := c.Manager(0).Taken(); got < 50 {
		t.Errorf("only %d snapshot cycles, want ≥ 50", got)
	}
	if r0.Log.Len() < instances {
		t.Errorf("global log length %d, want ≥ %d", r0.Log.Len(), instances)
	}
	if r0.Log.FirstIndex() == 0 {
		t.Error("log never compacted")
	}
}

// TestClusterRecover is the simulated crash-recovery e2e on a class-3
// n=6, b=1, f=1 cluster: a member crashes mid-load, the cluster keeps
// deciding and compacting past its log, and Recover brings it back via a
// b+1-verified snapshot plus a donor log tail. The recovered member must
// immediately satisfy CheckConsistency as a live replica and participate
// in subsequent instances.
func TestClusterRecover(t *testing.T) {
	params := class3Params(6, 4, 1)
	c := newAuthCluster(t, params, 11, ClusterConfig{MaxBatch: 4, SnapshotInterval: 3})
	submit := func(i int) {
		c.Submit(0, signedKV(t, testSigner(1), uint64(i+1), fmt.Sprintf("rec-k-%d", i%13), fmt.Sprintf("rec-v-%d", i)))
	}
	next := 0
	runWave := func(cmds, instances int) {
		t.Helper()
		for i := 0; i < cmds; i++ {
			submit(next)
			next++
		}
		for i := 0; i < instances; i++ {
			if _, err := c.RunInstance(); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		}
	}

	runWave(8, 4)
	if err := c.Crash(0); err != nil {
		t.Fatal(err)
	}
	crashLen := c.Replica(0).Log.Len()
	// The cluster keeps going long enough that live members compact their
	// logs well past the crashed member's position: recovery then MUST use
	// a snapshot, a plain tail replay cannot work.
	runWave(24, 12)
	if first := c.Replica(1).Log.FirstIndex(); first <= uint64(crashLen) {
		t.Fatalf("setup failed: live FirstIndex %d has not passed crash point %d", first, crashLen)
	}

	if err := c.Recover(0); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	if got, want := c.Replica(0).Log.Len(), c.Replica(1).Log.Len(); got != want {
		t.Fatalf("recovered log length %d, live logs %d", got, want)
	}

	// The recovered member participates in new instances (including as a
	// fresh crash budget: f=1 is free again).
	runWave(6, 6)
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	ref := c.Replica(1).SM.(*kv.Store).Snapshot()
	got := c.Replica(0).SM.(*kv.Store).Snapshot()
	if len(got) != len(ref) {
		t.Fatalf("recovered store has %d keys, live stores %d", len(got), len(ref))
	}
	for k, v := range ref {
		if got[k] != v {
			t.Fatalf("recovered store: %s = %q, want %q", k, got[k], v)
		}
	}
}

// Recover must refuse nonsense: live members, Byzantine members, unknown
// ids.
func TestRecoverGuards(t *testing.T) {
	c := newAuthCluster(t, class3Params(6, 4, 1), 3, ClusterConfig{})
	if err := c.Recover(1); err == nil {
		t.Error("recovered a live member")
	}
	if err := c.Recover(99); err == nil {
		t.Error("recovered an unknown member")
	}
	if err := c.SetByzantine(5, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Recover(5); err == nil {
		t.Error("recovered a Byzantine member")
	}
}
