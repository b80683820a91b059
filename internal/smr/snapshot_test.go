package smr

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"genconsensus/internal/core"
	"genconsensus/internal/flv"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/selector"
	"genconsensus/internal/snapshot"
	"genconsensus/internal/storage"
)

func TestLogOffsets(t *testing.T) {
	var l Log
	for i := 0; i < 10; i++ {
		l.Append(model.Value(fmt.Sprintf("c%d", i)))
	}
	if dropped := l.TruncatePrefix(4); dropped != 8 {
		t.Errorf("TruncatePrefix(4) dropped %d bytes, want 8", dropped)
	}
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
	// Truncation is idempotent and clamped.
	if dropped := l.TruncatePrefix(2); dropped != 0 { // below base: no-op
		t.Errorf("stale truncate dropped %d bytes", dropped)
	}
	if l.FirstIndex() != 4 {
		t.Errorf("FirstIndex after stale truncate = %d", l.FirstIndex())
	}
	if dropped := l.TruncatePrefix(100); dropped != 6*2+3 { // beyond end: clamp to Len
		t.Errorf("clamped truncate dropped %d bytes, want 15", dropped)
	}
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

// diskFactory opens member p's Disk under its own directory of one
// t.TempDir, the same directory at every call, so a restart reopens the
// files the member wrote.
func diskFactory(t *testing.T) func(model.PID) *storage.Disk {
	dir := t.TempDir()
	return func(p model.PID) *storage.Disk {
		d, err := storage.OpenDisk(storage.DiskConfig{
			Dir: filepath.Join(dir, fmt.Sprintf("member-%d", p)),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Release the open WAL before TempDir's cleanup removes the
		// directory it lives in.
		t.Cleanup(func() { _ = d.Close() })
		return d
	}
}

// countingBackend counts the snapshot saves a Disk receives and the
// state bytes they carry; fail makes every save fail.
type countingBackend struct {
	*storage.Disk
	fail              bool
	attempts, saves   int
	savedBytes, lastN int
}

func (b *countingBackend) SaveSnapshot(snap *snapshot.Snapshot) error {
	b.attempts++
	if b.fail {
		return errors.New("disk full")
	}
	b.saves++
	b.savedBytes += len(snap.State)
	b.lastN = len(snap.State)
	return b.Disk.SaveSnapshot(snap)
}

// TestSnapshotManagerPersistsByBytes checks the durable cadence: a
// boundary persists only once the commands decided since the last durable
// checkpoint reach that checkpoint's state size, so checkpoint bytes stay
// within decided bytes plus one state and the WAL within one state plus
// one interval; a failed save is retried at the next boundary; Install
// always saves; and the backend alone restores the exact state.
func TestSnapshotManagerPersistsByBytes(t *testing.T) {
	const (
		interval = 4
		batch    = 64
	)
	ax := NewAuthContext(testKeyring(), 0)
	signer := testSigner(1)
	open := diskFactory(t)
	b := &countingBackend{Disk: open(0)}
	storageErrs := 0
	newMember := func(b storage.Backend) (*Replica, *SnapshotManager) {
		r := authReplica(0, ax)
		r.SetBackend(b, func(error) { storageErrs++ })
		mgr, err := NewSnapshotManager(r, SnapshotConfig{Interval: interval})
		if err != nil {
			t.Fatal(err)
		}
		return r, mgr
	}
	r, mgr := newMember(b)
	q, _, err := Restore(r, mgr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, decided, cmdMax := uint64(0), 0, 0
	runInstances := func(count int) {
		for i := 0; i < count; i++ {
			cmds := make([]model.Value, batch)
			for j := range cmds {
				seq++
				cmds[j] = signedKV(t, signer, seq, fmt.Sprintf("k-%d", seq%1024), strings.Repeat("v", 48))
				decided += len(cmds[j])
				cmdMax = max(cmdMax, len(cmds[j]))
			}
			v, err := EncodeBatch(cmds)
			if err != nil {
				t.Fatal(err)
			}
			q.Deliver(q.NextCommit(), v)
		}
	}

	const boundaries = 60
	runInstances(boundaries * interval)
	if b.saves == 0 || b.saves >= boundaries {
		t.Fatalf("%d saves over %d boundaries, want at least one and fewer than one per boundary", b.saves, boundaries)
	}
	if b.savedBytes > decided+b.lastN {
		t.Fatalf("saved %d state bytes, more than %d decided bytes plus one %d-byte state", b.savedBytes, decided, b.lastN)
	}
	walBytes := 0
	if err := b.ReplayWAL(func(_ uint64, v model.Value) error {
		cmds, err := DecodeBatch(v)
		for _, cmd := range cmds {
			walBytes += len(cmd)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if bound := b.lastN + interval*batch*cmdMax; walBytes > bound {
		t.Fatalf("WAL holds %d command bytes, more than one state plus one interval (%d)", walBytes, bound)
	}

	// A failed save keeps the count: the first boundary after the disk
	// heals persists.
	b.fail = true
	for attempts := b.attempts; b.attempts == attempts; {
		runInstances(interval)
	}
	if storageErrs == 0 {
		t.Fatal("failed save not reported")
	}
	b.fail = false
	saves := b.saves
	runInstances(interval)
	if b.saves != saves+1 {
		t.Fatalf("boundary after a failed save made %d saves, want 1", b.saves-saves)
	}

	// Install saves whatever the byte count, also right after a save.
	snap, _, _ := mgr.Latest()
	b2 := &countingBackend{Disk: open(1)}
	_, mgr2 := newMember(b2)
	for i := 1; i <= 2; i++ {
		if err := mgr2.Install(snap); err != nil {
			t.Fatal(err)
		}
		if b2.attempts != i {
			t.Fatalf("install %d: %d save attempts, want %d", i, b2.attempts, i)
		}
	}

	// A power cycle from the files alone restores the exact state.
	runInstances(interval + 1)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	r3, mgr3 := newMember(open(0))
	q3, _, err := Restore(r3, mgr3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q3.NextCommit() != q.NextCommit() || r3.Log.Len() != r.Log.Len() {
		t.Fatalf("restored next %d, log %d; had %d, %d", q3.NextCommit(), r3.Log.Len(), q.NextCommit(), r.Log.Len())
	}
	if !bytes.Equal(r3.SM.(*kv.Store).SnapshotState(), r.SM.(*kv.Store).SnapshotState()) {
		t.Fatal("restored state diverges")
	}
	if storageErrs != 1 {
		t.Fatalf("%d storage errors, want the one injected", storageErrs)
	}
}

// TestRestoreKeepsOutOfOrderFrontier: a decision delivered behind a gap
// reaches the WAL before the gap closes, so a restart restores it. Here
// instance 4 is delivered while 3 is missing; after the power cut the
// restored queue still waits at 3 with 4 buffered, and once 3 arrives the
// replica holds the state of one that never restarted.
func TestRestoreKeepsOutOfOrderFrontier(t *testing.T) {
	ax := NewAuthContext(testKeyring(), 0)
	signer := testSigner(1)
	batches := make([]model.Value, 5) // by instance, 1..4
	for i := range batches[1:] {
		v, err := EncodeBatch([]model.Value{
			signedKV(t, signer, uint64(2*i+1), fmt.Sprintf("oo-%d", i), "a"),
			signedKV(t, signer, uint64(2*i+2), "oo-shared", fmt.Sprint(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		batches[i+1] = v
	}
	// newMember restores a replica whose interval never checkpoints, so
	// the WAL alone carries every decision.
	newMember := func(b storage.Backend) (*Replica, *CommitQueue) {
		r := authReplica(0, ax)
		r.SetBackend(b, func(err error) { t.Error(err) })
		mgr, err := NewSnapshotManager(r, SnapshotConfig{Interval: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		q, _, err := Restore(r, mgr, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r, q
	}
	ref, refQ := newMember(nil)
	for _, instance := range []uint64{1, 2, 4, 3} {
		refQ.Deliver(instance, batches[instance])
	}

	open := diskFactory(t)
	disk := open(0)
	_, q := newMember(disk)
	for _, instance := range []uint64{1, 2, 4} {
		q.Deliver(instance, batches[instance])
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	r, q := newMember(open(0))
	if q.NextCommit() != 3 || q.ReadIndex() != 4 {
		t.Fatalf("restored next %d read index %d, want 3 and 4", q.NextCommit(), q.ReadIndex())
	}
	q.Deliver(3, batches[3])
	if q.NextCommit() != 5 {
		t.Fatalf("next %d after the gap closed, want 5", q.NextCommit())
	}
	if !bytes.Equal(r.SM.(*kv.Store).SnapshotState(), ref.SM.(*kv.Store).SnapshotState()) {
		t.Fatal("restored state diverges from a replica that never restarted")
	}
}
