package smr

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"genconsensus/internal/adversary"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/snapshot"
	"genconsensus/internal/storage"
)

// powerCycleCluster stands up a class-3 n=6, b=1, f=1 cluster
// checkpointing every 3 instances, over the given backend factory.
func powerCycleCluster(t *testing.T, factory func(model.PID) storage.Backend) *Cluster {
	t.Helper()
	return newAuthCluster(t, class3Params(6, 4, 1), 23,
		ClusterConfig{MaxBatch: 4, SnapshotInterval: 3, Storage: factory})
}

// diskFactory opens member p's Disk under its own directory of one
// t.TempDir, the same directory at every call, so a power cycle reopens
// the files the member wrote.
func diskFactory(t *testing.T) func(model.PID) storage.Backend {
	dir := t.TempDir()
	return func(p model.PID) storage.Backend {
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

// runWave submits cmds commands and runs instances instances, checking
// consistency after each.
func runWave(t *testing.T, c *Cluster, next *int, cmds, instances int) {
	t.Helper()
	for i := 0; i < cmds; i++ {
		*next++
		c.Submit(0, signedKV(t, testSigner(1), uint64(*next), fmt.Sprintf("pc-k-%d", *next%17), fmt.Sprintf("pc-v-%d", *next)))
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

// failingSaves is a Disk whose checkpoint saves always fail.
type failingSaves struct{ storage.Backend }

var errSaveFailed = errors.New("save failed")

func (failingSaves) SaveSnapshot(*snapshot.Snapshot) error { return errSaveFailed }

// A failing disk is not silent: after a drain that crosses a checkpoint,
// CheckConsistency reports member 2's failed checkpoint save, naming the
// member, though every log agrees.
func TestClusterSurfacesStorageErrors(t *testing.T) {
	disks := diskFactory(t)
	c := powerCycleCluster(t, func(p model.PID) storage.Backend {
		if p == 2 {
			return failingSaves{disks(p)}
		}
		return disks(p)
	})
	for seq := uint64(1); seq <= 16; seq++ {
		c.Submit(0, signedKV(t, testSigner(1), seq, fmt.Sprintf("se-%d", seq), "v"))
	}
	if err := c.Drain(40); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Manager(2).Latest(); !ok {
		t.Fatal("the drain crossed no checkpoint")
	}
	err := c.CheckConsistency()
	if !errors.Is(err, errSaveFailed) || !strings.Contains(err.Error(), "member 2") {
		t.Fatalf("CheckConsistency = %v, want member 2's failed save", err)
	}
}

// TestClusterPowerCycle is the simulated whole-cluster outage: every
// replica's memory is wiped at once, every member's Disk is closed and
// reopened from its files, and the cluster must converge again from what
// those files hold alone — checkpoint plus WAL replay, with the lagging
// members (a crashed one included) pulled up by the same recovery
// machinery Recover uses. The wave between the two outages crosses
// checkpoints, so the second outage reopens WALs that TruncateWAL
// rewrote through a reopened disk's offset index.
func TestClusterPowerCycle(t *testing.T) {
	t.Run("disk", func(t *testing.T) {
		c := powerCycleCluster(t, diskFactory(t))
		next := 0
		runWave(t, c, &next, 10, 5)

		// One member crashes and misses history — after the power
		// cycle its disk is behind and must be converged from the
		// others' durable state.
		if err := c.Crash(5); err != nil {
			t.Fatal(err)
		}
		runWave(t, c, &next, 16, 8)

		// powerCycle cuts the power and checks that every member came
		// back as a new replica holding the cluster's log and state.
		powerCycle := func(when string) {
			t.Helper()
			preLen := c.Replica(0).Log.Len()
			preState := c.Replica(0).SM.(*kv.Store).SnapshotState()
			if preLen == 0 {
				t.Fatal("setup: nothing decided")
			}
			oldReps := make([]*Replica, 6)
			for p := 0; p < 6; p++ {
				oldReps[p] = c.Replica(model.PID(p))
			}

			if err := c.PowerCycle(); err != nil {
				t.Fatal(err)
			}

			// Zero surviving memory: every replica object (log, state
			// machine, queue) is new.
			for p := 0; p < 6; p++ {
				rep := c.Replica(model.PID(p))
				if rep == oldReps[p] {
					t.Fatalf("%s: member %d survived the power cycle", when, p)
				}
				if rep.PendingLen() != 0 {
					t.Fatalf("%s: member %d restored pending commands from nowhere", when, p)
				}
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			checkQueues(t, c)
			for p := 0; p < 6; p++ {
				rep := c.Replica(model.PID(p))
				if got := rep.Log.Len(); got != preLen {
					t.Fatalf("%s: member %d restored %d log entries, cluster had %d", when, p, got, preLen)
				}
				if got := rep.SM.(*kv.Store).SnapshotState(); string(got) != string(preState) {
					t.Fatalf("%s: member %d restored state diverges", when, p)
				}
			}
		}
		powerCycle("first power cycle")

		// The restored cluster keeps deciding, checkpointing and
		// compacting from where it left off.
		preLen := c.Replica(0).Log.Len()
		runWave(t, c, &next, 12, 6)
		if got := c.Replica(0).Log.Len(); got <= preLen {
			t.Fatalf("log did not grow after the power cycle: %d ≤ %d", got, preLen)
		}
		if err := c.CheckConsistency(); err != nil {
			t.Fatal(err)
		}

		// And survives a second outage.
		powerCycle("second power cycle")
		runWave(t, c, &next, 4, 4)
	})
}

// TestClusterPowerCycleAuthenticated: the command lifecycle survives the
// outage — restored logs still carry only provenance-checked entries, no
// (client, seq) commits twice across the cycle, and replays of pre-outage
// commands stay rejected.
func TestClusterPowerCycleAuthenticated(t *testing.T) {
	c := powerCycleCluster(t, diskFactory(t))
	signer := testSigner(1)

	seq := uint64(0)
	signedWave := func(cmds, instances int) {
		t.Helper()
		for i := 0; i < cmds; i++ {
			seq++
			c.Submit(0, signedKV(t, signer, seq, fmt.Sprintf("apc-k-%d", seq%11), fmt.Sprintf("apc-v-%d", seq)))
		}
		for i := 0; i < instances; i++ {
			if _, err := c.RunInstance(); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckProvenance(); err != nil {
			t.Fatal(err)
		}
	}

	signedWave(12, 8)
	if err := c.PowerCycle(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckProvenance(); err != nil {
		t.Fatalf("provenance after power cycle: %v", err)
	}
	// A replay of a pre-outage committed command must still bounce at
	// ingress on the restored replicas.
	if c.Replica(0).Submit(signedKV(t, signer, 1, "apc-k-1", "apc-v-1")) {
		t.Fatal("restored replica accepted a replay of a pre-outage command")
	}
	signedWave(6, 6)
}

func TestPowerCycleGuards(t *testing.T) {
	if err := newAuthCluster(t, pbftParams(4, 1), 3, ClusterConfig{}).PowerCycle(); err != ErrNoStorage {
		t.Fatalf("power cycle without storage: %v", err)
	}
	c := newAuthCluster(t, pbftParams(4, 1), 3, ClusterConfig{Storage: diskFactory(t)})
	if err := c.SetByzantine(1, adversary.Silent{}); err != nil {
		t.Fatal(err)
	}
	if err := c.PowerCycle(); err != ErrByzantinePowerCycle {
		t.Fatalf("power cycle with a Byzantine member: %v", err)
	}

	// A factory that cannot reopen a member's medium fails the cycle.
	open, reopen := diskFactory(t), false
	c = newAuthCluster(t, pbftParams(4, 1), 3, ClusterConfig{Storage: func(p model.PID) storage.Backend {
		if reopen {
			return nil
		}
		return open(p)
	}})
	reopen = true
	if err := c.PowerCycle(); !errors.Is(err, ErrNoStorage) {
		t.Fatalf("power cycle with a factory returning no backend: %v", err)
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
	b := &countingBackend{Disk: open(0).(*storage.Disk)}
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
	b2 := &countingBackend{Disk: open(1).(*storage.Disk)}
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
