package storage

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"genconsensus/internal/model"
	"genconsensus/internal/snapshot"
)

// onDisk runs a Backend subtest over a Disk in a fresh directory. open
// opens that directory again, as a power cycle does: the process memory is
// gone, the files persist.
func onDisk(t *testing.T, run func(t *testing.T, open func() Backend)) {
	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		run(t, func() Backend {
			d, err := OpenDisk(DiskConfig{Dir: dir, Fsync: true, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			return d
		})
	})
}

// walRecord is one replayed WAL record.
type walRecord struct {
	instance uint64
	value    model.Value
}

func replayAll(t *testing.T, b Backend) []walRecord {
	t.Helper()
	var out []walRecord
	if err := b.ReplayWAL(func(instance uint64, value model.Value) error {
		out = append(out, walRecord{instance, value})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBackendWALRoundTrip(t *testing.T) {
	onDisk(t, func(t *testing.T, open func() Backend) {
		b := open()
		// Out-of-order appends (pipelined decisions) and a duplicate.
		appends := []walRecord{
			{1, "one"}, {3, "three"}, {2, "two"}, {3, "three-again"}, {4, "four"},
		}
		for _, r := range appends {
			if err := b.AppendWAL(r.instance, r.value); err != nil {
				t.Fatal(err)
			}
		}
		want := []walRecord{{1, "one"}, {3, "three"}, {2, "two"}, {4, "four"}}
		check := func(got []walRecord) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("replayed %d records, want %d: %v", len(got), len(want), got)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
				}
			}
		}
		check(replayAll(t, b))
		// Power cycle: the records survive reopen, in append order.
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		b = open()
		check(replayAll(t, b))
		// The duplicate filter survives reopen too.
		if err := b.AppendWAL(2, "two-again"); err != nil {
			t.Fatal(err)
		}
		check(replayAll(t, b))
	})
}

func TestBackendWALTruncate(t *testing.T) {
	onDisk(t, func(t *testing.T, open func() Backend) {
		b := open()
		for i := uint64(1); i <= 10; i++ {
			if err := b.AppendWAL(i, model.Value(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.TruncateWAL(7); err != nil {
			t.Fatal(err)
		}
		got := replayAll(t, b)
		if len(got) != 3 || got[0].instance != 8 || got[2].instance != 10 {
			t.Fatalf("post-truncate replay: %v", got)
		}
		// A truncated instance may legitimately be re-appended only if it
		// is re-decided; the idempotence filter forgets truncated records.
		if err := b.AppendWAL(5, "re-decided"); err != nil {
			t.Fatal(err)
		}
		if got := replayAll(t, b); len(got) != 4 {
			t.Fatalf("re-append after truncate: %v", got)
		}
		b.Close()
		b = open()
		if got := replayAll(t, b); len(got) != 4 {
			t.Fatalf("truncate did not survive reopen: %v", got)
		}
	})
}

func TestBackendSnapshotRoundTrip(t *testing.T) {
	onDisk(t, func(t *testing.T, open func() Backend) {
		b := open()
		if _, ok, err := b.LoadSnapshot(); err != nil || ok {
			t.Fatalf("empty store: ok=%v err=%v", ok, err)
		}
		for i := uint64(1); i <= 9; i++ {
			snap := &snapshot.Snapshot{
				LastInstance: i * 10,
				LogIndex:     i * 100,
				State:        []byte(strings.Repeat(fmt.Sprintf("state-%d|", i), 50)),
			}
			if err := b.SaveSnapshot(snap); err != nil {
				t.Fatal(err)
			}
		}
		// Stale saves are dropped.
		if err := b.SaveSnapshot(&snapshot.Snapshot{LastInstance: 5, State: []byte("stale")}); err != nil {
			t.Fatal(err)
		}
		check := func(b Backend) {
			t.Helper()
			snap, ok, err := b.LoadSnapshot()
			if err != nil || !ok {
				t.Fatalf("load: ok=%v err=%v", ok, err)
			}
			if snap.LastInstance != 90 || snap.LogIndex != 900 {
				t.Fatalf("loaded snapshot at %d/%d, want 90/900", snap.LastInstance, snap.LogIndex)
			}
			if !strings.Contains(string(snap.State), "state-9|") {
				t.Fatal("loaded snapshot carries the wrong state")
			}
		}
		check(b)
		b.Close()
		b = open()
		check(b)
	})
}

// TestDiskTruncateIsPhysical pins the truncation contract: when
// TruncateWAL returns, the file holds exactly the header plus the surviving
// records in append order — a second open without Close (what a crash
// would leave) replays only them — and later appends land behind them.
func TestDiskTruncateIsPhysical(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(DiskConfig{Dir: dir, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()
	// Pipelined decisions arrive out of instance order.
	for _, i := range []uint64{2, 1, 4, 3, 6, 5, 8, 7, 10, 9} {
		if err := d.AppendWAL(i, model.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.TruncateWAL(6); err != nil {
		t.Fatal(err)
	}
	want := []walRecord{{8, "v8"}, {7, "v7"}, {10, "v10"}, {9, "v9"}}
	file := []byte(walHeader)
	for _, r := range want {
		file = append(file, encodeRecord(r.instance, r.value)...)
	}
	if got, err := os.ReadFile(filepath.Join(dir, walName)); err != nil || !bytes.Equal(got, file) {
		t.Fatalf("wal after truncate is %d bytes, want header + survivors = %d (%v)", len(got), len(file), err)
	}
	check := func(b Backend, want []walRecord) {
		t.Helper()
		if got := replayAll(t, b); !slices.Equal(got, want) {
			t.Fatalf("replay = %v, want %v", got, want)
		}
	}
	peek, err := OpenDisk(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	check(peek, want)
	peek.Close()

	// A truncated instance re-decided later is a fresh append.
	for _, r := range []walRecord{{11, "v11"}, {3, "re-decided"}} {
		if err := d.AppendWAL(r.instance, r.value); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	check(d, want)
	d.Close()
	if d, err = OpenDisk(DiskConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	check(d, want)
}

// TestDiskSnapshotIncrementalAndPruned restarts from the incremental
// chain older writers left (a full link plus deltas), checks that every
// new checkpoint is written whole, that pruning drops the old chain once
// two newer full checkpoints exist, and that a rotted newest checkpoint
// falls back to the one before it.
func TestDiskSnapshotIncrementalAndPruned(t *testing.T) {
	dir := t.TempDir()
	base := strings.Repeat("0123456789abcdef", 512) // 8 KiB
	snapAt := func(i uint64) *snapshot.Snapshot {
		state := []byte(base + fmt.Sprintf("tail-%d", i)) // tiny change per checkpoint
		return &snapshot.Snapshot{LastInstance: i, LogIndex: i, State: state}
	}
	// The older writer's layout, by hand: instance 1 full, 2-4 deltas.
	enc := snapshot.IncrementalEncoder{FullEvery: 4}
	for i := uint64(1); i <= 4; i++ {
		c := enc.Encode(snapAt(i))
		suffix := ckptFullSufx
		if c.Kind == snapshot.DeltaCheckpoint {
			suffix = ckptDeltaSufx
		}
		if (i == 1) != (c.Kind == snapshot.FullCheckpoint) {
			t.Fatalf("setup: link %d has kind %d", i, c.Kind)
		}
		data := snapshot.AppendCheckpoint(nil, c)
		sum := sha256.Sum256(data)
		name := fmt.Sprintf("%s%020d%s", ckptPrefix, i, suffix)
		if err := os.WriteFile(filepath.Join(dir, name), append(data, sum[:]...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	files := func() (full, delta []uint64) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			var i uint64
			switch {
			case strings.HasSuffix(e.Name(), ckptFullSufx):
				fmt.Sscanf(e.Name(), ckptPrefix+"%020d", &i)
				full = append(full, i)
			case strings.HasSuffix(e.Name(), ckptDeltaSufx):
				fmt.Sscanf(e.Name(), ckptPrefix+"%020d", &i)
				delta = append(delta, i)
			}
		}
		return full, delta
	}
	load := func(want uint64) {
		t.Helper()
		d, err := OpenDisk(DiskConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		snap, ok, err := d.LoadSnapshot()
		if err != nil || !ok {
			t.Fatalf("load: ok=%v err=%v", ok, err)
		}
		if snap.LastInstance != want || !bytes.Equal(snap.State, snapAt(want).State) {
			t.Fatalf("load picked instance %d (state ends %q), want %d", snap.LastInstance, snap.State[len(snap.State)-8:], want)
		}
	}
	rot := func(instance uint64) {
		t.Helper()
		flipAt(t, filepath.Join(dir, fmt.Sprintf("%s%020d%s", ckptPrefix, instance, ckptFullSufx)), 4096)
	}

	save := func(instances ...uint64) {
		t.Helper()
		d, err := OpenDisk(DiskConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		for _, i := range instances {
			if err := d.SaveSnapshot(snapAt(i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The old chain restores through its deltas.
	load(4)
	save(5)
	if full, delta := files(); !slices.Equal(full, []uint64{1, 5}) || !slices.Equal(delta, []uint64{2, 3, 4}) {
		t.Fatalf("after one save: full %v delta %v, want [1 5] [2 3 4]", full, delta)
	}
	load(5)
	// A rotted newest checkpoint falls back to the old chain's last link.
	rot(5)
	load(4)

	save(6, 7)
	// Every save wrote a full checkpoint, and the old chain is pruned once
	// two newer full checkpoints exist.
	if full, delta := files(); !slices.Equal(full, []uint64{6, 7}) || len(delta) != 0 {
		t.Fatalf("after three saves: full %v delta %v, want [6 7] []", full, delta)
	}
	load(7)

	// A rotted newest checkpoint falls back to the one before it.
	rot(7)
	load(6)
}

// TestDiskWALCorruptionCorpus is the torn/corrupt-tail satellite: replay
// must stop cleanly at the first bad record — truncating it and everything
// after — and keep the clean prefix, for each corruption shape.
func TestDiskWALCorruptionCorpus(t *testing.T) {
	const records = 8
	build := func(t *testing.T) (string, int64) {
		dir := t.TempDir()
		d, err := OpenDisk(DiskConfig{Dir: dir, Fsync: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= records; i++ {
			if err := d.AppendWAL(i, model.Value(fmt.Sprintf("value-%d-%s", i, strings.Repeat("x", 100)))); err != nil {
				t.Fatal(err)
			}
		}
		d.Close()
		info, err := os.Stat(filepath.Join(dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		return dir, info.Size()
	}

	// Each corruption returns the minimum number of records that must
	// survive (the prefix before the damage).
	recordSize := func(size int64) int64 { return (size - int64(len(walHeader))) / records }
	corpus := map[string]func(t *testing.T, dir string, size int64) int{
		"bit flip in final record": func(t *testing.T, dir string, size int64) int {
			flipAt(t, filepath.Join(dir, walName), size-10)
			return records - 1
		},
		"bit flip mid-log": func(t *testing.T, dir string, size int64) int {
			// Damage inside record 4: records 1-3 survive, 4.. are gone
			// (replay cannot resynchronize past an untrusted frame).
			flipAt(t, filepath.Join(dir, walName), int64(len(walHeader))+3*recordSize(size)+20)
			return 3
		},
		"short read (torn tail)": func(t *testing.T, dir string, size int64) int {
			if err := os.Truncate(filepath.Join(dir, walName), size-25); err != nil {
				t.Fatal(err)
			}
			return records - 1
		},
		"torn frame header": func(t *testing.T, dir string, size int64) int {
			if err := os.Truncate(filepath.Join(dir, walName), int64(len(walHeader))+(records-1)*recordSize(size)+5); err != nil {
				t.Fatal(err)
			}
			return records - 1
		},
		"garbage length prefix": func(t *testing.T, dir string, size int64) int {
			f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0xFF}, int64(len(walHeader))+7*recordSize(size)); err != nil {
				t.Fatal(err)
			}
			return records - 1
		},
		"duplicate instance id": func(t *testing.T, dir string, size int64) int {
			// A duplicate appended behind the idempotence filter's back
			// (e.g. a crash between two truncate attempts): replay surfaces
			// both, the consumer keeps the first.
			src, err := os.ReadFile(filepath.Join(dir, walName))
			if err != nil {
				t.Fatal(err)
			}
			rec := src[int64(len(walHeader)) : int64(len(walHeader))+recordSize(size)]
			f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(rec); err != nil {
				t.Fatal(err)
			}
			return records // all survive; the duplicate is extra
		},
	}

	for name, corrupt := range corpus {
		t.Run(name, func(t *testing.T) {
			dir, size := build(t)
			minSurvive := corrupt(t, dir, size)
			d, err := OpenDisk(DiskConfig{Dir: dir, Fsync: true, Logf: t.Logf})
			if err != nil {
				t.Fatalf("open after corruption: %v", err)
			}
			defer d.Close()
			seen := make(map[uint64]model.Value)
			if err := d.ReplayWAL(func(instance uint64, value model.Value) error {
				if prev, dup := seen[instance]; dup {
					if prev != value {
						t.Fatalf("instance %d replayed twice with different values", instance)
					}
					return nil
				}
				seen[instance] = value
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(seen) < minSurvive {
				t.Fatalf("%d records survived, want at least %d", len(seen), minSurvive)
			}
			// The surviving prefix is intact: instances 1..minSurvive with
			// their original payloads.
			for i := uint64(1); i <= uint64(minSurvive); i++ {
				want := model.Value(fmt.Sprintf("value-%d-%s", i, strings.Repeat("x", 100)))
				if seen[i] != want {
					t.Fatalf("instance %d payload corrupted after recovery", i)
				}
			}
			// The log accepts appends again after recovery, and they
			// survive another cycle.
			if err := d.AppendWAL(100, "after-recovery"); err != nil {
				t.Fatal(err)
			}
			d.Close()
			d2, err := OpenDisk(DiskConfig{Dir: dir, Fsync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			found := false
			if err := d2.ReplayWAL(func(instance uint64, value model.Value) error {
				if instance == 100 && value == "after-recovery" {
					found = true
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !found {
				t.Fatal("post-recovery append lost")
			}
		})
	}
}

func flipAt(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func TestDiskFsyncBatch(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(DiskConfig{Dir: dir, Fsync: true, FsyncBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 100; i++ {
		if err := d.AppendWAL(i, "batched"); err != nil {
			t.Fatal(err)
		}
	}
	// Sync flushes the unsynced remainder (100 % 64) without error.
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d, err = OpenDisk(DiskConfig{Dir: dir, Fsync: true, FsyncBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if n := d.WALInstances(); n != 100 {
		t.Fatalf("recovered %d instances, want 100", n)
	}
}

func TestClosedBackendErrors(t *testing.T) {
	onDisk(t, func(t *testing.T, open func() Backend) {
		b := open()
		b.Close()
		if err := b.AppendWAL(1, "x"); err != ErrClosed {
			t.Fatalf("append on closed backend: %v", err)
		}
		if _, _, err := b.LoadSnapshot(); err != ErrClosed {
			t.Fatalf("load on closed backend: %v", err)
		}
	})
}
