package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// fsTypeOf names the filesystem holding dir and says whether it is tmpfs.
func fsTypeOf(dir string) (name string, tmpfs bool, err error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", false, fmt.Errorf("bench: statfs %s: %w", dir, err)
	}
	magic := uint32(st.Type)
	names := map[uint32]string{
		0x01021994: "tmpfs", 0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	name, ok := names[magic]
	if !ok {
		name = fmt.Sprintf("0x%x", magic)
	}
	return name, magic == 0x01021994, nil
}

// fsyncProbe times a bare 4 KiB write+fsync in dir (median of 15, in
// microseconds): the disk's own share of write-durable's numbers, so that
// disk noise can be told from WAL code.
func fsyncProbe(dir string) (float64, error) {
	path := filepath.Join(dir, fmt.Sprintf("fsync-probe-%d", os.Getpid()))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("bench: fsync probe: %w", err)
	}
	defer os.Remove(path)
	defer f.Close()
	block := make([]byte, 4096)
	var us []float64
	for i := 0; i < 15; i++ {
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0, fmt.Errorf("bench: fsync probe: %w", err)
		}
		if err := f.Sync(); err != nil {
			return 0, fmt.Errorf("bench: fsync probe: %w", err)
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return median(us), nil
}

// keyHistory is what the harness knows about the writes of one key, by
// version (index 0 is version 1): when each was sent and when it was seen
// committed (0 = never).
type keyHistory struct {
	sent, committed []int64
}

func (h *keyHistory) note(op *opRec) {
	for len(h.sent) < int(op.spec.version) {
		h.sent = append(h.sent, 0)
		h.committed = append(h.committed, 0)
	}
	h.sent[op.spec.version-1] = op.sent
	h.committed[op.spec.version-1] = op.quorum.Load()
}

// superseded reports whether the value of the given version may no longer
// be what the key holds (or what a read starting at readStart returns):
// that is so when some later write was sent only after this version had
// committed, and has itself committed (before readStart). Two writes in
// flight together may commit in either order — the cluster orders batches,
// not one client's pipeline — so a lower version outliving a higher one is
// only an error under this real-time rule. Version 0 is the preload,
// committed before anything was sent.
func (h *keyHistory) superseded(version uint32, readStart int64) (by uint32, yes bool) {
	committedAt := int64(0)
	if version > 0 {
		if int(version) > len(h.committed) || h.committed[version-1] == 0 {
			return 0, false // still in flight as far as the harness saw: anything goes
		}
		committedAt = h.committed[version-1]
	}
	for v := int(version); v < len(h.sent); v++ { // index v is version v+1
		if h.committed[v] != 0 && h.committed[v] < readStart && h.sent[v] > committedAt {
			return uint32(v + 1), true
		}
	}
	return 0, false
}

// settle waits for the live replicas to finish applying what was decided:
// nothing pending anywhere, and every replica's count of applied commands
// equal and unchanged across two looks 10 ms apart.
func (r *run) settle() bool {
	deadline := time.Now().Add(drainTimeout)
	last := uint64(0)
	for time.Now().Before(deadline) {
		quiet := true
		var count uint64
		first := true
		for i, nd := range r.cluster.nodes {
			if r.deadMask.Load()&(1<<i) != 0 {
				continue
			}
			c := r.cluster.commits[i].Load()
			if first {
				count, first = c, false
			}
			if c != count || nd.Replica().PendingLen() != 0 {
				quiet = false
			}
		}
		if quiet && count == last {
			return true
		}
		last = 0
		if quiet {
			last = count
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// check is the end-of-run correctness check. It returns one line per
// violation — any line fails the run — and how many of them are reads that
// went backwards, which count as failed operations.
func (r *run) check() (errs []string, staleReads int) {
	fail := func(format string, args ...any) {
		if len(errs) < 20 {
			errs = append(errs, fmt.Sprintf(format, args...))
		}
	}
	if !r.settle() {
		fail("live replicas did not settle within %v of the last phase", drainTimeout)
	}

	// 1. Every live replica holds the same state.
	var ref map[string]string
	refIdx := -1
	for i, store := range r.cluster.stores {
		if r.deadMask.Load()&(1<<i) != 0 {
			continue
		}
		snap := store.Snapshot()
		if ref == nil {
			ref, refIdx = snap, i
			continue
		}
		if len(snap) != len(ref) {
			fail("replica %d holds %d keys, replica %d holds %d", i, len(snap), refIdx, len(ref))
			continue
		}
		for k, v := range ref {
			if snap[k] != v {
				fail("replica %d and replica %d disagree on %s: %q vs %q", i, refIdx, k, snap[k], v)
				break
			}
		}
	}

	// 2. Every key holds the value of a write that was sent, and one that no
	// committed write superseded.
	hist := make(map[int]*keyHistory)
	ops := r.ops()
	for _, op := range ops {
		if op.spec.read {
			continue
		}
		h := hist[op.spec.key]
		if h == nil {
			h = &keyHistory{}
			hist[op.spec.key] = h
		}
		h.note(op)
	}
	never := int64(1) << 62
	for key, h := range hist {
		held, ok := ref[keyName(key)]
		if !ok {
			fail("key %s was written and is missing", keyName(key))
			continue
		}
		k, ver, err := parseValue(held)
		if err != nil || k != key || int(ver) > len(h.sent) {
			fail("key %s holds %q, which no write stored", keyName(key), held)
			continue
		}
		if by, yes := h.superseded(ver, never); yes {
			fail("key %s holds version %d although version %d was sent after it committed, and committed", keyName(key), ver, by)
		}
	}
	if r.w.preload && len(ref) != r.w.keys {
		fail("the preloaded store holds %d keys, want %d", len(ref), r.w.keys)
	}

	// 3. No read went backwards.
	for _, op := range ops {
		if !op.spec.read || op.done == 0 {
			continue
		}
		h := hist[op.spec.key]
		if h == nil {
			if op.readVersion != 0 {
				fail("read of %s returned version %d of a key nobody wrote", keyName(op.spec.key), op.readVersion)
			}
			continue
		}
		if by, yes := h.superseded(op.readVersion, op.sent); yes {
			staleReads++
			fail("read of %s sent at %.3f ms returned version %d although version %d had committed before it",
				keyName(op.spec.key), float64(op.sent)/1e6, op.readVersion, by)
		}
	}

	// 4. The stopped replica served nothing after Stop.
	if r.stoppedState != nil {
		now := r.cluster.stores[degradedIndex].Snapshot()
		same := len(now) == len(r.stoppedState)
		for k, v := range r.stoppedState {
			if now[k] != v {
				same = false
				break
			}
		}
		if !same || r.cluster.commits[degradedIndex].Load() != r.stoppedCommits {
			fail("replica %d applied commands after it was stopped", degradedIndex)
		}
	}
	sort.Strings(errs)
	return errs, staleReads
}
