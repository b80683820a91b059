package storage

import (
	"crypto/sha256"
	"crypto/subtle"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"genconsensus/internal/snapshot"
)

// The snapshot store writes every checkpoint whole:
//
//	ckpt-<instance>-full    a full chain link: the whole state
//
// Each file is an AppendCheckpoint encoding followed by a sha256 footer over
// them, written to a temp name and renamed into place — a crash mid-write
// leaves a temp file the next open ignores, never a half checkpoint under
// a real name. Load returns the newest checkpoint that verifies; if it
// fails, the next-older one is tried, so one rotted file costs one durable
// checkpoint, not the whole store. Pruning keeps the last keepChains full
// checkpoints.
//
// Older writers also left ckpt-<instance>-delta links, each a delta against
// its predecessor. Load still walks such a chain (a full link plus every
// delta after it) through the chain-digest verifier, so their data dirs
// restart, and pruning drops the chain once keepChains newer full
// checkpoints exist.
const (
	ckptPrefix    = "ckpt-"
	ckptFullSufx  = "-full"
	ckptDeltaSufx = "-delta"
	ckptTmpSufx   = ".tmp"

	// keepChains bounds the checkpoint history to the last two chains.
	keepChains = 2
)

// snapStore is the disk checkpoint store. Callers serialize access.
type snapStore struct {
	dir    string
	fsync  bool
	newest uint64      // newest stored checkpoint instance (0 = none)
	m      diskMetrics // set by OpenDisk; zero value = disabled
}

// openSnapStore scans dir for existing checkpoints and clears stale temp
// files.
func openSnapStore(dir string, fsync bool) (*snapStore, error) {
	s := &snapStore{dir: dir, fsync: fsync}
	files, err := s.list()
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		if f.instance > s.newest {
			s.newest = f.instance
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: scanning snapshots: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ckptTmpSufx) {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return s, nil
}

// ckptFile is one parsed checkpoint filename.
type ckptFile struct {
	name     string
	instance uint64
	full     bool
}

// list returns every checkpoint file sorted by instance ascending.
func (s *snapStore) list() ([]ckptFile, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: scanning snapshots: %w", err)
	}
	files := make([]ckptFile, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, ckptPrefix) {
			continue
		}
		rest := strings.TrimPrefix(name, ckptPrefix)
		full := strings.HasSuffix(rest, ckptFullSufx)
		delta := strings.HasSuffix(rest, ckptDeltaSufx)
		if !full && !delta {
			continue
		}
		rest = strings.TrimSuffix(strings.TrimSuffix(rest, ckptFullSufx), ckptDeltaSufx)
		var instance uint64
		if _, err := fmt.Sscanf(rest, "%020d", &instance); err != nil {
			continue
		}
		files = append(files, ckptFile{name: name, instance: instance, full: full})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].instance < files[j].instance })
	return files, nil
}

// save writes snap as a full checkpoint, atomically. Snapshots at or below
// the newest stored checkpoint are dropped.
func (s *snapStore) save(snap *snapshot.Snapshot) error {
	if s.newest != 0 && snap.LastInstance <= s.newest {
		return nil
	}
	var full snapshot.IncrementalEncoder // the zero value emits full links only
	if err := s.write(snap.LastInstance, full.Encode(snap)); err != nil {
		return err
	}
	s.newest = snap.LastInstance
	return s.prune()
}

// write puts one encoded full checkpoint on disk, atomically.
func (s *snapStore) write(instance uint64, c *snapshot.Checkpoint) error {
	enc := snapshot.AppendCheckpoint(make([]byte, 0, len(c.Payload)+128), c)
	size := uint64(len(enc))
	sum := sha256.Sum256(enc)
	enc = append(enc, sum[:]...)
	name := fmt.Sprintf("%s%020d%s", ckptPrefix, instance, ckptFullSufx)
	path := filepath.Join(s.dir, name)
	tmpPath := path + ckptTmpSufx
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: writing checkpoint: %w", err)
	}
	defer func() {
		if tmp != nil {
			_ = tmp.Close()
			_ = os.Remove(tmpPath)
		}
	}()
	if _, err := tmp.Write(enc); err != nil {
		return fmt.Errorf("storage: writing checkpoint: %w", err)
	}
	if s.fsync {
		if err := tmp.Sync(); err != nil {
			return fmt.Errorf("storage: checkpoint fsync: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("storage: writing checkpoint: %w", err)
	}
	tmp = nil
	if err := os.Rename(tmpPath, path); err != nil {
		return fmt.Errorf("storage: checkpoint rename: %w", err)
	}
	s.m.ckptFullBytes.Add(size)
	return syncDir(s.dir, s.fsync)
}

// prune deletes checkpoints older than the keepChains-th newest full
// checkpoint (an older writer's delta is useless without its chain, so
// chains are the retention unit).
func (s *snapStore) prune() error {
	files, err := s.list()
	if err != nil {
		return err
	}
	fulls := 0
	for _, f := range files {
		if f.full {
			fulls++
		}
	}
	if fulls <= keepChains {
		return nil
	}
	drop := fulls - keepChains
	var cutoff uint64
	seen := 0
	for _, f := range files {
		if !f.full {
			continue
		}
		seen++
		if seen == drop+1 {
			cutoff = f.instance
			break
		}
	}
	for _, f := range files {
		if f.instance < cutoff {
			_ = os.Remove(filepath.Join(s.dir, f.name))
		}
	}
	return nil
}

// readCheckpoint loads and verifies one checkpoint file.
func (s *snapStore) readCheckpoint(name string) (*snapshot.Checkpoint, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, fmt.Errorf("storage: reading checkpoint %s: %w", name, err)
	}
	if len(data) < sha256.Size {
		return nil, fmt.Errorf("storage: checkpoint %s truncated", name)
	}
	enc, footer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	sum := sha256.Sum256(enc)
	if subtle.ConstantTimeCompare(sum[:], footer) != 1 {
		return nil, fmt.Errorf("storage: checkpoint %s digest mismatch", name)
	}
	return snapshot.DecodeCheckpoint(enc)
}

// load reconstructs the newest verifiable snapshot: walk chains newest
// first — a full checkpoint, plus any delta links an older writer left
// after it — through the chain-digest verifier, and return the deepest
// link that verifies.
func (s *snapStore) load() (*snapshot.Snapshot, bool, error) {
	files, err := s.list()
	if err != nil {
		return nil, false, err
	}
	// Chain start indices (full checkpoints), newest first.
	starts := make([]int, 0, 4)
	for i, f := range files {
		if f.full {
			starts = append(starts, i)
		}
	}
	for chain := len(starts) - 1; chain >= 0; chain-- {
		start := starts[chain]
		var dec snapshot.IncrementalDecoder
		var best *snapshot.Snapshot
		for i := start; i < len(files); i++ {
			if i > start && files[i].full {
				break // the next chain starts here; its links verified already
			}
			c, err := s.readCheckpoint(files[i].name)
			if err != nil {
				break // rotted link: the chain ends at the previous one
			}
			snap, err := dec.Apply(c)
			if err != nil {
				break
			}
			best = snap
		}
		if best != nil {
			return best, true, nil
		}
	}
	return nil, false, nil
}
