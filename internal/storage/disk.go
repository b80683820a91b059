package storage

import (
	"fmt"
	"os"
	"sync"

	"genconsensus/internal/model"
	"genconsensus/internal/obs"
	"genconsensus/internal/snapshot"
)

// DiskConfig parameterizes a Disk backend. The checkpoint layout is not
// configurable: every checkpoint is written whole, and the last two are
// kept.
type DiskConfig struct {
	// Dir is this replica's data directory (created if missing). One
	// replica per directory.
	Dir string
	// Fsync makes appends and checkpoint writes durable against power
	// loss. Off, writes still reach the files (and survive a process
	// restart) but ride the OS page cache.
	Fsync bool
	// FsyncBatch amortizes fsync over that many WAL appends (default 1:
	// every append). Larger batches trade the last FsyncBatch-1 decisions
	// under power loss for an order of magnitude of append throughput.
	FsyncBatch int
	// Logf receives recovery notices, e.g. torn-tail truncations (nil =
	// silent).
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives the backend's instrument set (WAL
	// appends and bytes, fsync latency, truncation rewrites, checkpoint
	// bytes), named under MetricsPrefix. Nil disables metrics.
	Metrics *obs.Registry
	// MetricsPrefix namespaces this backend's metrics (a node passes "g0.").
	// Empty is fine.
	MetricsPrefix string
}

// Disk is the durable Backend: a WAL file plus a checkpoint directory.
// Every call runs to completion under one mutex, WAL truncation included:
// when TruncateWAL returns, the log file holds only the surviving records.
type Disk struct {
	mu     sync.Mutex
	wal    *wal
	snaps  *snapStore
	closed bool
}

// OpenDisk opens (or initializes) a replica's data directory, recovering
// the WAL — validating every record's CRC and truncating a torn tail — and
// indexing the stored checkpoints.
func OpenDisk(cfg DiskConfig) (*Disk, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("storage: DiskConfig.Dir is required")
	}
	if cfg.FsyncBatch < 1 {
		cfg.FsyncBatch = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating data dir: %w", err)
	}
	m := resolveDiskMetrics(cfg.Metrics, cfg.MetricsPrefix)
	w, err := openWAL(cfg.Dir, cfg.Fsync, cfg.FsyncBatch)
	if err != nil {
		return nil, err
	}
	w.m = m
	if w.tornBytes > 0 {
		cfg.Logf("storage: %s: discarded %d torn trailing bytes", cfg.Dir, w.tornBytes)
	}
	s, err := openSnapStore(cfg.Dir, cfg.Fsync)
	if err != nil {
		_ = w.close()
		return nil, err
	}
	s.m = m
	return &Disk{wal: w, snaps: s}, nil
}

// AppendWAL implements Backend.
func (d *Disk) AppendWAL(instance uint64, value model.Value) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.wal.append(instance, value)
}

// ReplayWAL implements Backend.
func (d *Disk) ReplayWAL(fn func(instance uint64, value model.Value) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.wal.replay(fn)
}

// TruncateWAL implements Backend: it rewrites the log as the records above
// the watermark before returning.
func (d *Disk) TruncateWAL(through uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.wal.truncate(through)
}

// SaveSnapshot implements Backend.
func (d *Disk) SaveSnapshot(snap *snapshot.Snapshot) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.snaps.save(snap)
}

// LoadSnapshot implements Backend.
func (d *Disk) LoadSnapshot() (*snapshot.Snapshot, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, false, ErrClosed
	}
	return d.snaps.load()
}

// Sync flushes the WAL appends a batch has not yet synced (FsyncBatch > 1)
// to stable storage.
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.wal.sync()
}

// Close implements Backend.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.wal.close()
}

// WALInstances reports how many instances the WAL retains (tests, metrics).
func (d *Disk) WALInstances() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.wal.have)
}
