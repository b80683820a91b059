package storage

import "genconsensus/internal/obs"

// diskMetrics is a Disk backend's resolved instrument set. The zero value
// (nil instruments) is the disabled mode: every update is a predicted
// no-op branch, so un-instrumented backends pay nothing on the append
// path.
type diskMetrics struct {
	walAppends *obs.Counter
	walBytes   *obs.Counter
	// walFsyncNS observes the latency of each WAL fsync in nanoseconds —
	// the durability cost the FsyncBatch knob amortizes.
	walFsyncNS *obs.Histogram
	// compactions counts WAL truncation rewrites; the metric keeps its
	// name so STATS readers need no change.
	compactions *obs.Counter
	// ckptFullBytes counts the bytes of every checkpoint file written.
	ckptFullBytes *obs.Counter
}

// resolveDiskMetrics builds the instrument set from reg under the given
// name prefix (e.g. "g0."). A nil reg yields the disabled zero set.
func resolveDiskMetrics(reg *obs.Registry, prefix string) diskMetrics {
	var m diskMetrics
	if reg == nil {
		return m
	}
	m.walAppends = reg.Counter(prefix + "storage.wal.appends")
	m.walBytes = reg.Counter(prefix + "storage.wal.append_bytes")
	m.walFsyncNS = reg.Histogram(prefix + "storage.wal.fsync_ns")
	m.compactions = reg.Counter(prefix + "storage.wal.compactions")
	m.ckptFullBytes = reg.Counter(prefix + "storage.ckpt.full_bytes")
	return m
}
