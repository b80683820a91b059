package smr

import "genconsensus/internal/obs"

// Metrics is a replica's instrument set. The zero value (all-nil
// instruments) is the disabled state — every update is a no-op branch —
// so the sim and uninstrumented callers pay nothing for the instrumentation.
// Install with SetMetrics before instances run.
type Metrics struct {
	// Proposals counts non-NoOp proposals built; BatchSize observes the
	// commands each one carried.
	Proposals *obs.Counter
	BatchSize *obs.Histogram
	// Decisions counts committed instances; Commits counts unique non-NoOp
	// commands applied (a command a pipelined peer legitimately re-decided
	// is counted once, matching the state machine's at-most-once apply).
	Decisions *obs.Counter
	Commits   *obs.Counter
	// Duplicates counts the other non-NoOp decided commands, which applied
	// nothing new (already applied, or not verifying).
	Duplicates *obs.Counter
	// ReplayRejects counts ingress rejections of already-committed
	// (client, seq) identities; EquivEvictions counts submissions dropped
	// because a different payload already holds the queued identity (an
	// equivocating client double-signing one sequence number).
	ReplayRejects  *obs.Counter
	EquivEvictions *obs.Counter
	// CheckpointNS observes each checkpoint's share of the commit path
	// (the mark, compaction and, with a durable backend, the
	// encode and save at the boundaries that persist). SnapshotMaterialized counts encodings of a
	// checkpoint into snapshot bytes and digest — at most one per
	// checkpoint, on demand — and SnapshotMaterializeNS what each cost.
	CheckpointNS          *obs.Histogram
	SnapshotMaterialized  *obs.Counter
	SnapshotMaterializeNS *obs.Histogram
}

// MetricsFor resolves the replica instrument set from a registry under the
// given name prefix (e.g. "g0."). A nil registry yields the disabled set.
func MetricsFor(reg *obs.Registry, prefix string) Metrics {
	return Metrics{
		Proposals:      reg.Counter(prefix + "smr.proposals"),
		BatchSize:      reg.Histogram(prefix + "smr.batch_size"),
		Decisions:      reg.Counter(prefix + "smr.decisions"),
		Commits:        reg.Counter(prefix + "smr.commits"),
		Duplicates:     reg.Counter(prefix + "smr.duplicates"),
		ReplayRejects:  reg.Counter(prefix + "smr.replay_rejects"),
		EquivEvictions: reg.Counter(prefix + "smr.equivocation_evictions"),

		CheckpointNS:          reg.Histogram(prefix + "smr.checkpoint_ns"),
		SnapshotMaterialized:  reg.Counter(prefix + "smr.snapshot_materialized"),
		SnapshotMaterializeNS: reg.Histogram(prefix + "smr.snapshot_materialize_ns"),
	}
}

// SetMetrics installs the replica's instrument set. Call before instances
// run; the zero value disables instrumentation.
func (r *Replica) SetMetrics(m Metrics) {
	r.mu.Lock()
	r.metrics = m
	r.mu.Unlock()
}

// instruments returns the installed instrument set.
func (r *Replica) instruments() Metrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.metrics
}
