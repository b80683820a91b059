package main

import (
	"fmt"
	"path/filepath"
	"strings"
)

// perLayerNames lists the metrics a -trace 1 run reports, in order (units by
// unitOf). The README says which end-to-end metric each should move.
var perLayerNames = []string{
	// The issue's end-to-end latency metrics, demoted to reported-only (see
	// README.md): the 99th percentiles are too unsteady run to run to carry
	// a bound, the read metrics are absent from four of the five workloads,
	// and op_p50_ms stands in for write_p50_ms.
	"write_p50_ms", "write_p99_ms", "read_p50_ms", "read_p99_ms",
	// Layer replay trace: self time per replayed operation.
	"auth.session_check_ns", "auth.command_verify_ns",
	"wire.command_codec_ns", "wire.envelope_codec_ns", "wire.session_frame_ns",
	"smr.batch_codec_ns", "smr.choose_ns", "smr.commitqueue_deliver_ns", "flv.eval_ns", "core.phase_ns",
	"kv.apply_ns", "kv.get_ns", "kv.snapshot_state_ns",
	"snapshot.digest_ns", "snapshot.encode_ns", "snapshot.delta_encode_ns", "smr.checkpoint_ns",
	"storage.wal_append_ns", "storage.save_snapshot_ns", "readq.certify_ns",
	// Cluster counters over the saturation phase.
	"smr.batch_size_mean", "smr.instances_per_kop", "smr.dup_commit_share", "smr.checkpoints_per_kop",
	"storage.wal_fsync_p50_ns", "storage.wal_appends_per_kop", "storage.wal_bytes_per_op",
	"storage.ckpt_bytes_per_kop", "storage.fsync_probe_us",
	"transport.frames_per_op", "transport.bytes_per_op", "transport.frames_per_instance",
	"transport.write_batch_frames_mean", "transport.frames_dropped",
	"node.commit_ns_p50", "node.commit_ns_p99", "node.stalls", "node.catchups", "kv.read_wait_ns_p50",
	// Client-side decomposition of the paced phase's latency (medians).
	"node.ingress_ms", "node.commit_first_ms", "node.commit_quorum_ms", "node.commit_all_ms",
	// Health of the instrument.
	"loadgen.late_p99_ms", "loadgen.observe_granularity_ms", "loadgen.max_commit_gap_ms", "loadgen.outage_ms",
	"loadgen.trace_overhead_pct", "loadgen.span_overhead_ns",
}

// replayMetrics maps a per-layer metric to the replay span it is the self
// time of.
var replayMetrics = map[string]string{
	"auth.session_check_ns": "auth.session_check", "auth.command_verify_ns": "auth.command_verify",
	"wire.command_codec_ns": "wire.command_codec", "wire.envelope_codec_ns": "wire.envelope_codec",
	"wire.session_frame_ns": "wire.session_frame", "smr.batch_codec_ns": "smr.batch_codec",
	"smr.choose_ns": "smr.choose", "smr.commitqueue_deliver_ns": "smr.commitqueue_deliver",
	"flv.eval_ns": "flv.eval", "core.phase_ns": "core.phase", "kv.apply_ns": "kv.apply",
	"kv.get_ns": "kv.get", "kv.snapshot_state_ns": "kv.snapshot_state",
	"snapshot.digest_ns": "snapshot.digest", "snapshot.encode_ns": "snapshot.encode",
	"snapshot.delta_encode_ns": "snapshot.delta_encode", "smr.checkpoint_ns": "smr.checkpoint",
	"storage.wal_append_ns": "storage.wal_append", "storage.save_snapshot_ns": "storage.save_snapshot",
	"readq.certify_ns": "readq.certify",
}

func unitOf(name string) string {
	switch {
	case hasSuffix(name, "_ns", "_ns_p50", "_ns_p99"):
		return "ns"
	case hasSuffix(name, "_ms"):
		return "ms"
	case hasSuffix(name, "_us"):
		return "us"
	case hasSuffix(name, "_pct"):
		return "%"
	case hasSuffix(name, "_share"):
		return "ratio"
	case hasSuffix(name, "bytes_per_op", "bytes_per_kop"):
		return "B"
	default:
		return "count"
	}
}

func hasSuffix(s string, suffixes ...string) bool {
	for _, suf := range suffixes {
		if strings.HasSuffix(s, suf) {
			return true
		}
	}
	return false
}

// counterDeltas sums, over the replicas alive at both ends of the saturation
// phase, how far each registry stat moved across it, and averages the
// cumulative quantile stats. live is the number of replicas summed over.
func (r *run) counterDeltas() (delta, mean map[string]float64, live int) {
	delta = make(map[string]float64)
	mean = make(map[string]float64)
	for i := range r.res.after {
		before, after := r.res.before[i], r.res.after[i]
		if before == nil || after == nil {
			continue
		}
		live++
		for name, v := range after {
			delta[name] += v - before[name]
			mean[name] += v
		}
		delta["checkpoints"] += float64(r.res.ckptAft[i] - r.res.ckptBefore[i])
	}
	for name := range mean {
		mean[name] /= float64(live)
	}
	return delta, mean, live
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes the -trace 1 metrics: the layer replay trace, the
// cluster counters and the client-side decomposition.
func (r *run) perLayer(s opSummary) ([]metric, error) {
	values := make(map[string]float64)
	samples := make(map[string]int)
	notes := make(map[string]string)

	// Layer replay trace.
	input := replayInput(r.ops())
	spans, err := replayLayers(r.w, input, r.outDir)
	if err != nil {
		return nil, err
	}
	self := selfTimes(spans)
	for name, spanName := range replayMetrics {
		values[name] = ratio(float64(self[spanName]), float64(len(input)))
		samples[name] = len(input)
	}
	path := filepath.Join(r.outDir, "trace-"+r.w.name+".json")
	if err := writeTrace(path, append(spans, r.liveSpans(2000, len(spans))...)); err != nil {
		return nil, err
	}
	fmt.Printf("  trace: %d spans in %s\n", len(spans), path)

	// Cluster counters.
	d, m, live := r.counterDeltas()
	kops := float64(s.satOps) / 1000
	perReplica := func(name string) float64 { return ratio(d[name], float64(live)) }
	values["smr.batch_size_mean"] = ratio(d["g0.smr.batch_size.sum"], d["g0.smr.batch_size.count"])
	values["smr.instances_per_kop"] = ratio(perReplica("g0.smr.decisions"), kops)
	values["smr.dup_commit_share"] = ratio(perReplica("g0.smr.commits")-float64(s.satWrites), float64(s.satWrites))
	values["smr.checkpoints_per_kop"] = ratio(perReplica("checkpoints"), kops)
	values["storage.wal_fsync_p50_ns"] = m["g0.storage.wal.fsync_ns.p50"]
	values["storage.wal_appends_per_kop"] = ratio(perReplica("g0.storage.wal.appends"), kops)
	values["storage.wal_bytes_per_op"] = ratio(perReplica("g0.storage.wal.append_bytes"), float64(s.satOps))
	values["storage.ckpt_bytes_per_kop"] = ratio(perReplica("g0.storage.ckpt.full_bytes")+perReplica("g0.storage.ckpt.delta_bytes"), kops)
	values["storage.fsync_probe_us"] = r.res.fsyncProbeUS
	values["transport.frames_per_op"] = ratio(d["transport.frames_out"], float64(s.satOps))
	values["transport.bytes_per_op"] = ratio(d["transport.bytes_out"], float64(s.satOps))
	values["transport.frames_per_instance"] = ratio(d["transport.frames_out"], perReplica("g0.smr.decisions"))
	values["transport.write_batch_frames_mean"] = ratio(d["transport.write_batch_frames.sum"], d["transport.write_batch_frames.count"])
	values["transport.frames_dropped"] = d["transport.frames_dropped"]
	values["node.commit_ns_p50"] = m["g0.node.commit_ns.p50"]
	values["node.commit_ns_p99"] = m["g0.node.commit_ns.p99"]
	values["node.stalls"] = d["g0.node.stalls"]
	values["node.catchups"] = d["g0.node.catchups"]
	values["kv.read_wait_ns_p50"] = m["g0.kv.read_wait_ns.p50"]

	// Client-side view of the paced phase.
	dist := func(name string, xs []float64, tail bool) {
		d := summarise(xs)
		values[name], samples[name] = d.p50, d.n
		if tail {
			values[name], notes[name] = d.tail, tailNote(d)
		}
	}
	dist("write_p50_ms", s.writeMS, false)
	dist("write_p99_ms", s.writeMS, true)
	dist("read_p50_ms", s.readMS, false)
	dist("read_p99_ms", s.readMS, true)
	dist("node.ingress_ms", s.ingressMS, false)
	dist("node.commit_first_ms", s.firstMS, false)
	dist("node.commit_quorum_ms", s.writeMS, false) // every paced op of a traced run is traced
	dist("node.commit_all_ms", s.allMS, false)

	// The instrument itself.
	dist("loadgen.late_p99_ms", s.lateMS, true)
	if values["loadgen.late_p99_ms"] > 1 {
		notes["loadgen.late_p99_ms"] = "generator ran more than 1 ms late: treat the paced latencies with suspicion"
	}
	dist("loadgen.observe_granularity_ms", r.obs.tickGaps(), true)
	values["loadgen.max_commit_gap_ms"] = float64(r.obs.maxCommitGap) / 1e6
	_, _, outage := sustained(r.res.satStart, r.res.satEnd, r.res.satCPU, s.satDone)
	values["loadgen.outage_ms"] = float64(outage) / 1e6
	if r.res.traceSplit != 0 {
		untraced := ratio(float64(s.satFirstHalf), float64(r.res.traceSplit-r.res.satStart))
		traced := ratio(float64(s.satOps-s.satFirstHalf), float64(r.res.satEnd-r.res.traceSplit))
		values["loadgen.trace_overhead_pct"] = 100 * ratio(untraced-traced, untraced)
	}
	values["loadgen.span_overhead_ns"] = spanOverheadNS()

	ms := make([]metric, 0, len(perLayerNames))
	for _, name := range perLayerNames {
		ms = append(ms, metric{name: name, unit: unitOf(name), value: values[name], samples: samples[name], note: notes[name]})
	}
	return ms, nil
}

// liveSpans renders the first n traced operations of the paced phase as
// spans: op (due → applied everywhere / certified) over loadgen.late
// (due → sent), commit (sent → b+1 replicas) with node.ingress inside it,
// and follower_lag (b+1 → all). base is where the spans will sit in the
// trace file, which is what their parent indices count from.
func (r *run) liveSpans(n, base int) []span {
	var spans []span
	id := int64(0)
	for _, op := range r.ops() {
		if op.phase != phasePaced || !op.traced || len(spans) >= 5*n {
			continue
		}
		end := op.done
		if !op.spec.read {
			end = op.all.Load()
			if end == 0 {
				end = op.quorum.Load()
			}
		}
		if end == 0 {
			continue
		}
		id++
		root := base + len(spans)
		spans = append(spans,
			span{Name: "live.op", Start: op.due, End: end, Parent: -1, Op: id},
			span{Name: "loadgen.late", Start: op.due, End: op.sent, Parent: root, Op: id})
		if op.spec.read {
			spans = append(spans, span{Name: "live.read", Start: op.sent, End: end, Parent: root, Op: id})
			continue
		}
		q := op.quorum.Load()
		commit := base + len(spans)
		spans = append(spans, span{Name: "live.commit", Start: op.sent, End: q, Parent: root, Op: id})
		if queued := op.queued.Load(); queued != 0 && queued <= q {
			spans = append(spans, span{Name: "node.ingress", Start: op.sent, End: queued, Parent: commit, Op: id})
		}
		spans = append(spans, span{Name: "live.follower_lag", Start: q, End: end, Parent: root, Op: id})
	}
	return spans
}
