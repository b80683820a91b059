package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int    // how many observations the value rests on (0 = a single reading)
	note    string // printed beside the value, e.g. a lowered percentile
	// segments holds the per-segment values a run's value is the median of.
	segments []float64
}

// endToEndNames lists the metrics a -trace 0 run reports, in order. They
// are the same on every workload and never zero.
var endToEndNames = []string{
	"setup_s", "op_p50_ms", "sat_ops_per_s", "cpu_ms_per_kop", "rss_peak_mb",
}

// opSummary collects, for the paced phase, due → committed of the writes
// and due → certified of the reads, in milliseconds, and counts failures
// over the timed phases.
type opSummary struct {
	writeMS, readMS      []float64
	lateMS               []float64 // due → sent, paced phase
	ingressMS            []float64 // sent → first QUEUED, traced ops
	firstMS, allMS       []float64 // due → applied on 1 / all live replicas, traced writes
	attempted, failed    int
	readRetries          int // READs sent again because no b+1 replies agreed, warm-up included
	satOps, satFirstHalf int // completions inside the saturation window / its untraced half
	satWrites            int
	satDone              []int64 // when each of the satOps completed
}

func (r *run) summariseOps(staleReads int) opSummary {
	var s opSummary
	res := &r.res
	ms := func(from, to int64) float64 { return float64(to-from) / 1e6 }
	for _, op := range r.ops() {
		if op.phase == phaseWarmup {
			continue
		}
		s.attempted++
		completed := op.quorum.Load()
		if op.spec.read {
			completed = op.done
		}
		if completed == 0 || op.errs.Load() > 0 {
			s.failed++
			continue
		}
		if op.phase == phaseSat {
			if completed >= res.satStart && completed < res.satEnd {
				s.satOps++
				s.satDone = append(s.satDone, completed)
				if !op.spec.read {
					s.satWrites++
				}
				if res.traceSplit != 0 && completed < res.traceSplit {
					s.satFirstHalf++
				}
			}
			continue
		}
		s.lateMS = append(s.lateMS, ms(op.due, op.sent))
		if op.spec.read {
			s.readMS = append(s.readMS, ms(op.due, op.done))
			continue
		}
		s.writeMS = append(s.writeMS, ms(op.due, completed))
		if op.traced {
			if q := op.queued.Load(); q != 0 {
				s.ingressMS = append(s.ingressMS, ms(op.sent, q))
			}
			s.firstMS = append(s.firstMS, ms(op.due, op.first.Load()))
			if all := op.all.Load(); all != 0 {
				s.allMS = append(s.allMS, ms(op.due, all))
			}
		}
	}
	for _, cl := range r.clients {
		s.readRetries += int(cl.readRetries.Load())
	}
	unissued := int(r.unissued.Load())
	s.attempted += unissued
	s.failed += unissued + staleReads
	return s
}

func tailNote(d dist) string {
	if d.tailQ == 0.99 || d.n == 0 {
		return ""
	}
	return fmt.Sprintf("p%g: too few samples for p99", d.tailQ*100)
}

// cpuAt interpolates the process's CPU time at instant t between the
// samples around it.
func cpuAt(samples []cpuSample, t int64) float64 {
	i := sort.Search(len(samples), func(k int) bool { return samples[k].at >= t })
	switch {
	case i == 0:
		return samples[0].ms
	case i == len(samples):
		return samples[len(samples)-1].ms
	}
	lo, hi := samples[i-1], samples[i]
	return lo.ms + (hi.ms-lo.ms)*float64(t-lo.at)/float64(hi.at-lo.at)
}

// sustained computes the saturation phase's two rates over the time the
// cluster was in service: operations completed per second, and milliseconds
// of CPU time per thousand operations completed. A gap of more than
// outageGap between completions is an outage — the cluster wedged until
// StallTimeout fired — and is left out of both, time and CPU, and reported
// on its own: one outage in an 11 s phase is a fifth of the whole-phase
// quotient, and whether a run has one is a coin the run tosses, not a
// property of the code (README.md, findings).
func sustained(start, end int64, samples []cpuSample, done []int64) (opsPerS, cpuMSPerKop float64, outage int64) {
	if len(done) == 0 || len(samples) == 0 {
		return 0, 0, end - start
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	cpu := cpuAt(samples, end) - cpuAt(samples, start)
	last := start
	for _, t := range append(done, end) {
		if t-last > int64(outageGap) {
			outage += t - last
			cpu -= cpuAt(samples, t) - cpuAt(samples, last)
		}
		last = t
	}
	service := float64(end-start-outage) / 1e9
	if service <= 0 {
		return 0, 0, outage
	}
	return float64(len(done)) / service, cpu / (float64(len(done)) / 1000), outage
}

// endToEnd computes the metrics a user of the replicated store would see.
func (r *run) endToEnd(s opSummary) []metric {
	res := &r.res
	all := summarise(append(append([]float64(nil), s.writeMS...), s.readMS...))
	opsPerS, perKop, outage := sustained(res.satStart, res.satEnd, res.satCPU, s.satDone)
	outageNote := ""
	if outage > 0 {
		outageNote = fmt.Sprintf("%.2f s of outage left out", float64(outage)/1e9)
	}
	return []metric{
		{name: "setup_s", unit: "s", value: median(res.setups), samples: len(res.setups)},
		{name: "op_p50_ms", unit: "ms", value: all.p50, samples: all.n},
		{name: "sat_ops_per_s", unit: "ops/s", value: opsPerS, samples: s.satOps, note: outageNote},
		{name: "cpu_ms_per_kop", unit: "ms", value: perKop, samples: s.satOps},
		{name: "rss_peak_mb", unit: "MiB", value: res.rssPeakMB},
	}
}

// combine folds the segments' metric lists (same names, same order) into
// the run's: each value is the median over the segments. Two metrics are
// readings of the whole process rather than of one cluster and are taken as
// such: setup_s is the median over every set-up of the run, and the peak
// resident set only ever grows, so the last segment's reading is the run's.
func combine(parts [][]metric, setups []float64) []metric {
	out := make([]metric, len(parts[0]))
	for i, first := range parts[0] {
		m := metric{name: first.name, unit: first.unit}
		vals := make([]float64, len(parts))
		for p, part := range parts {
			vals[p] = part[i].value
			m.samples += part[i].samples
			if part[i].note != "" {
				m.note = part[i].note
			}
		}
		switch first.name {
		case "setup_s":
			m.value, m.samples = median(setups), len(setups)
		case "rss_peak_mb":
			m.value = vals[len(vals)-1]
		default:
			m.value = median(vals)
		}
		if len(parts) > 1 && first.name != "rss_peak_mb" && first.name != "setup_s" {
			m.segments = vals
		}
		out[i] = m
	}
	return out
}

// printMetrics writes the human-readable table.
func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "%s\n", title)
	for _, m := range ms {
		line := fmt.Sprintf("  %-34s %14.4f %-6s", m.name, m.value, m.unit)
		if m.samples > 0 {
			line += fmt.Sprintf(" n=%d", m.samples)
		}
		if len(m.segments) > 0 {
			line += fmt.Sprintf(" segments=%.4g", m.segments)
		}
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}
