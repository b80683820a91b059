// Package obs is the cluster's zero-dependency observability layer: a
// metrics registry (atomic counters, gauges and fixed-bucket latency
// histograms, allocation-free on the hot path) plus a structured JSONL
// event log with a merge/summarize analyzer (see event.go, analyze.go and
// cmd/loganalyzer).
//
// Everything is nil-safe end to end: a nil *Registry hands out nil
// instruments, and every instrument method is a no-op on its nil receiver.
// Metrics-off mode is therefore literally "thread a nil registry" — the
// hot path pays one predicted branch, nothing else.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. The zero value is ready to
// use; a nil Counter ignores updates and loads as zero.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 (queue depths, in-flight counts). The zero
// value is ready to use; a nil Gauge ignores updates and loads as zero.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the value by d.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count: bucket i holds observations whose
// value has bit length i (i.e. v in [2^(i-1), 2^i)), so the full uint64
// range is covered with no per-observation allocation and no configuration.
// At nanosecond resolution bucket boundaries run from 1ns past 290 years.
const histBuckets = 64 + 1

// Histogram is a fixed-bucket log2 histogram. Observe is allocation-free
// and lock-free; quantiles are approximated from bucket boundaries at read
// time (within a factor of 2, which is plenty for latency triage). The
// zero value is ready to use; a nil Histogram ignores observations.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveSince records the nanoseconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(uint64(time.Since(start)))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile approximates the q-th quantile (0 < q <= 1) as the upper bound
// of the bucket containing it. Concurrent updates may skew a racing read by
// a bucket; the histogram is for triage, not billing.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	seen := uint64(0)
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen > rank {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1 // upper bound of values with bit length i
		}
	}
	return 1<<63 - 1
}

// Registry is a process-wide named-instrument store. Instruments are
// created on first use and live forever; hot paths resolve their
// instruments once at startup and update them lock-free from then on. A
// nil *Registry is the disabled registry: every getter returns nil and the
// nil instruments ignore updates.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() int64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() int64),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// GaugeFunc registers a live gauge read at snapshot time (queue lengths,
// in-flight counts — values something else already tracks). The function
// must be safe for concurrent use.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// Stat is one flattened metric sample. Histograms expand into .count,
// .sum, .mean, .p50 and .p99 stats.
type Stat struct {
	Name  string
	Value float64
}

// Snapshot flattens every instrument into sorted (name, value) pairs.
func (r *Registry) Snapshot() []Stat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	stats := make([]Stat, 0, len(r.counters)+len(r.gauges)+len(r.funcs)+5*len(r.hists))
	for name, c := range r.counters {
		stats = append(stats, Stat{name, float64(c.Load())})
	}
	for name, g := range r.gauges {
		stats = append(stats, Stat{name, float64(g.Load())})
	}
	for name, fn := range r.funcs {
		stats = append(stats, Stat{name, float64(fn())})
	}
	for name, h := range r.hists {
		stats = append(stats,
			Stat{name + ".count", float64(h.Count())},
			Stat{name + ".sum", float64(h.Sum())},
			Stat{name + ".mean", h.Mean()},
			Stat{name + ".p50", float64(h.Quantile(0.50))},
			Stat{name + ".p99", float64(h.Quantile(0.99))},
		)
	}
	r.mu.Unlock()
	sort.Slice(stats, func(i, j int) bool { return stats[i].Name < stats[j].Name })
	return stats
}

// CounterValue reads one counter by name without creating it (tests,
// drivers summing per-group stats).
func (r *Registry) CounterValue(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	return c.Load()
}

// formatValue renders a stat value without float noise: integral values
// print as integers.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}

// WriteText writes the snapshot as key=value lines — the STATS verb's wire
// format.
func (r *Registry) WriteText(w io.Writer) error {
	for _, s := range r.Snapshot() {
		if _, err := fmt.Fprintf(w, "%s=%s\n", s.Name, formatValue(s.Value)); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes the snapshot as one flat JSON object — the expvar-style
// HTTP endpoint's format.
func (r *Registry) WriteJSON(w io.Writer) error {
	var b strings.Builder
	b.WriteByte('{')
	for i, s := range r.Snapshot() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(s.Name))
		b.WriteByte(':')
		b.WriteString(formatValue(s.Value))
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
