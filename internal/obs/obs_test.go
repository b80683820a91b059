package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentInstruments hammers one counter, gauge and histogram from
// many goroutines — the -race run is the point — and checks the totals.
func TestConcurrentInstruments(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(uint64(i))
				// Resolving concurrently with updates must also be safe.
				if i%100 == 0 {
					reg.Counter("c").Add(0)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Load(); got != workers*per {
		t.Errorf("gauge = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	wantSum := uint64(workers * per * (per - 1) / 2)
	if got := h.Sum(); got != wantSum {
		t.Errorf("histogram sum = %d, want %d", got, wantSum)
	}
}

// TestNilSafety exercises the disabled mode: nil registry, nil
// instruments, nil event log — every call must be a no-op, not a panic.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("x")
	h := reg.Histogram("x")
	reg.GaugeFunc("x", func() int64 { return 1 })
	c.Inc()
	c.Add(3)
	g.Set(5)
	g.Add(1)
	h.Observe(9)
	h.ObserveSince(time.Now())
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Sum() != 0 ||
		h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil instruments must load as zero")
	}
	if reg.Snapshot() != nil || reg.CounterValue("x") != 0 {
		t.Error("nil registry must snapshot empty")
	}
	var l *EventLog
	l.Emit("kind", "k", "v")
	if err := l.Close(); err != nil {
		t.Errorf("nil event log close: %v", err)
	}
}

// TestHistogramQuantiles checks the log2 bucket approximation: quantiles
// come back as the upper bound of the bucket holding the rank.
func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 90; i++ {
		h.Observe(100) // bucket 7: [64, 128)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100000) // bucket 17: [65536, 131072)
	}
	if got := h.Quantile(0.50); got != 127 {
		t.Errorf("p50 = %d, want 127", got)
	}
	if got := h.Quantile(0.99); got != 131071 {
		t.Errorf("p99 = %d, want 131071", got)
	}
	if mean := h.Mean(); mean < 10000 || mean > 11000 {
		t.Errorf("mean = %f, want ~10090", mean)
	}
	if h.Quantile(1.0) != 131071 {
		t.Errorf("p100 = %d, want 131071", h.Quantile(1.0))
	}
}

// TestSnapshotAndRender checks the flattened snapshot and both render
// formats, which dump it as it is: no synthetic keys.
func TestSnapshotAndRender(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("g0.smr.commits").Add(10)
	reg.Counter("transport.frames_out").Add(5)
	reg.Gauge("g0.node.inflight").Set(2)
	reg.GaugeFunc("live", func() int64 { return 77 })
	reg.Histogram("g0.node.commit_ns").Observe(1000)

	stats := reg.Snapshot()
	byName := make(map[string]float64, len(stats))
	for _, s := range stats {
		byName[s.Name] = s.Value
	}
	if byName["g0.smr.commits"] != 10 {
		t.Errorf("g0.smr.commits = %v, want 10", byName["g0.smr.commits"])
	}
	if byName["live"] != 77 {
		t.Errorf("live gauge func = %v, want 77", byName["live"])
	}
	if byName["g0.node.commit_ns.count"] != 1 {
		t.Errorf("histogram .count missing: %v", byName)
	}

	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(text.String(), "\n"); got != len(stats) {
		t.Errorf("WriteText wrote %d lines for %d stats:\n%s", got, len(stats), text.String())
	}
	if !strings.Contains(text.String(), "g0.smr.commits=10\n") {
		t.Errorf("WriteText missing counter:\n%s", text.String())
	}
	var js bytes.Buffer
	if err := reg.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"g0.smr.commits":10,`) {
		t.Errorf("WriteJSON missing counter:\n%s", js.String())
	}
	if strings.Contains(text.String()+js.String(), "total.") {
		t.Errorf("dump holds a synthetic total. key:\n%s%s", text.String(), js.String())
	}
}

// TestEventLogConcurrent emits from several goroutines into one log and
// checks every line decodes (the per-log mutex keeps lines untorn).
func TestEventLogConcurrent(t *testing.T) {
	var buf syncBuffer
	l := NewEventLog(&buf, 3)
	const workers, per = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Emit("tick", "w", w, "i", i)
			}
		}(w)
	}
	wg.Wait()
	events, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != workers*per {
		t.Fatalf("decoded %d events, want %d", len(events), workers*per)
	}
	for _, e := range events {
		if e.Node != 3 || e.Kind != "tick" {
			t.Fatalf("bad event: %+v", e)
		}
	}
}

// TestReadEventsTornTail checks a torn final line (crash mid-write) ends
// the stream without error and without losing the records before it.
func TestReadEventsTornTail(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf, 1)
	l.Emit("decide", "instance", 1)
	l.Emit("decide", "instance", 2)
	data := buf.Bytes()
	torn := append(append([]byte{}, data...), `{"ts":1,"wall":2,"nod`...)
	events, err := ReadEvents(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("decoded %d events, want 2 (torn tail dropped)", len(events))
	}
}

// TestReadEventsLegacyGroup: a line written while nodes ran several
// consensus groups still decodes, its "group" header dropped.
func TestReadEventsLegacyGroup(t *testing.T) {
	line := `{"ts":1,"wall":2,"node":3,"group":0,"kind":"decide","instance":4}` + "\n"
	events, err := ReadEvents(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("decoded %d events, want 1", len(events))
	}
	e := events[0]
	if e.Node != 3 || e.Kind != "decide" || e.Int("instance") != 4 || len(e.Fields) != 1 {
		t.Errorf("legacy line decoded as %+v", e)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer. EventLog serializes its own
// writes, but the test reads Bytes() after the fact, so belt and braces.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte{}, b.buf.Bytes()...)
}
