package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"genconsensus/internal/readq"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {0.999, 100}, {0, 1}, {1, 100}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %g, want 0", got)
	}
}

// A percentile is reported only with ten samples beyond it.
func TestSupportedQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10_000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.9}, {100, 0.9}, {99, 0.75}, {40, 0.75}, {39, 0.5}, {1, 0.5}} {
		if got := supportedQuantile(c.n, 0.99); got != c.want {
			t.Errorf("supportedQuantile(%d, 0.99) = %g, want %g", c.n, got, c.want)
		}
	}
	if got := supportedQuantile(1_000_000, 0.99); got != 0.99 {
		t.Errorf("a large sample must not raise the percentile asked for: got %g", got)
	}
	d := summarise(make([]float64, 180))
	if d.tailQ != 0.9 || tailNote(d) == "" {
		t.Errorf("180 samples: tail percentile %g with note %q, want 0.9 and a note", d.tailQ, tailNote(d))
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which the acceptance rule is written in.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if q1 != 1.25 || q2 != 3.5 || q3 != 5.75 {
		t.Errorf("quartiles(3,1,4,1,5,9,2,6) = %g %g %g, want 1.25 3.5 5.75", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
}

func TestValueRoundTrip(t *testing.T) {
	v := valueFor(99_999, 1234567)
	if len(v) != valueBytes {
		t.Fatalf("value is %d bytes, want %d", len(v), valueBytes)
	}
	key, ver, err := parseValue(v)
	if err != nil || key != 99_999 || ver != 1234567 {
		t.Errorf("parseValue(%q) = %d, %d, %v", v, key, ver, err)
	}
	if _, _, err := parseValue("v1"); err == nil {
		t.Error("a foreign value parsed")
	}
}

// The same seed gives the same inputs, another seed others; each key has
// one writer and its versions count up from 1.
func TestStreamReproducible(t *testing.T) {
	w, _ := findWorkload("mixed-read90")
	take := func(seed int64, client int) []opSpec {
		s := newOpStream(seed, client, w)
		ops := make([]opSpec, 5000)
		for i := range ops {
			ops[i] = s.next()
		}
		return ops
	}
	a, b := take(7, 0), take(7, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed and client gave two different streams")
	}
	if reflect.DeepEqual(a, take(8, 0)) || reflect.DeepEqual(a, take(7, 1)) {
		t.Fatal("another seed or client gave the same stream")
	}
	reads := 0
	versions := make(map[int]uint32)
	for _, op := range a {
		if op.read {
			reads++
			continue
		}
		if op.key%numClients != 0 {
			t.Fatalf("client 0 wrote key %d, which belongs to another client", op.key)
		}
		versions[op.key]++
		if op.version != versions[op.key] {
			t.Fatalf("key %d: version %d follows %d", op.key, op.version, versions[op.key]-1)
		}
	}
	if share := float64(reads) / float64(len(a)); share < 0.87 || share > 0.93 {
		t.Errorf("read share %.3f, want about 0.90", share)
	}
}

// The open-loop schedule is a function of the rate alone: evenly spaced,
// the two clients interleaved.
func TestDueOffsets(t *testing.T) {
	const rate = 2500.0 // per client: one op every 400 µs
	for i := 0; i < 1000; i++ {
		if got, want := dueOffset(i, rate, 0), int64(i)*400_000; got != want {
			t.Fatalf("client 0 op %d due at %d ns, want %d", i, got, want)
		}
		if got, want := dueOffset(i, rate, 1), int64(i)*400_000+200_000; got != want {
			t.Fatalf("client 1 op %d due at %d ns, want %d", i, got, want)
		}
	}
}

// fakeRun builds a run whose single client issued the given ops.
func fakeRun(fill func(alloc func() *opRec)) *run {
	r := &run{}
	cl := &client{run: r}
	fill(cl.recs.alloc)
	r.clients = []*client{cl}
	return r
}

// Latency is timed from the instant an operation was due, lateness is what
// the generator added, and every kind of failure counts against attempts.
func TestSummariseOps(t *testing.T) {
	r := fakeRun(func(alloc func() *opRec) {
		ok := alloc() // due at 1 ms, sent 0.25 ms late, committed at 3 ms
		ok.phase, ok.due, ok.sent = phasePaced, 1_000_000, 1_250_000
		ok.quorum.Store(3_000_000)

		read := alloc() // due at 2 ms, certified at 2.5 ms
		read.spec.read, read.phase, read.due, read.sent, read.done = true, phasePaced, 2_000_000, 2_000_000, 2_500_000

		lost := alloc() // never committed
		lost.phase, lost.due, lost.sent = phasePaced, 3_000_000, 3_000_000

		refused := alloc() // committed, but a replica answered ERR
		refused.phase, refused.due, refused.sent = phasePaced, 4_000_000, 4_000_000
		refused.quorum.Store(5_000_000)
		refused.errs.Add(1)

		warm := alloc() // warm-up: not measured at all
		warm.phase = phaseWarmup

		inside := alloc() // saturation phase, committed inside the window
		inside.phase = phaseSat
		inside.quorum.Store(10_500_000)

		after := alloc() // saturation phase, committed in the drain
		after.phase = phaseSat
		after.quorum.Store(12_000_000)
	})
	r.res.satStart, r.res.satEnd = 10_000_000, 11_000_000
	r.unissued.Store(2)
	s := r.summariseOps(1)
	if s.attempted != 8 || s.failed != 5 {
		t.Errorf("attempted %d failed %d, want 8 (6 timed ops + 2 unsent) and 5 (lost, refused, 2 unsent, 1 stale read)", s.attempted, s.failed)
	}
	if !reflect.DeepEqual(s.writeMS, []float64{2}) {
		t.Errorf("write latencies %v, want [2]: due → committed, not sent → committed", s.writeMS)
	}
	if !reflect.DeepEqual(s.readMS, []float64{0.5}) {
		t.Errorf("read latencies %v, want [0.5]", s.readMS)
	}
	if !reflect.DeepEqual(s.lateMS, []float64{0.25, 0}) {
		t.Errorf("lateness %v, want [0.25 0]", s.lateMS)
	}
	if s.satOps != 1 || s.satWrites != 1 {
		t.Errorf("saturation ops %d (writes %d), want 1: only completions inside the window count", s.satOps, s.satWrites)
	}
}

// A run's metric is the median of its segments' values; set-up time is the
// median over every set-up of the run and the peak resident set, which only
// grows, is the last reading.
func TestCombineSegments(t *testing.T) {
	seg := func(p50, sat, rss float64) []metric {
		return []metric{
			{name: "setup_s", unit: "s", value: 9},
			{name: "op_p50_ms", unit: "ms", value: p50, samples: 10},
			{name: "sat_ops_per_s", unit: "ops/s", value: sat},
			{name: "rss_peak_mb", unit: "MiB", value: rss},
		}
	}
	got := combine([][]metric{seg(5, 100, 40), seg(30, 90, 50), seg(4, 95, 60)}, []float64{0.3, 0.1, 0.2, 0.4})
	want := map[string]float64{"setup_s": 0.25, "op_p50_ms": 5, "sat_ops_per_s": 95, "rss_peak_mb": 60}
	for _, m := range got {
		if m.value != want[m.name] {
			t.Errorf("%s = %g, want %g", m.name, m.value, want[m.name])
		}
	}
	if got[1].samples != 30 || got[0].samples != 4 {
		t.Errorf("samples: op_p50_ms %d, setup_s %d, want 30 and 4", got[1].samples, got[0].samples)
	}
	if one := combine([][]metric{seg(5, 100, 40)}, []float64{0.3}); one[1].value != 5 || one[0].value != 0.3 {
		t.Errorf("a one-segment run must report the segment's own values, got %+v", one)
	}
}

// The saturation phase's rates are taken over the time in service: a
// cluster that commits 1000 ops/s at 2 ms of CPU per op, wedged for two
// seconds of ten (no commits, the harness still burning CPU), reports those
// rates and a 2 s outage; the whole-phase quotients would be a fifth off.
func TestSustainedLeavesOutagesOut(t *testing.T) {
	var done []int64
	var samples []cpuSample
	cpu := 0.0
	for ms := int64(0); ms <= 10_000; ms++ {
		if ms%100 == 0 {
			samples = append(samples, cpuSample{at: ms * 1e6, ms: cpu})
		}
		if ms >= 4000 && ms < 6000 {
			cpu += 0.5
			continue
		}
		if ms < 10_000 {
			done = append(done, ms*1e6)
			cpu += 2
		}
	}
	ops, perKop, outage := sustained(0, 10_000e6, samples, done)
	if ops < 999 || ops > 1001 {
		t.Errorf("sustained rate %g ops/s, want 1000 (the whole-phase quotient is %g)", ops, float64(len(done))/10)
	}
	if perKop < 1995 || perKop > 2005 {
		t.Errorf("sustained CPU cost %g ms per 1000 ops, want 2000", perKop)
	}
	if outage < 2000e6 || outage > 2002e6 {
		t.Errorf("outage %d ns, want 2 s", outage)
	}
	// Without a gap the quotients are the whole phase's.
	ops, perKop, outage = sustained(0, 1000e6, []cpuSample{{0, 10}, {1000e6, 30}}, []int64{100e6, 500e6, 900e6, 950e6})
	if ops != 4 || perKop != 5000 || outage != 0 {
		t.Errorf("no outage: %g ops/s, %g ms/kop, outage %d; want 4, 5000, 0", ops, perKop, outage)
	}
}

func TestClassifyWriteReply(t *testing.T) {
	for reply, want := range map[string]replyClass{
		"QUEUED":                               replyQueued,
		"ERR replayed sequence":                replyBenign,
		"ERR duplicate identity":               replyBenign,
		"ERR session tag rejected":             replyError,
		"ERR session sequence not increasing":  replyError,
		"ERR inadmissible command":             replyError,
		"":                                     replyError,
		"VAL 0 12 v0000000001.0000001.xxxxxxx": replyError,
	} {
		if got := classifyWriteReply(reply); got != want {
			t.Errorf("classifyWriteReply(%q) = %d, want %d", reply, got, want)
		}
	}
}

// The window slides over finished ops only from its low end: a starved op
// keeps the client from running more than clientWindow ahead of it.
func TestWindowSlides(t *testing.T) {
	c := &client{freed: make(chan struct{}, 1)}
	ops := make([]*opRec, clientWindow)
	for i := range ops {
		if !c.windowOpen() {
			t.Fatalf("window shut after %d ops, want %d", i, clientWindow)
		}
		ops[i] = &opRec{index: c.next}
		c.next++
	}
	if c.windowOpen() {
		t.Fatal("window open with clientWindow ops outstanding")
	}
	for _, op := range ops[1:] { // everything but the oldest finishes
		c.finish(op)
	}
	if c.windowOpen() || c.base != 0 {
		t.Fatalf("window slid past an unfinished op (base %d)", c.base)
	}
	c.finish(ops[0])
	c.finish(ops[0]) // idempotent
	if c.base != clientWindow || !c.windowOpen() || !c.idle() {
		t.Fatalf("after the oldest op finished: base %d, want %d, open and idle", c.base, clientWindow)
	}
}

// A READ whose replies name more than b different values is sent again, up
// to maxReadRetries times, and only then counts as uncertified; a READ that
// b+1 replies agree on completes at once.
func TestReadRetry(t *testing.T) {
	c := &client{run: &run{}, freed: make(chan struct{}, 1), retry: make(chan *opRec, clientWindow)}
	op := &opRec{spec: opSpec{read: true, key: 7}}
	c.next = 1
	answer := func(versions ...uint32) {
		for i, v := range versions {
			op.answered++
			op.replies = append(op.replies, readq.Result{Instance: uint64(10 + i), Found: true, Value: valueFor(7, v)})
			c.noteReadReply(op, 1000)
		}
	}
	for round := 1; round <= maxReadRetries; round++ {
		answer(1, 2, 3, 4)
		if op.retries != round || op.answered != 0 || len(op.replies) != 0 || op.uncertified || op.finished {
			t.Fatalf("round %d: retries %d answered %d replies %d uncertified %v finished %v",
				round, op.retries, op.answered, len(op.replies), op.uncertified, op.finished)
		}
		if got := <-c.retry; got != op {
			t.Fatalf("round %d: the op was not queued for a retry", round)
		}
	}
	answer(1, 2, 3, 4)
	if !op.uncertified || !op.finished || op.done != 0 || len(c.retry) != 0 {
		t.Fatalf("after %d retries: uncertified %v finished %v done %d", maxReadRetries, op.uncertified, op.finished, op.done)
	}

	op = &opRec{spec: opSpec{read: true, key: 7}, index: 1}
	c.next = 2
	answer(1, 2, 2)
	if op.done != 1000 || op.readVersion != 2 || !op.finished || op.retries != 0 {
		t.Fatalf("two matching replies: done %d version %d finished %v retries %d", op.done, op.readVersion, op.finished, op.retries)
	}
}

// A span's self time is its duration minus what its direct children cover.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "deliver", Start: 0, End: 100, Parent: -1},
		{Name: "apply", Start: 10, End: 30, Parent: 0},
		{Name: "apply", Start: 30, End: 45, Parent: 0},
		{Name: "checkpoint", Start: 50, End: 90, Parent: 0},
		{Name: "snapshot_state", Start: 55, End: 85, Parent: 3},
		{Name: "deliver", Start: 100, End: 110, Parent: -1},
	}
	want := map[string]int64{"deliver": 100 - 20 - 15 - 40 + 10, "apply": 35, "checkpoint": 10, "snapshot_state": 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	tr := newTracer()
	tr.begin("outer", 1)
	tr.begin("inner", 1)
	tr.end()
	tr.end()
	if len(tr.spans) != 2 || tr.spans[0].Parent != -1 || tr.spans[1].Parent != 0 ||
		tr.spans[1].Start < tr.spans[0].Start || tr.spans[1].End > tr.spans[0].End {
		t.Errorf("nested spans recorded as %+v", tr.spans)
	}
}

// The real-time rule behind "no read went backwards" and "every key holds
// its last committed write": a lower version may outlive a higher one only
// when the two were in flight together.
func TestSuperseded(t *testing.T) {
	h := &keyHistory{
		//               v1   v2   v3
		sent:      []int64{10, 20, 100},
		committed: []int64{50, 40, 120},
	}
	if _, yes := h.superseded(1, 1000); !yes {
		t.Error("v1 committed at 50, v3 was sent at 100 and committed: v1 is superseded")
	}
	if by, yes := h.superseded(2, 1000); !yes || by != 3 {
		t.Errorf("v2 superseded = %v by %d, want by v3", yes, by)
	}
	if _, yes := h.superseded(2, 110); yes {
		t.Error("a read that started at 110 may still see v2: v3 committed only at 120")
	}
	if _, yes := h.superseded(3, 1000); yes {
		t.Error("the last version cannot be superseded")
	}
	if _, yes := h.superseded(0, 30); yes {
		t.Error("a read that started before anything committed may see the preload")
	}
	if _, yes := h.superseded(0, 45); !yes {
		t.Error("the preload is superseded once any write committed before the read started")
	}
	overlap := &keyHistory{sent: []int64{10, 20}, committed: []int64{50, 40}}
	if _, yes := overlap.superseded(1, 1000); yes {
		t.Error("v1 and v2 were in flight together: v1 may be what the key ends up holding")
	}
}

// BENCHMARK.json, the harness and the workload table must name the same
// workloads and metrics.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var gated []workload // BENCHMARK.json names every workload but the ungated ones
	for _, w := range workloads {
		if !w.ungated {
			gated = append(gated, w)
		}
	}
	if len(spec.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d gated ones", len(spec.Workloads), len(gated))
	}
	for i, w := range spec.Workloads {
		if w.Name != gated[i].name || w.Why != gated[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the harness %q (%q)", i, w.Name, w.Why, gated[i].name, gated[i].why)
		}
	}
	var e2e, layers []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
		if m.Unit != unitOf(m.Name) {
			t.Errorf("%s: BENCHMARK.json says unit %q, the harness reports %q", m.Name, m.Unit, unitOf(m.Name))
		}
	}
	if !reflect.DeepEqual(e2e, endToEndNames) {
		t.Errorf("end-to-end metrics: BENCHMARK.json %v, harness %v", e2e, endToEndNames)
	}
	if !reflect.DeepEqual(layers, perLayerNames) {
		t.Errorf("per-layer metrics: BENCHMARK.json %v, harness %v", layers, perLayerNames)
	}
}

// Every workload runs for a second (traced; write-hot untraced as well) and
// passes its correctness check.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up real clusters")
	}
	out := filepath.Join("out", "smoke")
	defer os.RemoveAll(out)
	for _, w := range workloads {
		if raceEnabled && w.preload {
			continue
		}
		for _, trace := range []bool{false, true} {
			if !trace && w.name != "write-hot" {
				continue
			}
			res, err := runOnce(w, 3, 1, trace, out, true)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			names := endToEndNames
			if trace {
				names = perLayerNames
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(names))
			}
			for _, name := range names {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, name)
				}
			}
		}
	}
}
