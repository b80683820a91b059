// Command bench is the repository's benchmark: sustained key-value
// workloads against an in-process loopback cluster, driven through the real
// client TCP protocol, reporting what a client of the replicated store sees
// (-trace 0) or where a committed operation's time goes, layer by layer
// (-trace 1). See README.md for the metrics, the workloads and the reasons
// behind them.
//
//	go run -C bench . -workload write-hot -seed 1
//	go run -C bench . -all
//	go run -C bench . -repeat 10
//
// The last line of standard output of a single run is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Int64("seed", 1, "seed of the generated operation stream")
		seconds = flag.Float64("seconds", 30, "timed length of one run, shared out among the segments: 3/8 of it paced phases, 5/8 saturation phases")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (cluster counters and the layer replay trace)")
		all     = flag.Bool("all", false, "run every workload once, traced and untraced")
		repeat  = flag.Int("repeat", 0, "run the whole suite this many times with consecutive seeds, print medians and spreads, append the set to baseline.json")
		outDir  = flag.String("out", "out", "directory for data dirs and trace files (must not be tmpfs for write-durable)")
	)
	flag.Parse()
	switch {
	case *repeat > 0:
		os.Exit(runRepeat(*repeat, *seed, *seconds, *outDir))
	case *all:
		os.Exit(runAll(*seed, *seconds, *outDir))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seconds < float64(w.segments) {
		fmt.Fprintf(os.Stderr, "bench: -seconds must leave each of %s's %d segments a second\n", w.name, w.segments)
		os.Exit(2)
	}
	out, err := runOnce(w, *seed, *seconds, *trace != 0, *outDir, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// output is the result line of one run.
type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// segmentSeed derives the seed of one segment's operation streams from the
// run's: a pure function, and no two segments of a run share a stream.
func segmentSeed(seed int64, segment int) int64 { return seed*64 + int64(segment) }

// runOnce performs one run — segments fresh clusters, one after the other,
// each taken through the whole set-up → warm-up → paced → saturation → check
// sequence on its share of seconds — and prints the run's metrics by name;
// the caller prints the result line. A metric of the run is the median of
// the segments' values (see combine). quick is for tests: one segment, one
// set-up, a short warm-up.
func runOnce(w workload, seed int64, seconds float64, trace bool, outDir string, quick bool) (output, error) {
	segments := w.segments
	if quick {
		segments = 1
	}
	out := output{Correct: true}
	var parts [][]metric
	var setups []float64
	fsType := ""
	readRetries := 0
	for i := 0; i < segments; i++ {
		ms, sum, r, err := runSegment(w, segmentSeed(seed, i), seconds/float64(segments), trace, outDir, i, segments, quick)
		if err != nil {
			return output{}, err
		}
		parts = append(parts, ms)
		setups = append(setups, r.setups...)
		fsType = r.fsType
		out.Correct = out.Correct && len(r.checkErrs) == 0
		out.Attempted += sum.attempted
		out.Failed += sum.failed
		readRetries += sum.readRetries
		runtime.GC() // a torn-down cluster's state must not pile onto the peak RSS
	}
	ms := combine(parts, setups)
	mode := "end-to-end (-trace 0)"
	if trace {
		mode = "per-layer (-trace 1)"
	}
	printMetrics(os.Stdout, fmt.Sprintf("%s seed=%d seconds=%g segments=%d fs=%s %s", w.name, seed, seconds, segments, fsType, mode), ms)
	fmt.Printf("  attempted=%d failed=%d read_retries=%d paced=%d/s window=%d/client\n", out.Attempted, out.Failed, readRetries, w.rate, clientWindow)
	out.Metrics = make(map[string]metricOut, len(ms))
	for _, m := range ms {
		out.Metrics[m.name] = metricOut{Value: m.value, Unit: m.unit}
	}
	return out, nil
}

// runSegment takes one fresh cluster through the whole sequence and returns
// what it measured.
func runSegment(w workload, seed int64, seconds float64, trace bool, outDir string, index, of int, quick bool) ([]metric, opSummary, *result, error) {
	r := &run{w: w, seed: seed, seconds: seconds, trace: trace, outDir: outDir, index: index, setupRounds: setupsPerRun / of, quick: quick}
	if quick {
		r.setupRounds = 1
	}
	defer r.teardown()
	if err := r.execute(); err != nil {
		return nil, opSummary{}, nil, err
	}
	for _, e := range r.res.checkErrs {
		fmt.Fprintf(os.Stderr, "bench: CHECK FAILED (segment %d): %s\n", index, e)
	}
	s := r.summariseOps(r.res.staleReads)
	if !trace {
		return r.endToEnd(s), s, &r.res, nil
	}
	ms, err := r.perLayer(s)
	return ms, s, &r.res, err
}
