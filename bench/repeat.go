package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Every run of -all and -repeat is a child process of its own, as the
// driver's runs are: peak RSS and CPU are per-process readings.

// runChild performs one run in a child process, passing its table through
// and parsing its result line.
func runChild(name string, seed int64, seconds float64, trace int, outDir string, quiet bool) (output, error) {
	exe, err := os.Executable()
	if err != nil {
		return output{}, fmt.Errorf("bench: %w", err)
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := lines[len(lines)-1]
	if !quiet {
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	}
	var out output
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		if runErr != nil {
			return output{}, fmt.Errorf("bench: %s seed %d: %w", name, seed, runErr)
		}
		return output{}, fmt.Errorf("bench: %s seed %d: no result line: %w", name, seed, err)
	}
	return out, nil
}

// runAll runs every workload once untraced and once traced.
func runAll(seed int64, seconds float64, outDir string) int {
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			out, err := runChild(w.name, seed, seconds, trace, outDir, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = 1
				continue
			}
			if !out.Correct {
				code = 1
			}
		}
	}
	return code
}

// Baseline file: one set per -repeat invocation, appended, so the
// trajectory of the numbers lives in the repository.
type baselineFile struct {
	Sets []baselineSet `json:"sets"`
}

type baselineSet struct {
	Commit    string                      `json:"commit"`
	Date      string                      `json:"date"`
	NProc     int                         `json:"nproc"`
	Go        string                      `json:"go"`
	FS        string                      `json:"fs"`
	Seconds   float64                     `json:"seconds"`
	Seeds     []int64                     `json:"seeds"`
	Workloads map[string]baselineWorkload `json:"workloads"`
}

type baselineWorkload struct {
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	EndToEnd  map[string]baselineMetric `json:"end_to_end"`
	PerLayer  map[string]float64        `json:"per_layer"`
}

type baselineMetric struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median
	Values []float64 `json:"values"`
}

// benchmarkBounds reads the end-to-end bounds out of ../BENCHMARK.json, if
// it is there; they are printed beside the measured spreads.
func benchmarkBounds() map[string]float64 {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(data, &spec) != nil {
		return nil
	}
	bounds := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		commit += "+dirty"
	}
	return commit
}

// runRepeat runs the whole suite k times with seeds seed..seed+k-1 (one
// traced run per workload on the first seed as well), prints each
// end-to-end metric's median, quartiles and spread beside its bound, and
// appends the set to baseline.json.
func runRepeat(k int, seed int64, seconds float64, outDir string) int {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fsType, _, err := fsTypeOf(outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	set := baselineSet{
		Commit: gitCommit(), Date: time.Now().UTC().Format(time.RFC3339),
		NProc: runtime.NumCPU(), Go: runtime.Version(), FS: fsType, Seconds: seconds,
		Workloads: make(map[string]baselineWorkload),
	}
	for i := 0; i < k; i++ {
		set.Seeds = append(set.Seeds, seed+int64(i))
	}
	code := 0
	values := make(map[string]map[string][]float64) // workload → metric → one value per run
	units := make(map[string]string)
	for _, w := range workloads {
		values[w.name] = make(map[string][]float64)
		bw := baselineWorkload{EndToEnd: make(map[string]baselineMetric), PerLayer: make(map[string]float64)}
		for _, s := range set.Seeds {
			out, err := runChild(w.name, s, seconds, 0, outDir, true)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			if !out.Correct {
				code = 1
			}
			bw.Attempted += out.Attempted
			bw.Failed += out.Failed
			for name, m := range out.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
				units[name] = m.Unit
			}
			fmt.Fprintf(os.Stderr, "bench: %s seed %d done (failed %d/%d)\n", w.name, s, out.Failed, out.Attempted)
		}
		traced, err := runChild(w.name, seed, seconds, 1, outDir, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if !traced.Correct {
			code = 1
		}
		for name, m := range traced.Metrics {
			bw.PerLayer[name] = m.Value
		}
		set.Workloads[w.name] = bw
	}

	bounds := benchmarkBounds()
	fmt.Printf("%d runs per workload, seeds %d..%d, %g s each, commit %s, %d CPUs, %s, %s\n",
		k, seed, seed+int64(k)-1, seconds, set.Commit, set.NProc, set.Go, set.FS)
	fmt.Printf("%-15s %-16s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, w := range workloads {
		names := make([]string, 0, len(values[w.name]))
		for name := range values[w.name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			vs := values[w.name][name]
			q1, q2, q3 := quartiles(vs)
			bm := baselineMetric{Unit: units[name], Median: q2, Q1: q1, Q3: q3, Spread: spread(vs), Values: vs}
			set.Workloads[w.name].EndToEnd[name] = bm
			bound := "-"
			flag := ""
			if b, ok := bounds[name]; ok {
				bound = fmt.Sprintf("%.2f", b)
				if bm.Spread > b && name != "setup_s" {
					flag = "  SPREAD EXCEEDS BOUND"
				} else if bm.Spread > b/3 && name != "setup_s" {
					flag = "  above a third of the bound"
				}
			}
			if w.ungated {
				bound, flag = "-", "  ungated workload: not in BENCHMARK.json"
			}
			fmt.Printf("%-15s %-16s %12.4f %12.4f %12.4f %8.3f %6s%s\n", w.name, name, q2, q1, q3, bm.Spread, bound, flag)
		}
	}

	var file baselineFile
	if data, err := os.ReadFile("baseline.json"); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			fmt.Fprintln(os.Stderr, "bench: baseline.json is malformed, starting it afresh:", err)
			file = baselineFile{}
		}
	}
	file.Sets = append(file.Sets, set)
	sort.SliceStable(file.Sets, func(i, j int) bool { return file.Sets[i].Date < file.Sets[j].Date })
	data, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile("baseline.json", append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: writing baseline.json:", err)
		return 1
	}
	return code
}
