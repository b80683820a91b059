package node

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/obs"
)

// testLogRoot returns the directory a test should place its node data
// directories (and hence events.log files) under. When GENC_E2E_LOGDIR is
// set — CI does this so failure artifacts survive the run — the root lands
// there under the test's name; otherwise it is a throwaway temp dir.
func testLogRoot(t *testing.T) string {
	if base := os.Getenv("GENC_E2E_LOGDIR"); base != "" {
		dir := filepath.Join(base, t.Name())
		if err := os.MkdirAll(dir, 0o755); err == nil {
			return dir
		}
	}
	return t.TempDir()
}

// TestKVNodeTimeline is the observability acceptance e2e: a class-3
// n=6, b=1, f=1 cluster runs durable with per-node event logs, one member
// is killed mid-load and restarted from its data directory, and the merged
// per-node events.log streams must reconstruct the whole episode — the
// restart visible as a second "start", the disk/peer recovery visible as a
// recovery window that closes when the node resumes deciding, and the
// decision front agreeing with what the cluster actually decided.
func TestKVNodeTimeline(t *testing.T) {
	const n = 6
	root := testLogRoot(t)
	mutate := func(cfg *Config) {
		cfg.F = 1
		cfg.TD = 4
		cfg.MaxBatch = 4
		cfg.Pipeline = 2
		cfg.SnapshotInterval = 2
		cfg.DataDir = filepath.Join(root, fmt.Sprintf("member-%d", cfg.ID))
		cfg.BaseTimeout = 40 * time.Millisecond
		cfg.FetchTimeout = time.Second
		cfg.StallTimeout = 400 * time.Millisecond
		if testing.Verbose() {
			cfg.Logf = t.Logf
		}
	}
	nodes, peers := startNodes(t, n, mutate)

	want := map[string]string{}
	w := newSignedWriter(1)
	submitRange := func(targets []*Node, from, to int) {
		for i := from; i < to; i++ {
			k, v := fmt.Sprintf("tk-%d", i), fmt.Sprintf("tv-%d", i)
			want[k] = v
			submitAll(targets, w.set(k, v))
		}
	}

	// Phase 1: load with everyone up.
	submitRange(nodes, 0, 12)
	for i, nd := range nodes {
		nd := nd
		waitFor(t, 30*time.Second, fmt.Sprintf("phase 1 on node %d", i), func() bool {
			return hasKeys(nd, want)
		})
	}

	// Kill node 5 (the f=1 benign fault), then load the survivors past its
	// compaction horizon so rejoining takes real recovery work, not replay.
	crashed := nodes[5]
	crashed.Stop()
	nodes[5] = nil
	crashLen := crashed.Replica().Log.Len()
	live := nodes[:5]
	submitRange(live, 12, 24)
	for i, nd := range live {
		nd := nd
		waitFor(t, 30*time.Second, fmt.Sprintf("phase 2 on node %d", i), func() bool {
			return hasKeys(nd, want) && nd.Replica().Log.FirstIndex() > uint64(crashLen)
		})
	}

	// Restart node 5 from its data directory: its events.log is appended,
	// so the same file carries both lives of the process.
	cfg := Config{
		ID: model.PID(5), N: n, B: 1,
		ListenAddr: peers[model.PID(5)],
		AuthSeed:   42,
		Peers:      peers,
	}
	mutate(&cfg)
	restarted, err := New(cfg, kv.NewStore())
	if err != nil {
		t.Fatalf("restarting node 5: %v", err)
	}
	nodes[5] = restarted
	restarted.Start()

	// Phase 3: load with the recovered member back; everyone converges.
	submitRange(nodes, 24, 30)
	for i, nd := range nodes {
		nd := nd
		waitFor(t, 60*time.Second, fmt.Sprintf("phase 3 on node %d", i), func() bool {
			return hasKeys(nd, want)
		})
	}
	checkLogConsistency(t, nodes)

	// Stop everything so the logs carry complete lifecycles, then merge.
	// What the cluster decided is read after the stop: an instance still
	// in flight when the last key applied may decide on its way down.
	stopped := append([]*Node(nil), nodes...)
	for i, nd := range nodes {
		nd.Stop()
		nodes[i] = nil
	}
	var decidedThrough uint64
	for _, nd := range stopped {
		decidedThrough = max(decidedThrough, nd.g.commits.NextCommit()-1)
	}
	perNode := make([][]obs.Event, 0, n)
	for i := 0; i < n; i++ {
		path := filepath.Join(root, fmt.Sprintf("member-%d", i), "events.log")
		events, err := obs.ReadEventFile(path)
		if err != nil {
			t.Fatalf("reading node %d events: %v", i, err)
		}
		if len(events) == 0 {
			t.Fatalf("node %d emitted no events", i)
		}
		perNode = append(perNode, events)
	}
	timeline := obs.MergeTimeline(perNode...)

	// The merge is wall-clock ordered.
	for i := 1; i < len(timeline.Events); i++ {
		if timeline.Events[i].Wall < timeline.Events[i-1].Wall {
			t.Fatalf("timeline out of order at %d: %d < %d",
				i, timeline.Events[i].Wall, timeline.Events[i-1].Wall)
		}
	}

	sum := obs.Summarize(timeline)
	for i := 0; i < n-1; i++ {
		if sum.Starts[i] != 1 {
			t.Errorf("node %d: %d starts, want 1", i, sum.Starts[i])
		}
	}
	if sum.Starts[5] != 2 {
		t.Errorf("node 5: %d starts, want 2 (crash + restart)", sum.Starts[5])
	}
	if sum.Kinds["stop"] < n {
		t.Errorf("saw %d stop events, want at least %d", sum.Kinds["stop"], n)
	}
	if sum.Decided[0] != decidedThrough {
		t.Errorf("timeline decided through %d, cluster decided through %d",
			sum.Decided[0], decidedThrough)
	}

	// Node 5's second life must show a recovery window that closed: real
	// recovery kinds observed, then deciding resumed. (Every node gets a
	// fresh-start window from its first boot; the restart window is the
	// last one node 5 opened.)
	var rec *obs.RecoveryWindow
	for i := range sum.Recoveries {
		if sum.Recoveries[i].Node == 5 {
			rec = &sum.Recoveries[i]
		}
	}
	if rec == nil {
		t.Fatal("no recovery window for node 5")
	}
	if rec.End == 0 {
		t.Fatalf("node 5 recovery window never closed: %+v", *rec)
	}
	substantive := false
	for _, k := range rec.Kinds {
		switch k {
		case "recover.local", "recover.peer", "wal.replay", "catchup.snapshot":
			substantive = true
		}
	}
	if !substantive {
		t.Errorf("node 5 recovery window shows no recovery work: %v", rec.Kinds)
	}

	// And the rendered summary tells the story in words.
	var out bytes.Buffer
	if err := obs.WriteSummary(&out, sum); err != nil {
		t.Fatal(err)
	}
	for _, phrase := range []string{
		"node 5: ",
		"(2 starts: crashed and recovered)",
		fmt.Sprintf("group 0: decided through instance %d", decidedThrough),
		"recovery: node 5 in ",
	} {
		if !strings.Contains(out.String(), phrase) {
			t.Errorf("summary missing %q:\n%s", phrase, out.String())
		}
	}
}
