package node

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/readq"
)

// readClient is a plain (anonymous) client connection for driving the read
// verbs: one line out, one line (or an END-terminated block) back.
type readClient struct {
	conn net.Conn
	sc   *bufio.Scanner
}

func dialRead(t *testing.T, addr string) *readClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &readClient{conn: conn, sc: bufio.NewScanner(conn)}
}

func (r *readClient) ask(t *testing.T, line string) string {
	t.Helper()
	fmt.Fprintln(r.conn, line)
	if !r.sc.Scan() {
		t.Fatalf("no response to %q: %v", line, r.sc.Err())
	}
	return r.sc.Text()
}

// askMulti sends one line and reads the END-terminated multi-line reply
// (MREAD, STATS), returning the lines without the terminator.
func (r *readClient) askMulti(t *testing.T, line string) []string {
	t.Helper()
	fmt.Fprintln(r.conn, line)
	var lines []string
	for r.sc.Scan() {
		if r.sc.Text() == "END" {
			return lines
		}
		lines = append(lines, r.sc.Text())
	}
	t.Fatalf("reply to %q ended before END: %v", line, r.sc.Err())
	return nil
}

// TestKVNodeStaleReadRegression is the freshness gate for the read plane:
// a replica restarted with empty state (lagging far behind the cluster)
// must never serve a pre-watermark value through READ. The restarted node
// hears peer frames for head instances long before it commits them, so its
// read index rises past its applied state and READ blocks until catch-up
// delivers the decided prefix — then serves the latest committed value.
// Plain GET on the same node documents the old stale-local behavior: it
// answers immediately from whatever the store happens to hold.
func TestKVNodeStaleReadRegression(t *testing.T) {
	const n = 6
	mutate := func(cfg *Config) {
		cfg.F = 1
		cfg.TD = 4
		cfg.ClientAddr = "127.0.0.1:0"
		cfg.MaxBatch = 4
		cfg.Pipeline = 2
		cfg.SnapshotInterval = 2
		cfg.BaseTimeout = 40 * time.Millisecond
		cfg.FetchTimeout = time.Second
		cfg.StallTimeout = 400 * time.Millisecond
		cfg.ReadTimeout = 20 * time.Second
		if testing.Verbose() {
			cfg.Logf = t.Logf
		}
	}
	nodes, peers := startNodes(t, n, mutate)

	// Phase 1: the contested key's first value, applied everywhere.
	want := map[string]string{"stale-key": "v1"}
	w := newSignedWriter(1)
	next := 0
	load := func(targets []*Node, count int) {
		for i := 0; i < count; i++ {
			k, v := fmt.Sprintf("fill-%d", next), fmt.Sprintf("fv-%d", next)
			next++
			want[k] = v
			submitAll(targets, w.set(k, v))
		}
	}
	submitAll(nodes, w.set("stale-key", "v1"))
	load(nodes, 8)
	for i, nd := range nodes {
		nd := nd
		waitFor(t, 30*time.Second, fmt.Sprintf("phase 1 on node %d", i), func() bool {
			return hasKeys(nd, want)
		})
	}

	// Kill node 5, then overwrite the key on the survivors and push their
	// checkpoints past the crashed node's log position, so its recovery
	// runs the verified state-transfer path, not a plain tail replay.
	crashed := nodes[5]
	crashed.Stop()
	crashLen := crashed.Replica().Log.Len()
	live := nodes[:5]
	want["stale-key"] = "v2"
	submitAll(live, w.set("stale-key", "v2"))
	load(live, 8)
	for i, nd := range live {
		nd := nd
		waitFor(t, 30*time.Second, fmt.Sprintf("phase 2 on node %d", i), func() bool {
			return hasKeys(nd, want) && nd.Replica().Log.FirstIndex() > uint64(crashLen)
		})
	}
	head := nodes[0].g.commits.NextCommit() - 1

	// Keep writes flowing across the restart so the node comes back up
	// with instances in flight: it hears peer frames for them long before
	// catch-up applies them, which is the window the read index must
	// cover (fresh keys only — the contested key's committed value stays
	// v2).
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		bg := newSignedWriter(2)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			submitAll(live, bg.set(fmt.Sprintf("bgk-%d", i%8), "x"))
		}
	}()
	defer func() { close(stop); <-done }()

	// Restart node 5 on its old address with an empty store — and without
	// checkpointing, so Start's synchronous peer-snapshot probe cannot
	// front-run the test: the node must rejoin lagging and close the gap
	// through the live protocol, which is exactly the window the read
	// plane has to cover.
	cfg := Config{
		ID: model.PID(5), N: n, B: 1,
		ListenAddr: peers[model.PID(5)],
		AuthSeed:   42,
		Peers:      peers,
	}
	mutate(&cfg)
	cfg.SnapshotInterval = 0
	restarted, err := New(cfg, kv.NewStore())
	if err != nil {
		t.Fatalf("restarting node 5: %v", err)
	}
	nodes[5] = restarted
	restarted.Start()
	lagging := dialRead(t, restarted.ClientAddr())

	// The documented legacy behavior: GET answers from local state only,
	// so right after the restart it serves the stale (here: empty) view.
	if got := lagging.ask(t, "GET stale-key"); got == "v2" {
		t.Logf("GET on restarted node already fresh (%q) — catch-up won the race", got)
	} else {
		t.Logf("GET on restarted node served stale view %q (the READ verb exists for this)", got)
	}

	// Wait until the lagging node has heard of the pre-restart head; from
	// that point its read index covers the v2 write, so READ must block
	// for catch-up rather than serve the stale prefix.
	waitFor(t, 30*time.Second, "restarted node to observe the head", func() bool {
		return restarted.tn.InstanceHigh() >= head
	})
	res, err := readq.Parse(lagging.ask(t, "READ stale-key"))
	if err != nil {
		t.Fatalf("READ on lagging node: %v", err)
	}
	if !res.Found || res.Value != "v2" {
		t.Fatalf("READ on lagging node = %+v, want v2 (stale read)", res)
	}
	if res.Instance < head {
		t.Fatalf("READ stamped instance %d, below the observed head %d", res.Instance, head)
	}
}

// TestKVNodeReadYourWrites drives a session through a run of writes: every
// write is followed immediately — no polling, no sleeps — by a READ on the
// same connection, which must return the just-written value. The session's
// write anchor is what makes this hold even when the READ arrives before
// the write's commit applies.
func TestKVNodeReadYourWrites(t *testing.T) {
	nodes, _ := startNodes(t, 4, func(cfg *Config) {
		cfg.ClientAddr = "127.0.0.1:0"
		cfg.NumClients = 8
		cfg.MaxBatch = 8
		cfg.Pipeline = 2
		cfg.BaseTimeout = 40 * time.Millisecond
		if testing.Verbose() {
			cfg.Logf = t.Logf
		}
	})
	sessions := make([]*sessionClient, len(nodes))
	for i, nd := range nodes {
		sessions[i] = dialSession(t, nd.ClientAddr(), 1)
	}

	for j := 1; j <= 6; j++ {
		key := fmt.Sprintf("ryw%d", j)
		value := fmt.Sprintf("rv-%d", j)
		// Broadcast the write under the PBFT client model. The first
		// delivery cannot be a duplicate; later replicas may bounce the
		// benign replayed-sequence race once the command has committed.
		if got := sessions[0].send(t, sessions[0].scmd(uint64(j), "SET", key, value)); got != "QUEUED" {
			t.Fatalf("write %d on session 0: %q", j, got)
		}
		for i, cli := range sessions[1:] {
			got := cli.send(t, cli.scmd(uint64(j), "SET", key, value))
			if got != "QUEUED" && got != "ERR replayed sequence" {
				t.Fatalf("write %d on session %d: %q", j, i+1, got)
			}
		}
		// Read-your-writes on the writing connection, immediately.
		res, err := readq.Parse(sessions[0].send(t, "READ "+key))
		if err != nil {
			t.Fatalf("read-your-writes %d: %v", j, err)
		}
		if !res.Found || res.Value != value {
			t.Fatalf("read-your-writes %d = %+v, want %q", j, res, value)
		}
	}
}

// TestKVNodeByzantineReadCertificate fans a read to honest replicas plus a
// forging endpoint that stamps an arbitrarily high instance on a
// fabricated value. The b+1 read certificate must reject the forgery: the
// fabricated value can never collect b+1 matching replies, however high
// its stamp, while the honest value certifies — and the mismatch surfaces
// on the kv.read_certificate_mismatch counter via STATS.
func TestKVNodeByzantineReadCertificate(t *testing.T) {
	nodes, _ := startNodes(t, 4, func(cfg *Config) {
		cfg.ClientAddr = "127.0.0.1:0"
		cfg.MaxBatch = 4
		cfg.Pipeline = 2
		cfg.BaseTimeout = 40 * time.Millisecond
		if testing.Verbose() {
			cfg.Logf = t.Logf
		}
	})
	want := map[string]string{"bk": "real"}
	submitAll(nodes, newSignedWriter(1).set("bk", "real"))
	for i, nd := range nodes {
		nd := nd
		waitFor(t, 30*time.Second, fmt.Sprintf("write on node %d", i), func() bool {
			return hasKeys(nd, want)
		})
	}

	// The forger: answers every READ with a fabricated value stamped far
	// above any honest instance.
	forgerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { forgerLn.Close() })
	go func() {
		for {
			conn, err := forgerLn.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				sc := bufio.NewScanner(conn)
				for sc.Scan() {
					fmt.Fprintln(conn, "VAL 0 999999 evil")
				}
			}(conn)
		}
	}()

	readFrom := func(addrs ...string) []readq.Result {
		var results []readq.Result
		for _, addr := range addrs {
			res, err := readq.Parse(dialRead(t, addr).ask(t, "READ bk"))
			if err != nil {
				t.Fatalf("reply from %s: %v", addr, err)
			}
			results = append(results, res)
		}
		return results
	}
	mismatch := nodes[0].Metrics().Counter("kv.read_certificate_mismatch")

	// b+1 = 2 honest replies plus the forgery: the honest value certifies
	// despite the forgery's higher stamp, and the outvoted reply counts as
	// a mismatch.
	results := readFrom(nodes[0].ClientAddr(), nodes[1].ClientAddr(), forgerLn.Addr().String())
	best, ok := readq.Certify(results, 2, mismatch)
	if !ok {
		t.Fatalf("honest quorum failed to certify: %+v", results)
	}
	if !best.Found || best.Value != "real" {
		t.Fatalf("certified %+v, want the honest value", best)
	}

	// One honest reply plus the forgery is a 1-1 split: no b+1 backing for
	// either value, so the client must refuse rather than trust the
	// higher-stamped forgery.
	split := readFrom(nodes[0].ClientAddr(), forgerLn.Addr().String())
	if forged, ok := readq.Certify(split, 2, mismatch); ok {
		t.Fatalf("1-1 split certified %+v", forged)
	}

	// The mismatch from the certified round is visible through STATS.
	stats := dialRead(t, nodes[0].ClientAddr()).askMulti(t, "STATS")
	found := false
	for _, line := range stats {
		if line == "kv.read_certificate_mismatch=1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("kv.read_certificate_mismatch=1 not in STATS:\n%s", strings.Join(stats, "\n"))
	}
}

// TestKVNodeMRead covers the batched read path: one MREAD over several
// keys (plus a missing one) answers every key in request order under one
// shared stamp, and charges the read counter once per key.
func TestKVNodeMRead(t *testing.T) {
	nodes, _ := startNodes(t, 4, func(cfg *Config) {
		cfg.ClientAddr = "127.0.0.1:0"
		cfg.MaxBatch = 8
		cfg.Pipeline = 2
		cfg.BaseTimeout = 40 * time.Millisecond
		if testing.Verbose() {
			cfg.Logf = t.Logf
		}
	})
	want := map[string]string{"m0a": "a", "m0b": "b", "m1a": "c"}
	broadcastWrites(t, nodes, 1, 1, "m0a", "a", "m0b", "b", "m1a", "c")
	for i, nd := range nodes {
		nd := nd
		waitFor(t, 30*time.Second, fmt.Sprintf("writes on node %d", i), func() bool {
			return hasKeys(nd, want)
		})
	}

	keys := []string{"m1a", "m0a", "mread-missing", "m0b"}
	lines := dialRead(t, nodes[0].ClientAddr()).askMulti(t, "MREAD "+strings.Join(keys, " "))
	if len(lines) != len(keys) {
		t.Fatalf("MREAD returned %d lines for %d keys:\n%s", len(lines), len(keys), strings.Join(lines, "\n"))
	}
	var stamp uint64
	for i, key := range keys {
		res, err := readq.Parse(lines[i])
		if err != nil {
			t.Fatalf("line %d %q: %v", i, lines[i], err)
		}
		if i == 0 {
			stamp = res.Instance
		} else if res.Instance != stamp {
			t.Errorf("key %q stamped %d, want the batch's one stamp %d", key, res.Instance, stamp)
		}
		if v, ok := want[key]; ok {
			if !res.Found || res.Value != v {
				t.Errorf("key %q = %+v, want %q", key, res, v)
			}
		} else if res.Found {
			t.Errorf("missing key %q = %+v, want NF", key, res)
		}
	}

	// Accounting: the read counter was charged once per key.
	if got := nodes[0].Metrics().CounterValue("g0.kv.reads"); got != uint64(len(keys)) {
		t.Errorf("g0.kv.reads = %d, want %d", got, len(keys))
	}
}

// TestKVNodeReadStats asserts the read-plane observability end to end:
// READ traffic shows up on the read counter and wait histogram,
// legacy GETs on the stale-read counter, all through the STATS verb.
func TestKVNodeReadStats(t *testing.T) {
	nodes, _ := startNodes(t, 4, func(cfg *Config) {
		cfg.ClientAddr = "127.0.0.1:0"
		cfg.MaxBatch = 4
		cfg.Pipeline = 2
		cfg.BaseTimeout = 40 * time.Millisecond
	})
	want := map[string]string{"sk": "sv"}
	submitAll(nodes, newSignedWriter(1).set("sk", "sv"))
	for i, nd := range nodes {
		nd := nd
		waitFor(t, 30*time.Second, fmt.Sprintf("write on node %d", i), func() bool {
			return hasKeys(nd, want)
		})
	}

	// A READ consumes no consensus instance: the decision counter does not
	// move across the reads.
	decided := nodes[0].Metrics().CounterValue("g0.smr.decisions")
	cli := dialRead(t, nodes[0].ClientAddr())
	for i := 0; i < 2; i++ {
		if got := cli.ask(t, "READ sk"); !strings.HasPrefix(got, "VAL 0 ") {
			t.Fatalf("READ sk = %q", got)
		}
	}
	if got := cli.ask(t, "GET sk"); got != "sv" {
		t.Fatalf("GET sk = %q", got)
	}
	if got := nodes[0].Metrics().CounterValue("g0.smr.decisions"); got != decided {
		t.Errorf("g0.smr.decisions moved %d -> %d across READs", decided, got)
	}

	stats := map[string]string{}
	for _, line := range cli.askMulti(t, "STATS") {
		if k, v, ok := strings.Cut(line, "="); ok {
			stats[k] = v
		}
	}
	for name, v := range map[string]string{
		"g0.kv.reads":              "2",
		"g0.kv.stale_gets":         "1",
		"g0.kv.read_wait_ns.count": "2",
		"total.kv.reads":           "2",
	} {
		if got := stats[name]; got != v {
			t.Errorf("STATS %s = %q, want %q", name, got, v)
		}
	}
}
