package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"genconsensus/internal/core"
	"genconsensus/internal/flv"
	"genconsensus/internal/model"
	"genconsensus/internal/selector"
	"genconsensus/internal/wire"
)

// startCluster binds n loopback nodes that know each other's addresses.
func startCluster(t *testing.T, n int) []*Node {
	t.Helper()
	nodes := make([]*Node, n)
	peers := make(map[model.PID]string, n)
	for i := 0; i < n; i++ {
		node, err := Listen(Config{
			ID: model.PID(i), N: n,
			Peers:         map[model.PID]string{},
			ListenAddr:    "127.0.0.1:0",
			AuthSeed:      42,
			BaseTimeout:   60 * time.Millisecond,
			TimeoutGrowth: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = node
		peers[model.PID(i)] = node.Addr()
	}
	for _, node := range nodes {
		node.cfg.Peers = peers
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			_ = node.Close()
		}
	})
	return nodes
}

func pbftParams(n, b int) core.Params {
	return core.Params{
		N: n, B: b, F: 0, TD: 2*b + 1,
		Flag:       model.FlagPhase,
		FLV:        flv.NewPBFT(n, b),
		Selector:   selector.NewAll(n),
		UseHistory: true,
	}
}

// Full consensus over loopback TCP: four PBFT processes decide and agree.
func TestPBFTOverTCP(t *testing.T) {
	n := 4
	nodes := startCluster(t, n)
	params := pbftParams(n, 1)
	vals := []model.Value{"b", "a", "b", "a"}

	var wg sync.WaitGroup
	decisions := make([]model.Value, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		proc, err := core.NewProcess(model.PID(i), vals[i], params)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			decisions[i], errs[i] = nodes[i].RunProc(1, proc, 60, 3)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i, errs[i])
		}
	}
	for i := 1; i < n; i++ {
		if decisions[i] != decisions[0] {
			t.Fatalf("agreement violated over TCP: %v", decisions)
		}
	}
	if decisions[0] != "a" && decisions[0] != "b" {
		t.Fatalf("validity violated: decided %q", decisions[0])
	}
}

// Paxos over TCP with a crashed node: growing timeouts carry the survivors.
func TestPaxosOverTCPWithCrash(t *testing.T) {
	n := 3
	nodes := startCluster(t, n)
	params := core.Params{
		N: n, B: 0, F: 1, TD: 2,
		Flag:     model.FlagPhase,
		FLV:      flv.NewPaxos(n),
		Selector: selector.NewRotatingCoordinator(n),
	}
	// Node 2 never runs (crashed from the start).
	vals := []model.Value{"x", "y"}
	var wg sync.WaitGroup
	decisions := make([]model.Value, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		proc, err := core.NewProcess(model.PID(i), vals[i], params)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			decisions[i], errs[i] = nodes[i].RunProc(1, proc, 80, 3)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i, errs[i])
		}
	}
	if decisions[0] != decisions[1] {
		t.Fatalf("agreement violated: %v", decisions)
	}
}

// Two concurrent instances multiplex over the same connections.
func TestMultipleInstances(t *testing.T) {
	n := 4
	nodes := startCluster(t, n)
	params := pbftParams(n, 1)
	var wg sync.WaitGroup
	results := make([][2]model.Value, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for inst := uint64(1); inst <= 2; inst++ {
				init := model.Value(fmt.Sprintf("v%d-%d", inst, i%2))
				proc, err := core.NewProcess(model.PID(i), init, params)
				if err != nil {
					t.Error(err)
					return
				}
				v, err := nodes[i].RunProc(inst, proc, 60, 3)
				if err != nil {
					t.Errorf("node %d instance %d: %v", i, inst, err)
					return
				}
				results[i][inst-1] = v
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for inst := 0; inst < 2; inst++ {
		for i := 1; i < n; i++ {
			if results[i][inst] != results[0][inst] {
				t.Fatalf("instance %d disagreement: %v", inst+1, results)
			}
		}
	}
}

// Buffer hygiene: late and far-future rounds are discarded; duplicates keep
// the first copy.
func TestBufferWindow(t *testing.T) {
	nodes := startCluster(t, 2)
	node := nodes[0]
	mk := func(r model.Round, vote model.Value) wire.Envelope {
		env := wire.Envelope{
			Instance: 5, Round: r, Sender: 1,
			Msg: model.Message{Kind: model.DecisionRound, Vote: vote},
		}
		return env
	}
	node.deliverLocal(mk(1, "a"))
	node.deliverLocal(mk(1, "dup")) // duplicate sender: dropped
	node.deliverLocal(mk(model.Round(windowRounds+10), "far"))
	node.mu.Lock()
	buf := node.instances[5]
	if got := buf.rounds[1][1].Vote; got != "a" {
		t.Errorf("round 1 vote = %q, want first copy", got)
	}
	if len(buf.rounds) != 1 {
		t.Errorf("far-future round buffered: %v", buf.rounds)
	}
	node.mu.Unlock()
	// Collect closes the round: later deliveries for it vanish.
	mu := node.collect(5, 1, time.Now().Add(10*time.Millisecond))
	if len(mu) != 1 {
		t.Fatalf("collected %d messages, want 1", len(mu))
	}
	node.deliverLocal(mk(1, "late"))
	node.mu.Lock()
	if _, ok := node.instances[5].rounds[1]; ok {
		t.Error("late delivery reopened a closed round")
	}
	node.mu.Unlock()
	if !node.HasInstance(5) {
		t.Error("HasInstance must report the buffered instance")
	}
	if node.HasInstance(9) {
		t.Error("HasInstance reported an unknown instance")
	}
}

// Close is idempotent and joins all goroutines; RunProc observes ErrClosed.
func TestCloseLifecycle(t *testing.T) {
	nodes := startCluster(t, 2)
	node := nodes[0]
	params := pbftParams(2, 0)
	params.TD = 2
	proc, err := core.NewProcess(0, "v", params)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := node.RunProc(3, proc, 1000, 1)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := node.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("RunProc after Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunProc did not observe Close")
	}
	if err := node.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// A node alone times out every round and reports no decision.
func TestNoDecisionBudget(t *testing.T) {
	node, err := Listen(Config{
		ID: 0, N: 3,
		Peers:         map[model.PID]string{0: "", 1: "127.0.0.1:1", 2: "127.0.0.1:1"},
		ListenAddr:    "127.0.0.1:0",
		AuthSeed:      1,
		BaseTimeout:   time.Millisecond,
		TimeoutGrowth: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	params := pbftParams(3, 0)
	params.TD = 3
	proc, err := core.NewProcess(0, "v", params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.RunProc(1, proc, 6, 1); !errors.Is(err, ErrNoDecision) {
		t.Fatalf("err = %v, want ErrNoDecision", err)
	}
}

// ReleaseInstance reclaims committed instances' receive buffers: without it
// the instance map grows one entry per instance forever. The watermark also
// refuses stragglers for released instances (a late peer's extra rounds
// must not resurrect the entry).
func TestReleaseInstanceShrinksMap(t *testing.T) {
	nodes := startCluster(t, 2)
	env := func(instance uint64) wire.Envelope {
		e := wire.Envelope{Instance: instance, Round: 1, Sender: 1, Msg: model.Message{Vote: "v"}}
		return e
	}
	// Buffer messages for instances 1..8 on node 0.
	for id := uint64(1); id <= 8; id++ {
		nodes[1].send(0, env(id))
	}
	deadline := time.Now().Add(2 * time.Second)
	for nodes[0].InstanceCount() < 8 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := nodes[0].InstanceCount(); got != 8 {
		t.Fatalf("InstanceCount = %d, want 8", got)
	}
	// Committing in order releases prefixes: the map shrinks.
	nodes[0].ReleaseInstance(5)
	if got := nodes[0].InstanceCount(); got != 3 {
		t.Fatalf("InstanceCount after ReleaseInstance(5) = %d, want 3", got)
	}
	if nodes[0].HasInstance(5) || !nodes[0].HasInstance(6) {
		t.Error("watermark released the wrong instances")
	}
	// A straggler for a released instance is dropped, not re-buffered.
	nodes[1].send(0, env(3))
	time.Sleep(50 * time.Millisecond)
	if nodes[0].HasInstance(3) {
		t.Error("released instance resurrected by a straggler")
	}
	if got := nodes[0].InstanceCount(); got != 3 {
		t.Errorf("InstanceCount after straggler = %d, want 3", got)
	}
	// Releasing everything empties the map; out-of-order (lower) releases
	// cannot move the watermark backwards.
	nodes[0].ReleaseInstance(8)
	nodes[0].ReleaseInstance(2)
	if got := nodes[0].InstanceCount(); got != 0 {
		t.Errorf("InstanceCount after full release = %d, want 0", got)
	}
	nodes[1].send(0, env(7))
	time.Sleep(50 * time.Millisecond)
	if nodes[0].HasInstance(7) {
		t.Error("watermark moved backwards")
	}
	// Instance 0 is releasable too (the generic transport does not assume
	// SMR's 1-based numbering).
	nodes[1].send(0, env(9))
	deadline = time.Now().Add(2 * time.Second)
	for !nodes[0].HasInstance(9) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	nodes[0].ReleaseInstance(9)
	if nodes[0].InstanceCount() != 0 {
		t.Error("release of the newest instance left buffers behind")
	}
}

// Far-future instance ids must not allocate receive buffers: an
// authenticated Byzantine member could otherwise grow the instance map one
// entry per fabricated id. Only (watermark, watermark+WindowInstances]
// gets buffers.
func TestInstanceWindowBoundsFloods(t *testing.T) {
	nodes := startCluster(t, 2)
	send := func(instance uint64) {
		env := wire.Envelope{Instance: instance, Round: 1, Sender: 1, Msg: model.Message{Vote: "v"}}
		nodes[1].send(0, env)
	}
	// In-window (default 4096) buffers; beyond it is dropped.
	send(4096)
	deadline := time.Now().Add(2 * time.Second)
	for !nodes[0].HasInstance(4096) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if !nodes[0].HasInstance(4096) {
		t.Fatal("in-window instance not buffered")
	}
	send(4097)
	send(1 << 40)
	time.Sleep(50 * time.Millisecond)
	if nodes[0].HasInstance(4097) || nodes[0].HasInstance(1<<40) {
		t.Error("beyond-window instance allocated a buffer")
	}
	// The window slides with the release watermark.
	nodes[0].ReleaseInstance(10)
	send(4100)
	deadline = time.Now().Add(2 * time.Second)
	for !nodes[0].HasInstance(4100) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if !nodes[0].HasInstance(4100) {
		t.Error("window did not slide with the watermark")
	}
}

// collect waits on the instance's own buffer from the first moment — it
// creates the buffer when no frame has yet — so a frame wakes it at once
// instead of at the next tick of a poll. A buffer it creates is an
// ordinary one (released like any other), and it creates none for a
// released instance (returns at once) or one beyond the window (waits the
// round out).
func TestCollectCreatesItsBuffer(t *testing.T) {
	nodes := startCluster(t, 2)
	n := nodes[0]
	got := make(chan model.Received, 1)
	go func() { got <- n.collect(5, 1, time.Now().Add(5*time.Second)) }()
	deadline := time.Now().Add(2 * time.Second)
	for !n.HasInstance(5) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !n.HasInstance(5) {
		t.Fatal("collect did not create the instance buffer")
	}
	for _, sender := range nodes {
		sender.send(0, wire.Envelope{Instance: 5, Round: 1, Sender: sender.cfg.ID, Msg: model.Message{Vote: "v"}})
	}
	select {
	case mu := <-got:
		if len(mu) != 2 {
			t.Fatalf("collected %d messages, want 2", len(mu))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a frame for the round did not wake collect")
	}
	n.ReleaseInstance(5)
	if count := n.InstanceCount(); count != 0 {
		t.Fatalf("InstanceCount after release = %d: collect's buffer leaked", count)
	}

	start := time.Now()
	if mu := n.collect(3, 1, start.Add(5*time.Second)); len(mu) != 0 {
		t.Fatalf("released instance collected %d messages", len(mu))
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("collect on a released instance waited %v", took)
	}
	far := uint64(5 + windowInstances + 1)
	start = time.Now()
	n.collect(far, 1, start.Add(30*time.Millisecond))
	if took := time.Since(start); took < 30*time.Millisecond {
		t.Fatalf("collect beyond the window returned after %v, before the round deadline", took)
	}
	if n.HasInstance(3) || n.HasInstance(far) || n.InstanceCount() != 0 {
		t.Fatal("collect created a buffer for a released or out-of-window instance")
	}
}

// InstanceHigh is the transport half of a read-index capture: buffered
// peer frames, releases and recorded decisions all lift it, and the
// instance window bounds it (a fabricated far-future id must not park
// reads).
func TestGroupInstanceHigh(t *testing.T) {
	nodes := startCluster(t, 2)
	send := func(instance uint64) {
		env := wire.Envelope{Instance: instance, Round: 1, Sender: 1, Msg: model.Message{Vote: "v"}}
		nodes[1].send(0, env)
	}
	if got := nodes[0].InstanceHigh(); got != 0 {
		t.Fatalf("fresh InstanceHigh = %d, want 0", got)
	}
	// A buffered peer frame is evidence of the instance: the high moves
	// even though nothing committed locally.
	send(7)
	deadline := time.Now().Add(2 * time.Second)
	for nodes[0].InstanceHigh() < 7 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := nodes[0].InstanceHigh(); got != 7 {
		t.Fatalf("InstanceHigh after peer frame = %d, want 7", got)
	}
	// Beyond the instance window the frame is dropped and must not lift
	// the high either — otherwise one hostile id parks every read until
	// its deadline.
	send(1 << 40)
	time.Sleep(50 * time.Millisecond)
	if got := nodes[0].InstanceHigh(); got != 7 {
		t.Fatalf("InstanceHigh after flood frame = %d, want 7", got)
	}
	// Releases and recorded decisions lift it; lower ones never move it
	// backwards.
	nodes[0].ReleaseInstance(9)
	if got := nodes[0].InstanceHigh(); got != 9 {
		t.Fatalf("InstanceHigh after release = %d, want 9", got)
	}
	nodes[0].RecordDecision(12, model.Value("v"))
	nodes[0].RecordDecision(3, model.Value("old"))
	if got := nodes[0].InstanceHigh(); got != 12 {
		t.Fatalf("InstanceHigh after decisions = %d, want 12", got)
	}
}
