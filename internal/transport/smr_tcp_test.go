package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/core"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/smr"
)

// tcpClientSeed derives the keys of the in-process clients below.
const tcpClientSeed = 5

// signedKVReplicas builds n replicas over kv stores, each node with its own
// authentication context over one keyring as every kvnode holds its own,
// and the PBFT parameters each node runs: its chooser weighs under its
// context.
func signedKVReplicas(n int) ([]*smr.Replica, []core.Params) {
	replicas := make([]*smr.Replica, n)
	params := make([]core.Params, n)
	for i := range replicas {
		ax := smr.NewAuthContext(auth.NewClientKeyring(tcpClientSeed, 2), 0)
		store := kv.NewStore()
		store.EnableClientAuth(ax, 0)
		replicas[i] = smr.NewReplica(model.PID(i), store)
		replicas[i].SetCommandAuth(ax)
		params[i] = pbftParams(n, 1)
		params[i].Chooser = smr.CommandChooser{Auth: ax}
	}
	return replicas, params
}

// signed is client 1's command seq.
func signed(t *testing.T, seq uint64, op, key, value string) model.Value {
	t.Helper()
	cmd, err := kv.SignedCommand(auth.NewClientSigner(tcpClientSeed, 1), seq, op, key, value)
	if err != nil {
		t.Fatal(err)
	}
	return cmd
}

// TestReplicatedKVOverTCP drives the full stack: client commands → SMR
// replicas → sequential PBFT instances over loopback TCP → identical key-
// value states (the kvnode architecture, in-process).
func TestReplicatedKVOverTCP(t *testing.T) {
	n := 4
	nodes := startCluster(t, n)
	replicas, params := signedKVReplicas(n)
	// Client model: commands are delivered to every replica.
	cmds := []model.Value{
		signed(t, 1, "SET", "color", "green"),
		signed(t, 2, "SET", "shape", "circle"),
		signed(t, 3, "DEL", "color", ""),
	}
	for _, cmd := range cmds {
		for _, r := range replicas {
			r.Submit(cmd)
		}
	}

	// Each node runs instances until its queue drains.
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replica := replicas[i]
			for instance := uint64(1); instance <= 10; instance++ {
				if replica.PendingLen() == 0 {
					return
				}
				proc, err := core.NewProcess(model.PID(i), replica.Proposal(), params[i])
				if err != nil {
					errs[i] = err
					return
				}
				decided, err := nodes[i].RunProc(instance, proc)
				if err != nil {
					errs[i] = fmt.Errorf("instance %d: %w", instance, err)
					return
				}
				replica.Commit(decided)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
	}

	// All logs identical, all queues drained, all stores agree.
	ref := replicas[0].Log.Entries()
	if len(ref) != len(cmds) {
		t.Fatalf("log length = %d, want %d (%v)", len(ref), len(cmds), ref)
	}
	for i := 1; i < n; i++ {
		log := replicas[i].Log.Entries()
		if len(log) != len(ref) {
			t.Fatalf("replica %d log length %d != %d", i, len(log), len(ref))
		}
		for j := range ref {
			if log[j] != ref[j] {
				t.Fatalf("replica %d log[%d] = %q, want %q", i, j, log[j], ref[j])
			}
		}
	}
	for i := 0; i < n; i++ {
		store := replicas[i].SM.(*kv.Store)
		if _, ok := store.Get("color"); ok {
			t.Errorf("replica %d: color survived DEL", i)
		}
		if v, ok := store.Get("shape"); !ok || v != "circle" {
			t.Errorf("replica %d: shape = %q, %v", i, v, ok)
		}
	}
}

// TestReconnectAfterPeerRestart: a node crashes (closed) and a replacement
// binds the same address; the survivors' cached connections fail once, then
// redial transparently on the next send.
func TestReconnectAfterPeerRestart(t *testing.T) {
	nodes := startCluster(t, 2)
	// Prime the connection 0 → 1.
	params := pbftParams(2, 0)
	params.TD = 2
	proc0, err := core.NewProcess(0, "x", params)
	if err != nil {
		t.Fatal(err)
	}
	proc1, err := core.NewProcess(1, "y", params)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	var v0, v1 model.Value
	go func() { defer wg.Done(); v0, _ = nodes[0].RunProc(1, proc0) }()
	go func() { defer wg.Done(); v1, _ = nodes[1].RunProc(1, proc1) }()
	wg.Wait()
	if v0 != v1 || v0 == model.NoValue {
		t.Fatalf("priming instance failed: %q vs %q", v0, v1)
	}

	// Restart node 1 on the same address.
	addr := nodes[1].Addr()
	if err := nodes[1].Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	replacement, err := Listen(Config{
		ID: 1, N: 2,
		Peers:       nodes[0].cfg.Peers,
		ListenAddr:  addr,
		AuthSeed:    42,
		BaseTimeout: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	defer replacement.Close()

	// A second instance must succeed across the restart.
	proc0b, err := core.NewProcess(0, "x2", params)
	if err != nil {
		t.Fatal(err)
	}
	proc1b, err := core.NewProcess(1, "y2", params)
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(2)
	var e0, e1 error
	go func() { defer wg.Done(); v0, e0 = nodes[0].RunProc(2, proc0b) }()
	go func() { defer wg.Done(); v1, e1 = replacement.RunProc(2, proc1b) }()
	wg.Wait()
	if e0 != nil || e1 != nil {
		t.Fatalf("post-restart instance: %v / %v", e0, e1)
	}
	if v0 != v1 {
		t.Fatalf("post-restart disagreement: %q vs %q", v0, v1)
	}
}

// TestPipelinedKVOverTCP drives the pipelined kvnode architecture
// in-process: every node runs W concurrent consensus instances over
// loopback TCP (disjoint queue slices, shared peer connections), buffers
// out-of-order decisions and commits strictly in instance order, releasing
// each instance's transport buffers after its commit. All logs must come
// out identical and the instance maps empty.
func TestPipelinedKVOverTCP(t *testing.T) {
	const (
		n         = 4
		depth     = 3
		batch     = 2
		instances = 6 // 12 commands / batch
	)
	nodes := startCluster(t, n)
	replicas, params := signedKVReplicas(n)
	for _, r := range replicas {
		r.SetMaxBatch(batch)
	}
	for c := 0; c < instances*batch; c++ {
		cmd := signed(t, uint64(c+1), "SET", fmt.Sprintf("pk%d", c), fmt.Sprintf("pv%d", c))
		for _, r := range replicas {
			r.Submit(cmd)
		}
	}

	// Per-node pipelined dispatcher: the shared smr.CommitQueue claims
	// disjoint slices and serializes out-of-order decisions (the same
	// discipline cmd/kvnode uses).
	errs := make(chan error, n*depth)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		node, replica, params := nodes[i], replicas[i], params[i]
		commits := smr.NewCommitQueue(replica, 1, func(instance uint64, _ model.Value, _ []string) {
			node.ReleaseInstance(instance)
		})
		var mu sync.Mutex
		next := uint64(1)
		for w := 0; w < depth; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					if next > instances {
						mu.Unlock()
						return
					}
					instance := next
					next++
					proposal := commits.Claim(instance, batch)
					mu.Unlock()

					proc, err := core.NewProcess(node.ID(), proposal, params)
					if err != nil {
						errs <- err
						return
					}
					decided, err := node.RunProc(instance, proc)
					if err != nil {
						errs <- fmt.Errorf("node %d instance %d: %w", node.ID(), instance, err)
						return
					}
					commits.Deliver(instance, decided)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Logs identical across nodes, every command decided exactly once.
	ref := replicas[0].Log.Entries()
	if len(ref) != instances*batch {
		t.Fatalf("log length = %d, want %d", len(ref), instances*batch)
	}
	for i := 1; i < n; i++ {
		log := replicas[i].Log.Entries()
		if len(log) != len(ref) {
			t.Fatalf("replica %d log length %d != %d", i, len(log), len(ref))
		}
		for j := range ref {
			if log[j] != ref[j] {
				t.Fatalf("replica %d log[%d] = %q, want %q", i, j, log[j], ref[j])
			}
		}
	}
	for i := 0; i < n; i++ {
		store := replicas[i].SM.(*kv.Store)
		for c := 0; c < instances*batch; c++ {
			if v, ok := store.Get(fmt.Sprintf("pk%d", c)); !ok || v != fmt.Sprintf("pv%d", c) {
				t.Fatalf("replica %d: pk%d = %q, %v", i, c, v, ok)
			}
		}
		if got := nodes[i].InstanceCount(); got != 0 {
			t.Errorf("node %d still buffers %d instances after full release", i, got)
		}
		if replicas[i].PendingLen() != 0 {
			t.Errorf("replica %d still has %d pending", i, replicas[i].PendingLen())
		}
	}
}
