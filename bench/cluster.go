package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/node"
	"genconsensus/internal/obs"
)

// cluster is one in-process loopback deployment, stood up through
// node.New/SetPeers/Start exactly as cmd/kvnode does.
type cluster struct {
	nodes   []*node.Node
	stores  []*kv.Store
	commits []*obs.Counter // g0.smr.commits per replica: bumped after a batch has applied
	dataDir string         // removed by stop; "" when memory-only
}

// preload installs the warm state through kv.Store.Apply before the node
// exists, identically on every replica (their checkpoints must agree). The
// legacy dedup table the applies populate is emptied again so that the
// state holds the keys and nothing else.
func preload(store *kv.Store, keys int) {
	store.SetAppliedLimit(1)
	for k := 0; k < keys; k++ {
		name := keyName(k)
		store.Apply(kv.Command(name, "SET", name, valueFor(k, 0)))
	}
	store.SetAppliedLimit(0)
	store.PruneApplied(0)
}

// nodeConfig is the fixed shape: only the fields named here differ from
// what ships.
func nodeConfig(id int, w workload, dataDir string) node.Config {
	cfg := node.Config{
		ID: model.PID(id), N: clusterN, B: clusterB, F: 0,
		ListenAddr:       "127.0.0.1:0",
		ClientAddr:       "127.0.0.1:0",
		AuthSeed:         authSeed,
		ClientAuth:       true,
		Shards:           1,
		MaxBatch:         64,
		Pipeline:         4,
		SnapshotInterval: 4,
		AppliedKeep:      4096,
	}
	if w.durable {
		cfg.DataDir = filepath.Join(dataDir, fmt.Sprintf("member-%d", id))
		cfg.Fsync = true
	}
	return cfg
}

func startCluster(w workload, dataDir string) (*cluster, error) {
	c := &cluster{}
	if w.durable {
		c.dataDir = dataDir
	}
	peers := make(map[model.PID]string, clusterN)
	for i := 0; i < clusterN; i++ {
		store := kv.NewStore()
		if w.preload {
			preload(store, w.keys)
		}
		nd, err := node.New(nodeConfig(i, w, dataDir), store)
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("bench: starting replica %d: %w", i, err)
		}
		c.nodes = append(c.nodes, nd)
		c.stores = append(c.stores, nd.GroupStores()[0])
		c.commits = append(c.commits, nd.Metrics().Counter("g0.smr.commits"))
		peers[model.PID(i)] = nd.Addr()
	}
	for _, nd := range c.nodes {
		nd.SetPeers(peers)
	}
	for _, nd := range c.nodes {
		nd.Start()
	}
	return c, nil
}

// stop shuts every replica down (Stop is idempotent, so a replica the fault
// injector already stopped is fine) and removes the run's data directory.
// The replicas stop together: one at a time, each Stop waits out the round
// timers of instances the others are still running.
func (c *cluster) stop() {
	var wg sync.WaitGroup
	for _, nd := range c.nodes {
		wg.Add(1)
		go func(nd *node.Node) {
			defer wg.Done()
			nd.Stop()
		}(nd)
	}
	wg.Wait()
	if c.dataDir != "" {
		_ = os.RemoveAll(c.dataDir) // a leftover only wastes disk; the next run uses a fresh name
	}
}
