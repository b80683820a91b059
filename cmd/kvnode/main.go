// Command kvnode is one replica of a TCP-replicated key-value store:
// consensus instances (PBFT, or the class-3 generic algorithm when -f > 0)
// decide a shared command log over the internal/transport runtime; the kv
// state machine applies it. The heavy lifting lives in internal/node — this
// binary only parses flags.
//
// Each instance decides a whole batch of queued commands (up to
// -max-batch); with -pipeline W > 1 up to W instances run concurrently,
// and -adaptive-batch sizes proposals from queue depth and observed
// latency. A batch travels once: its proposer announces it on the
// content-addressed payload plane and the consensus rounds vote on its
// 32-byte digest (docs/WIRE.md §5–6); -gossip-fanout narrows the announce.
//
// With -shards S > 1 the node partitions the keyspace across S independent
// consensus groups on the same replica set — each group its own pipeline,
// commit queue, WAL directory and snapshot chain — and routes every write
// to the group owning its key (see docs/SHARD.md). All replicas and
// sharding-aware clients must agree on S.
//
// With -snapshot-interval K > 0 the node checkpoints its state machine
// every K committed instances, truncates its log below the checkpoint
// (bounded memory), serves the checkpoint to recovering peers over the
// MAC-protected state-transfer exchange, and — on restart — fetches the
// newest checkpoint that b+1 peers agree on and rejoins the pipeline at
// its watermark instead of replaying a history that no longer exists.
// -applied-keep bounds the duplicate-suppression table at each checkpoint.
//
// With -data-dir the node is durable: every decided instance is appended
// to a CRC-framed write-ahead log before it is applied (-fsync/-fsync-batch
// trade flush cost against the power-loss window), checkpoints persist as
// atomic on-disk files (incremental deltas with a periodic full snapshot,
// -full-snapshot-every), and restart recovery runs disk-first — local
// checkpoint, WAL replay, then the peer probe — so even a whole-cluster
// power cycle converges from the data directories alone.
//
// A 4-node local cluster:
//
//	go run ./cmd/kvnode -id 0 -n 4 -listen 127.0.0.1:7100 -client 127.0.0.1:7200 -peers 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 &
//	... (ids 1, 2, 3)
//	go run ./cmd/kvctl -nodes 127.0.0.1:7200,127.0.0.1:7201,127.0.0.1:7202,127.0.0.1:7203 set color green
//	go run ./cmd/kvctl -nodes 127.0.0.1:7200 get color
//
// With -client-auth the node accepts only signed writes (the authenticated
// command lifecycle): clients MAC each command over (client, seq, payload),
// ingress/chooser/apply all verify provenance, and dedup keys on
// (client, seq). Use kvctl -auth against such a cluster.
//
// Client protocol (one line per request):
//
//	CMD <reqID> SET <key> <value>             → "QUEUED" (legacy mode)
//	ACMD <client> <seq> <mac-hex> SET <k> <v> → "QUEUED" (-client-auth)
//	CMD <reqID> DEL <key>                     → "QUEUED"
//	GET <key>                                 → value or "NOTFOUND"
//	LOGLEN                                    → decided-log length
//	STATS                                     → key=value metric lines, then "END"
//
// Observability (docs/OBSERVABILITY.md): the node keeps a live metrics
// registry (STATS above; -metrics-addr serves it as JSON over HTTP next to
// /debug/pprof) and, with -data-dir, appends structured events to
// <data-dir>/events.log for cmd/loganalyzer to merge into a cluster
// timeline.
package main

import (
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/node"
	"genconsensus/internal/smr"
)

func main() {
	var (
		id         = flag.Int("id", 0, "this node's process id")
		n          = flag.Int("n", 4, "cluster size")
		b          = flag.Int("b", 1, "Byzantine fault tolerance (n must exceed 3b)")
		f          = flag.Int("f", 0, "benign crash tolerance (0 = PBFT, >0 = class-3 generic)")
		td         = flag.Int("td", 0, "decision threshold (0 = 2b+1)")
		listen     = flag.String("listen", "127.0.0.1:7100", "consensus listen address")
		client     = flag.String("client", "127.0.0.1:7200", "client listen address")
		peersFlag  = flag.String("peers", "", "comma-separated consensus addresses, in pid order")
		authSeed   = flag.Int64("auth-seed", 42, "cluster authentication seed (must match on all nodes)")
		maxBatch   = flag.Int("max-batch", smr.MaxBatchSize, "max commands decided per consensus instance")
		pipeline   = flag.Int("pipeline", 4, "max concurrent consensus instances per group (1 = serial)")
		adaptive   = flag.Bool("adaptive-batch", true, "size batches from queue depth and observed instance latency")
		shards     = flag.Int("shards", 1, "independent consensus groups partitioning the keyspace (must match on all nodes)")
		snapEvery  = flag.Uint64("snapshot-interval", 1024, "checkpoint every K committed instances (0 disables snapshots and recovery)")
		keep       = flag.Int("applied-keep", 1<<16, "dedup-table entries kept at each checkpoint (0 = unbounded)")
		dataDir    = flag.String("data-dir", "", "durable storage directory (WAL + checkpoints; empty = memory-only)")
		fsync      = flag.Bool("fsync", true, "fsync WAL appends and checkpoint writes (with -data-dir)")
		fsyncBatch = flag.Int("fsync-batch", 8, "WAL appends per fsync (1 = every append)")
		fullEvery  = flag.Int("full-snapshot-every", 4, "every k-th on-disk checkpoint is full, the rest are deltas")
		clientAuth = flag.Bool("client-auth", false, "require signed client commands (ACMD; provenance checked at every layer)")
		numClients = flag.Int("num-clients", 16, "provisioned client keyring size (with -client-auth)")
		clientSeed = flag.Int64("client-seed", 0, "client key derivation seed (0 = -auth-seed; must match kvctl)")
		clientWin  = flag.Int("client-window", 0, "per-client replay/dedup window (0 = default)")
		metricsAdr = flag.String("metrics-addr", "", "HTTP debug address: /metrics (flat JSON of the live registry) + /debug/pprof (empty = disabled)")
		fanout     = flag.Int("gossip-fanout", 0, "announce each batch to this many random peers instead of all (0 = full mesh); the rest pull it by digest")
	)
	flag.Parse()

	peerList := strings.Split(*peersFlag, ",")
	if len(peerList) != *n {
		log.Fatalf("kvnode: need %d peer addresses, got %d", *n, len(peerList))
	}
	peers := make(map[model.PID]string, *n)
	for i, addr := range peerList {
		peers[model.PID(i)] = strings.TrimSpace(addr)
	}

	nd, err := node.New(node.Config{
		ID: model.PID(*id), N: *n, B: *b, F: *f, TD: *td,
		Peers:             peers,
		ListenAddr:        *listen,
		ClientAddr:        *client,
		AuthSeed:          *authSeed,
		MaxBatch:          *maxBatch,
		Pipeline:          *pipeline,
		Adaptive:          *adaptive,
		Shards:            *shards,
		SnapshotInterval:  *snapEvery,
		AppliedKeep:       *keep,
		DataDir:           *dataDir,
		Fsync:             *fsync,
		FsyncBatch:        *fsyncBatch,
		FullSnapshotEvery: *fullEvery,
		ClientAuth:        *clientAuth,
		NumClients:        *numClients,
		ClientSeed:        *clientSeed,
		ClientWindow:      *clientWin,
		GossipFanout:      *fanout,
		Logf:              log.Printf,
	}, kv.NewStore())
	if err != nil {
		log.Fatalf("kvnode: %v", err)
	}
	if *metricsAdr != "" {
		// pprof handlers register on http.DefaultServeMux via the blank
		// import; /metrics joins them with the registry's flat JSON dump.
		http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = nd.Metrics().WriteJSON(w)
		})
		go func() {
			if err := http.ListenAndServe(*metricsAdr, nil); err != nil {
				log.Printf("kvnode: metrics server: %v", err)
			}
		}()
	}
	log.Printf("kvnode %d: consensus on %s, clients on %s, %d shard(s), pipeline depth %d, snapshot interval %d",
		*id, nd.Addr(), nd.ClientAddr(), *shards, *pipeline, *snapEvery)
	nd.Start()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("kvnode %d: shutting down", *id)
	nd.Stop()
}
