// Command kvnode is one replica of a TCP-replicated key-value store:
// consensus instances (the class-3 generic algorithm: PBFT when -f 0; n,
// b, f and td must satisfy Table 1's class-3 bounds) decide a shared
// command log over the internal/transport runtime; the kv state machine
// applies it. The heavy lifting lives in internal/node — this binary only
// parses flags.
//
// Each instance decides a whole batch of queued commands (up to
// -max-batch); with -pipeline W > 1 up to W instances run concurrently,
// and beyond the first an instance opens only for a full batch, so the
// window fills under backlog and a light load rides one instance. Each
// instance has one proposer, replica instance mod n: only it announces
// its batch to every peer on the content-addressed payload plane, the
// others adopt it, and the consensus rounds vote on its 32-byte digest; a
// replica the owner's batch does not reach within the first round's
// timeout (50 ms) announces its own (docs/WIRE.md §5–6).
//
// With -snapshot-interval K > 0 the node checkpoints its state machine
// every K committed instances, truncates its log below the checkpoint
// (bounded memory), serves the checkpoint to recovering peers over the
// MAC-protected state-transfer exchange, and — on restart — fetches the
// newest checkpoint that b+1 peers agree on and rejoins the pipeline at
// its watermark instead of replaying a history that no longer exists.
//
// With -data-dir the node is durable: every decided instance is appended
// to a CRC-framed write-ahead log before it is applied (-fsync/-fsync-batch
// trade flush cost against the power-loss window), checkpoints persist as
// atomic, whole on-disk files (once per state's worth of decided bytes,
// not at every -snapshot-interval boundary), and restart recovery runs
// disk-first — local
// checkpoint, WAL replay, then the peer probe — so even a whole-cluster
// power cycle converges from the data directories alone. A data directory
// written by an older, anonymous kvnode restores its checkpointed keys;
// anonymous commands in its WAL tail are answered "ERR unauthenticated
// command" and not applied. There is no migration.
//
// A 4-node local cluster:
//
//	go run ./cmd/kvnode -id 0 -n 4 -listen 127.0.0.1:7100 -client 127.0.0.1:7200 -peers 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 &
//	... (ids 1, 2, 3)
//	go run ./cmd/kvctl -nodes 127.0.0.1:7200,127.0.0.1:7201,127.0.0.1:7202,127.0.0.1:7203 set color green
//	go run ./cmd/kvctl -nodes 127.0.0.1:7200 get color
//
// Every client is authenticated, with no flag to turn it off: a client
// derives its key from (-client-seed, its id in the -num-clients keyring),
// opens a session per connection (SHELLO) and writes with SCMD lines
// carrying a session tag; ingress, the chooser and the apply path all
// verify provenance, and dedup keys on (client, seq). Older kvnodes started
// anonymous by default and took two more write verbs, anonymous CMD lines
// and per-command-signed lines; a kvnode now answers either one "ERR
// unknown command", and the flags that chose between them are gone.
//
// Client protocol (one line per request; internal/node has the full list):
//
//	SHELLO <client> <nonce-hex> <mac-hex>      → "SESSION <nonce-hex> <mac-hex>"
//	SCMD <seq> <tag-hex> SET|DEL <key> [value] → "QUEUED" (after SHELLO)
//	READ <key>                                 → "VAL 0 <inst> <value>" or "NF 0 <inst>"
//	GET <key>                                  → value or "NOTFOUND" (stale local read)
//	ASEQ <client>                              → client's highest applied seq
//	LOGLEN                                     → decided-log length
//	STATS                                      → key=value metric lines, then "END"
//
// Observability (docs/OBSERVABILITY.md): the node keeps a live metrics
// registry (STATS above; -metrics-addr serves it as JSON over HTTP next to
// /debug/pprof) and, with -data-dir, appends structured events to
// <data-dir>/events.log for cmd/loganalyzer to merge into a cluster
// timeline.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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

// parseConfig turns the command line into the node's configuration and the
// HTTP debug address: each flag lands directly in its Config field. Usage
// and flag errors are written to out.
func parseConfig(args []string, out io.Writer) (node.Config, string, error) {
	var (
		cfg        node.Config
		peers      string
		metricsAdr string
	)
	fs := flag.NewFlagSet("kvnode", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.IntVar((*int)(&cfg.ID), "id", 0, "this node's process id")
	fs.IntVar(&cfg.N, "n", 4, "cluster size")
	fs.IntVar(&cfg.B, "b", 1, "Byzantine fault tolerance (n must exceed 3b+2f)")
	fs.IntVar(&cfg.F, "f", 0, "benign crash tolerance, alongside b (n must exceed 3b+2f)")
	fs.IntVar(&cfg.TD, "td", 0, "decision threshold, 2b+f < td <= n-b-f (0 = 2b+f+1)")
	fs.StringVar(&cfg.ListenAddr, "listen", "127.0.0.1:7100", "consensus listen address")
	fs.StringVar(&cfg.ClientAddr, "client", "127.0.0.1:7200", "client listen address")
	fs.StringVar(&peers, "peers", "", "comma-separated consensus addresses, in pid order")
	fs.Int64Var(&cfg.AuthSeed, "auth-seed", 42, "cluster authentication seed (must match on all nodes)")
	fs.IntVar(&cfg.MaxBatch, "max-batch", smr.MaxBatchSize, "max commands decided per consensus instance")
	fs.IntVar(&cfg.Pipeline, "pipeline", 4, "max concurrent instances; beyond the first, an instance opens only for a full batch")
	fs.Uint64Var(&cfg.SnapshotInterval, "snapshot-interval", 1024, "checkpoint every K committed instances (0 disables snapshots and recovery)")
	fs.StringVar(&cfg.DataDir, "data-dir", "", "durable storage directory (WAL + checkpoints; empty = memory-only)")
	fs.BoolVar(&cfg.Fsync, "fsync", true, "fsync WAL appends and checkpoint writes (with -data-dir)")
	fs.IntVar(&cfg.FsyncBatch, "fsync-batch", 8, "WAL appends per fsync (1 = every append)")
	fs.IntVar(&cfg.NumClients, "num-clients", 16, "provisioned client keyring size")
	fs.Int64Var(&cfg.ClientSeed, "client-seed", 0, "client key derivation seed (0 = -auth-seed; must match kvctl)")
	fs.StringVar(&metricsAdr, "metrics-addr", "", "HTTP debug address: /metrics (flat JSON of the live registry) + /debug/pprof (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return node.Config{}, "", err
	}
	peerList := strings.Split(peers, ",")
	if len(peerList) != cfg.N {
		return node.Config{}, "", fmt.Errorf("need %d peer addresses, got %d", cfg.N, len(peerList))
	}
	cfg.Peers = make(map[model.PID]string, cfg.N)
	for i, addr := range peerList {
		cfg.Peers[model.PID(i)] = strings.TrimSpace(addr)
	}
	return cfg, metricsAdr, nil
}

func main() {
	cfg, metricsAdr, err := parseConfig(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		log.Fatalf("kvnode: %v", err)
	}
	cfg.Logf = log.Printf
	nd, err := node.New(cfg, kv.NewStore())
	if err != nil {
		log.Fatalf("kvnode: %v", err)
	}
	if metricsAdr != "" {
		// pprof handlers register on http.DefaultServeMux via the blank
		// import; /metrics joins them with the registry's flat JSON dump.
		http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = nd.Metrics().WriteJSON(w)
		})
		go func() {
			if err := http.ListenAndServe(metricsAdr, nil); err != nil {
				log.Printf("kvnode: metrics server: %v", err)
			}
		}()
	}
	log.Printf("kvnode %d: consensus on %s, clients on %s, pipeline depth %d, snapshot interval %d",
		cfg.ID, nd.Addr(), nd.ClientAddr(), cfg.Pipeline, cfg.SnapshotInterval)
	nd.Start()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("kvnode %d: shutting down", cfg.ID)
	nd.Stop()
}
