// KVStore: a replicated key-value store on the SMR layer (a sequence of
// PBFT consensus instances), exercising the paper's "framework" direction
// (§7). A client signs SET/DEL commands, each identified by its
// (client, seq); every replica applies the decided log in the same order,
// and a retried (client, seq) is applied once.
//
//	go run ./examples/kvstore
package main

import (
	"fmt"
	"log"

	"genconsensus/internal/auth"
	"genconsensus/internal/core"
	"genconsensus/internal/flv"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/selector"
	"genconsensus/internal/smr"
	"genconsensus/internal/wire"
)

func main() {
	n, b := 4, 1
	params := core.Params{
		N: n, B: b, F: 0, TD: 2*b + 1,
		Flag:       model.FlagPhase,
		FLV:        flv.NewPBFT(n, b),
		Selector:   selector.NewAll(n),
		UseHistory: true,
	}
	// Client 1's key, derived from a deployment seed on both sides: the
	// replicas verify what the client signs.
	const seed, client = 42, 1
	ax := smr.NewAuthContext(auth.NewClientKeyring(seed, client+1), 0)
	cluster, err := smr.NewCluster(params, ax, func(model.PID) smr.StateMachine {
		store := kv.NewStore()
		store.EnableClientAuth(ax, 0)
		return store
	}, 42)
	if err != nil {
		log.Fatal(err)
	}
	signer := auth.NewClientSigner(seed, client)
	sign := func(seq uint64, op, key, value string) model.Value {
		cmd, err := kv.SignedCommand(signer, seq, op, key, value)
		if err != nil {
			log.Fatal(err)
		}
		return cmd
	}

	fmt.Printf("replicated KV store: %d PBFT replicas, tolerating %d Byzantine\n\n", n, b)

	// A client session: writes, an overwrite and a delete.
	cmds := []model.Value{
		sign(1, "SET", "name", "genconsensus"),
		sign(2, "SET", "paper", "DSN-2010"),
		sign(3, "SET", "name", "generic-consensus"),
		sign(4, "DEL", "paper", ""),
	}
	for _, cmd := range cmds {
		cluster.Submit(0, cmd)
	}
	if err := cluster.Drain(60); err != nil {
		log.Fatal(err)
	}
	// The client, unsure its first write landed, re-sends (client 1, seq 1):
	// the replicas' replay windows refuse it at the door.
	cluster.Submit(0, cmds[0])
	if err := cluster.Drain(60); err != nil {
		log.Fatal(err)
	}
	if err := cluster.CheckConsistency(); err != nil {
		log.Fatal(err)
	}
	if err := cluster.CheckProvenance(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("decided log (%d entries):\n", cluster.Replica(0).Log.Len())
	for i := 0; i < cluster.Replica(0).Log.Len(); i++ {
		entry, _ := cluster.Replica(0).Log.Get(i)
		env, err := wire.DecodeCommand(string(entry))
		if err != nil {
			log.Fatalf("log entry %d is not a command envelope: %v", i, err)
		}
		fmt.Printf("  [%d] client %d seq %d: %s\n", i, env.Client, env.Seq, env.Payload)
	}
	if got := cluster.Replica(0).Log.Len(); got != len(cmds) {
		log.Fatalf("decided log holds %d entries, want %d (retry was not deduplicated?)", got, len(cmds))
	}

	fmt.Println("\nreplica states (all identical):")
	for i := 0; i < n; i++ {
		store := cluster.Replica(model.PID(i)).SM.(*kv.Store)
		fmt.Printf("  replica %d: %v\n", i, store.Snapshot())
	}
	store := cluster.Replica(0).SM.(*kv.Store)
	if v, ok := store.Get("name"); !ok || v != "generic-consensus" {
		log.Fatalf("unexpected value for name: %q (retry was applied?)", v)
	}
	if _, ok := store.Get("paper"); ok {
		log.Fatal("paper key survived DEL")
	}
	fmt.Println("\nconsistency check: OK (logs identical, retry applied once)")
}
