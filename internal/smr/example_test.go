package smr_test

import (
	"fmt"

	"genconsensus/internal/auth"
	"genconsensus/internal/core"
	"genconsensus/internal/flv"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/selector"
	"genconsensus/internal/smr"
	"genconsensus/internal/wire"
)

// A replicated key-value store on a simulated cluster: a sequence of PBFT
// consensus instances (the paper's "framework" direction, §7). A client
// signs SET/DEL commands, each identified by its (client, seq); every
// replica applies the decided log in the same order, and a retried
// (client, seq) is applied once.
func ExampleNewCluster() {
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
	}, 42, smr.ClusterConfig{})
	if err != nil {
		fmt.Println(err)
		return
	}
	signer := auth.NewClientSigner(seed, client)
	var cmds []model.Value
	for seq, op := range [][3]string{
		{"SET", "name", "genconsensus"},
		{"SET", "paper", "DSN-2010"},
		{"SET", "name", "generic-consensus"},
		{"DEL", "paper", ""},
	} {
		cmd, err := kv.SignedCommand(signer, uint64(seq+1), op[0], op[1], op[2])
		if err != nil {
			fmt.Println(err)
			return
		}
		cmds = append(cmds, cmd)
	}

	fmt.Printf("replicated KV store: %d PBFT replicas, tolerating %d Byzantine\n\n", n, b)
	for _, cmd := range cmds {
		cluster.Submit(0, cmd)
	}
	if err := cluster.Drain(60); err != nil {
		fmt.Println(err)
		return
	}
	// The client, unsure its first write landed, re-sends (client 1, seq 1):
	// the replicas' replay windows refuse it at the door.
	cluster.Submit(0, cmds[0])
	if err := cluster.Drain(60); err != nil {
		fmt.Println(err)
		return
	}
	if err := cluster.CheckConsistency(); err != nil {
		fmt.Println(err)
		return
	}
	if err := cluster.CheckProvenance(); err != nil {
		fmt.Println(err)
		return
	}

	log := cluster.Replica(0).Log
	fmt.Printf("decided log (%d entries):\n", log.Len())
	for i := 0; i < log.Len(); i++ {
		entry, _ := log.Get(i)
		env, err := wire.DecodeCommand(string(entry))
		if err != nil {
			fmt.Printf("log entry %d is not a command envelope: %v\n", i, err)
			return
		}
		fmt.Printf("  [%d] client %d seq %d: %s\n", i, env.Client, env.Seq, env.Payload)
	}

	fmt.Println("\nreplica states (all identical):")
	for i := 0; i < n; i++ {
		store := cluster.Replica(model.PID(i)).SM.(*kv.Store)
		fmt.Printf("  replica %d: %v\n", i, store.Snapshot())
	}
	fmt.Println("\nconsistency check: OK (logs identical, retry applied once)")
	// Output:
	// replicated KV store: 4 PBFT replicas, tolerating 1 Byzantine
	//
	// decided log (4 entries):
	//   [0] client 1 seq 1: c1.1|SET|name|genconsensus
	//   [1] client 1 seq 2: c1.2|SET|paper|DSN-2010
	//   [2] client 1 seq 3: c1.3|SET|name|generic-consensus
	//   [3] client 1 seq 4: c1.4|DEL|paper
	//
	// replica states (all identical):
	//   replica 0: map[name:generic-consensus]
	//   replica 1: map[name:generic-consensus]
	//   replica 2: map[name:generic-consensus]
	//   replica 3: map[name:generic-consensus]
	//
	// consistency check: OK (logs identical, retry applied once)
}
