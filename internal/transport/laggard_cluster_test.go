package transport_test

// Replicas left behind an instance by lost round votes, under whole
// replica servers at the node's parameters (PBFT with the first selection
// round skipped: round 1 validates, round 2 decides phase 1).

import (
	"fmt"
	"testing"
	"time"

	"genconsensus/internal/model"
	"genconsensus/internal/node"
	"genconsensus/internal/transport"
)

// runLaggardCluster installs drop on the voting plane, starts four
// replicas whose stall watcher fires after 300 ms, and writes 20 signed
// SETs through every replica.
func runLaggardCluster(t *testing.T, drop func(from, to model.PID, instance uint64, r model.Round) bool) []*node.Node {
	t.Helper()
	t.Cleanup(transport.SetEnvelopeDrop(drop))
	nodes := startReplicas(t, 4, node.Config{B: 1, AuthSeed: 42, StallTimeout: 300 * time.Millisecond})
	writeAll(t, nodes, 20, -1,
		func(i int) string { return fmt.Sprintf("lk%d", i) },
		func(i int) string { return fmt.Sprint(i) },
		10*time.Second)
	return nodes
}

// dropRound2 loses, in instance 1's decision round of phase 1, the votes
// lost[to] names for each receiver to.
func dropRound2(lost map[model.PID][]model.PID) func(from, to model.PID, instance uint64, r model.Round) bool {
	return func(from, to model.PID, instance uint64, r model.Round) bool {
		if instance != 1 || r != 2 {
			return false
		}
		for _, p := range lost[to] {
			if p == from {
				return true
			}
		}
		return false
	}
}

// Replicas 0-2 decide instance 1 in round 2; replica 3, two votes short,
// cannot decide it inside the protocol (the deciders are frozen, and under
// FLAG = φ their votes for later phases never count). Its stall watcher
// fetches the decision from the b+1 decision rings that hold it.
func TestLaggardPastDecisionCatchesUp(t *testing.T) {
	nodes := runLaggardCluster(t, dropRound2(map[model.PID][]model.PID{3: {0, 1}}))
	if c := nodes[3].Metrics().CounterValue("g0.node.catchups"); c == 0 {
		t.Fatal("replica 3 applied every write without a catch-up: the votes were not dropped")
	}
}

// Only replica 0 hears three round-2 votes, so it alone decides instance
// 1 in phase 1, and no b+1 decision rings hold the decision. Replicas 1-3
// must decide it themselves in phase 2, which locks the phase-1 value only
// if their histories record it for phase 1.
func TestLoneDeciderDecidesInPhaseTwo(t *testing.T) {
	nodes := runLaggardCluster(t, dropRound2(map[model.PID][]model.PID{
		1: {0, 2},
		2: {0, 3},
		3: {0, 1},
	}))
	for i := 1; i < len(nodes); i++ {
		if late := nodes[i].Metrics().CounterValue("g0.node.late_decisions"); late == 0 {
			t.Errorf("replica %d never decided after phase 1", i)
		}
	}
}
