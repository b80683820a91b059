//go:build race

package main

// Under the race detector the preloaded stores' checkpoints outlast the round
// timeouts and the cluster barely moves: the smoke test skips those workloads.
const raceEnabled = true
