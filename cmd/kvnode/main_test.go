package main

import (
	"io"
	"reflect"
	"testing"

	"genconsensus/internal/model"
	"genconsensus/internal/node"
)

// base is the smallest valid command line: -n 4 needs four peers.
var base = []string{"-peers", "a:1,b:2,c:3,d:4"}

// Every flag lands in its node.Config field (or, for -metrics-addr, in the
// returned debug address).
func TestParseConfigFlags(t *testing.T) {
	cases := []struct {
		flag string
		got  func(node.Config, string) any
		want any
	}{
		{"-id=2", func(c node.Config, _ string) any { return c.ID }, model.PID(2)},
		{"-b=2", func(c node.Config, _ string) any { return c.B }, 2},
		{"-f=1", func(c node.Config, _ string) any { return c.F }, 1},
		{"-td=4", func(c node.Config, _ string) any { return c.TD }, 4},
		{"-listen=h:1", func(c node.Config, _ string) any { return c.ListenAddr }, "h:1"},
		{"-client=h:2", func(c node.Config, _ string) any { return c.ClientAddr }, "h:2"},
		{"-auth-seed=7", func(c node.Config, _ string) any { return c.AuthSeed }, int64(7)},
		{"-max-batch=16", func(c node.Config, _ string) any { return c.MaxBatch }, 16},
		{"-pipeline=2", func(c node.Config, _ string) any { return c.Pipeline }, 2},
		{"-snapshot-interval=8", func(c node.Config, _ string) any { return c.SnapshotInterval }, uint64(8)},
		{"-data-dir=/d", func(c node.Config, _ string) any { return c.DataDir }, "/d"},
		{"-fsync=false", func(c node.Config, _ string) any { return c.Fsync }, false},
		{"-fsync-batch=3", func(c node.Config, _ string) any { return c.FsyncBatch }, 3},
		{"-num-clients=5", func(c node.Config, _ string) any { return c.NumClients }, 5},
		{"-client-seed=11", func(c node.Config, _ string) any { return c.ClientSeed }, int64(11)},
		{"-metrics-addr=h:3", func(_ node.Config, m string) any { return m }, "h:3"},
	}
	for _, tc := range cases {
		cfg, metrics, err := parseConfig(append([]string{tc.flag}, base...), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", tc.flag, err)
		}
		if got := tc.got(cfg, metrics); got != tc.want {
			t.Errorf("%s: got %v (%T), want %v (%T)", tc.flag, got, got, tc.want, tc.want)
		}
	}

	// -n and -peers land together: the peer list must match the size.
	cfg, _, err := parseConfig([]string{"-n", "2", "-peers", "x:1, y:2"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[model.PID]string{0: "x:1", 1: "y:2"}; cfg.N != 2 || !reflect.DeepEqual(cfg.Peers, want) {
		t.Errorf("-n 2 -peers: N=%d Peers=%v, want 2 %v", cfg.N, cfg.Peers, want)
	}
	if _, _, err := parseConfig([]string{"-n", "3", "-peers", "x:1"}, io.Discard); err == nil {
		t.Error("a peer list shorter than -n was accepted")
	}
}

// Options the node no longer has are refused, not silently ignored.
func TestParseConfigRefusesDeletedFlags(t *testing.T) {
	for _, flag := range []string{"-client-window=64", "-full-snapshot-every=3", "-client-auth", "-applied-keep=99"} {
		if _, _, err := parseConfig(append([]string{flag}, base...), io.Discard); err == nil {
			t.Errorf("%s accepted", flag)
		}
	}
}
