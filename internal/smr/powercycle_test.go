package smr

import (
	"fmt"
	"path/filepath"
	"testing"

	"genconsensus/internal/adversary"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/storage"
)

// powerCycleCluster stands up a class-3 n=6, b=1, f=1 cluster with
// snapshots and storage over the given backend factory.
func powerCycleCluster(t *testing.T, factory func(model.PID) storage.Backend) *Cluster {
	t.Helper()
	c := newAuthCluster(t, class3Params(6, 4, 1), 23)
	c.SetBatchSize(4)
	if err := c.EnableSnapshots(SnapshotConfig{Interval: 3}); err != nil {
		t.Fatal(err)
	}
	c.EnableStorage(factory)
	return c
}

// runWave submits cmds commands and runs instances instances, checking
// consistency after each.
func runWave(t *testing.T, c *Cluster, next *int, cmds, instances int) {
	t.Helper()
	for i := 0; i < cmds; i++ {
		*next++
		c.Submit(0, signedKV(t, testSigner(1), uint64(*next), fmt.Sprintf("pc-k-%d", *next%17), fmt.Sprintf("pc-v-%d", *next)))
	}
	for i := 0; i < instances; i++ {
		if _, err := c.RunInstance(); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClusterPowerCycle is the simulated whole-cluster outage: every
// replica's memory is wiped at once and the cluster must converge again
// from the durable backends alone — checkpoint plus WAL replay, with the
// lagging members (a crashed one included) pulled up by the same recovery
// machinery Recover uses. Runs over both backend kinds: Memory (the sim's
// disk image) and Disk (real files under t.TempDir).
func TestClusterPowerCycle(t *testing.T) {
	backends := map[string]func(t *testing.T) func(model.PID) storage.Backend{
		"memory": func(t *testing.T) func(model.PID) storage.Backend {
			return func(model.PID) storage.Backend { return storage.NewMemory() }
		},
		"disk": func(t *testing.T) func(model.PID) storage.Backend {
			dir := t.TempDir()
			return func(p model.PID) storage.Backend {
				d, err := storage.OpenDisk(storage.DiskConfig{
					Dir: filepath.Join(dir, fmt.Sprintf("member-%d", p)),
				})
				if err != nil {
					t.Fatal(err)
				}
				// Release the open WAL before TempDir's cleanup removes
				// the directory it lives in.
				t.Cleanup(func() { _ = d.Close() })
				return d
			}
		},
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			c := powerCycleCluster(t, mk(t))
			next := 0
			runWave(t, c, &next, 10, 5)

			// One member crashes and misses history — after the power
			// cycle its disk is behind and must be converged from the
			// others' durable state.
			if err := c.Crash(5); err != nil {
				t.Fatal(err)
			}
			runWave(t, c, &next, 16, 8)
			preLen := c.Replica(0).Log.Len()
			preState := c.Replica(0).SM.(*kv.Store).SnapshotState()
			if preLen == 0 {
				t.Fatal("setup: nothing decided")
			}
			oldReps := make([]*Replica, 6)
			for p := 0; p < 6; p++ {
				oldReps[p] = c.Replica(model.PID(p))
			}

			if err := c.PowerCycle(); err != nil {
				t.Fatal(err)
			}

			// Zero surviving memory: every replica object (log, state
			// machine, queue) is new.
			for p := 0; p < 6; p++ {
				rep := c.Replica(model.PID(p))
				if rep == oldReps[p] {
					t.Fatalf("member %d survived the power cycle", p)
				}
				if rep.PendingLen() != 0 {
					t.Fatalf("member %d restored pending commands from nowhere", p)
				}
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatalf("after power cycle: %v", err)
			}
			checkQueues(t, c)
			for p := 0; p < 6; p++ {
				rep := c.Replica(model.PID(p))
				if got := rep.Log.Len(); got != preLen {
					t.Fatalf("member %d restored %d log entries, cluster had %d", p, got, preLen)
				}
				if got := rep.SM.(*kv.Store).SnapshotState(); string(got) != string(preState) {
					t.Fatalf("member %d restored state diverges", p)
				}
			}

			// The restored cluster keeps deciding, checkpointing and
			// compacting from where it left off.
			runWave(t, c, &next, 12, 6)
			if got := c.Replica(0).Log.Len(); got <= preLen {
				t.Fatalf("log did not grow after the power cycle: %d ≤ %d", got, preLen)
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatal(err)
			}

			// And survives a second outage.
			if err := c.PowerCycle(); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatalf("after second power cycle: %v", err)
			}
			checkQueues(t, c)
			runWave(t, c, &next, 4, 4)
		})
	}
}

// TestClusterPowerCycleAuthenticated: the command lifecycle survives the
// outage — restored logs still carry only provenance-checked entries, no
// (client, seq) commits twice across the cycle, and replays of pre-outage
// commands stay rejected.
func TestClusterPowerCycleAuthenticated(t *testing.T) {
	c := powerCycleCluster(t, func(model.PID) storage.Backend { return storage.NewMemory() })
	signer := testSigner(1)

	seq := uint64(0)
	signedWave := func(cmds, instances int) {
		t.Helper()
		for i := 0; i < cmds; i++ {
			seq++
			c.Submit(0, signedKV(t, signer, seq, fmt.Sprintf("apc-k-%d", seq%11), fmt.Sprintf("apc-v-%d", seq)))
		}
		for i := 0; i < instances; i++ {
			if _, err := c.RunInstance(); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckProvenance(); err != nil {
			t.Fatal(err)
		}
	}

	signedWave(12, 8)
	if err := c.PowerCycle(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckProvenance(); err != nil {
		t.Fatalf("provenance after power cycle: %v", err)
	}
	// A replay of a pre-outage committed command must still bounce at
	// ingress on the restored replicas.
	if c.Replica(0).Submit(signedKV(t, signer, 1, "apc-k-1", "apc-v-1")) {
		t.Fatal("restored replica accepted a replay of a pre-outage command")
	}
	signedWave(6, 6)
}

func TestPowerCycleGuards(t *testing.T) {
	c := newAuthCluster(t, pbftParams(4, 1), 3)
	if err := c.PowerCycle(); err != ErrNoStorage {
		t.Fatalf("power cycle without storage: %v", err)
	}
	c.EnableStorage(func(model.PID) storage.Backend { return storage.NewMemory() })
	if err := c.SetByzantine(1, adversary.Silent{}); err != nil {
		t.Fatal(err)
	}
	if err := c.PowerCycle(); err != ErrByzantinePowerCycle {
		t.Fatalf("power cycle with a Byzantine member: %v", err)
	}
}
