package smr

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
)

// The checkpoint is a shadow state machine advanced by replaying the decided
// log, and its bytes are produced only on demand. These tests pin the
// invariant that makes that invisible: at every boundary, what Latest hands
// out is byte for byte what encoding the live state at that boundary would
// have been.

const shadowSeed = 4242

// shadowRig is one replica with its store and snapshot manager.
type shadowRig struct {
	store *kv.Store
	rep   *Replica
	mgr   *SnapshotManager
}

// shadowMode configures the rigs and generates the decided command stream.
type shadowMode struct {
	name string
	cfg  SnapshotConfig
	// setup puts a fresh store/replica pair into the mode.
	setup func(*kv.Store, *Replica)
	// command draws the next decided command.
	command func(rng *rand.Rand) model.Value
}

func newShadowRig(t *testing.T, id int, mode *shadowMode) *shadowRig {
	t.Helper()
	store := kv.NewStore()
	// Warm state loaded behind the manager's back before the store verifies
	// anything, as the bench harness preloads: the first boundary's fork
	// must pick it up.
	for i := 0; i < 5; i++ {
		store.Apply(kv.Command(fmt.Sprintf("pre-%d", i), "SET", fmt.Sprintf("key-%d", i), "warm"))
	}
	rep := NewReplica(model.PID(id), store)
	mode.setup(store, rep)
	mgr, err := NewSnapshotManager(rep, mode.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &shadowRig{store, rep, mgr}
}

// authShadowMode: signed envelopes deduplicated through small per-client
// sequence windows. The stream mixes fresh sequence numbers with duplicates,
// jumps ahead, numbers far below the horizon, and values that must be
// refused: unsigned commands, wrong-key signatures, a foreign client.
func authShadowMode() *shadowMode {
	const seed, window = 99, 8
	keyring := auth.NewClientKeyring(seed, 3)
	signers := []*auth.ClientSigner{
		auth.NewClientSigner(seed, 1), auth.NewClientSigner(seed, 2), auth.NewClientSigner(seed, 3),
	}
	forgers := []*auth.ClientSigner{
		auth.NewClientSigner(seed+1, 1), // provisioned id, wrong key
		auth.NewClientSigner(seed, 9),   // id outside the keyring
	}
	next := make([]uint64, len(signers))
	return &shadowMode{
		name: "auth",
		cfg:  SnapshotConfig{Interval: 4},
		setup: func(s *kv.Store, r *Replica) {
			ax := NewAuthContext(keyring, window)
			r.SetCommandAuth(ax)
			s.EnableClientAuth(ax, window)
		},
		command: func(rng *rand.Rand) model.Value {
			c := rng.Intn(len(signers))
			signer, seq := signers[c], next[c]+1
			switch roll := rng.Intn(20); {
			case roll == 0:
				return kv.Command("unsigned", "SET", "key-0", "x")
			case roll == 1:
				signer = forgers[rng.Intn(len(forgers))]
			case roll < 5 && next[c] > 0: // duplicate inside the window
				seq = next[c] - uint64(rng.Intn(min(int(next[c]), window)))
			case roll < 7 && next[c] > 2*window: // far below the horizon
				seq = 1 + uint64(rng.Intn(int(next[c])-2*window))
			case roll < 9: // jump ahead: evicts several window entries at once
				seq = next[c] + 2 + uint64(rng.Intn(2*window))
				next[c] = seq
			default:
				next[c] = seq
			}
			op := "SET"
			if rng.Intn(4) == 0 {
				op = "DEL"
			}
			cmd, err := kv.SignedCommand(signer, seq, op,
				fmt.Sprintf("key-%d", rng.Intn(12)), fmt.Sprintf("v%d", rng.Intn(1000)))
			if err != nil {
				panic(err)
			}
			return cmd
		},
	}
}

// decided draws one instance's decided value: NoOp, a bare command, or a
// batch (entries unique by bytes, as the codec demands).
func (m *shadowMode) decided(rng *rand.Rand) model.Value {
	switch rng.Intn(8) {
	case 0:
		return NoOp
	case 1:
		return m.command(rng)
	}
	seen := make(map[model.Value]bool)
	var cmds []model.Value
	for n := 1 + rng.Intn(6); len(cmds) < n; {
		if cmd := m.command(rng); !seen[cmd] {
			seen[cmd] = true
			cmds = append(cmds, cmd)
		}
	}
	batch, err := EncodeBatch(cmds)
	if err != nil {
		panic(err)
	}
	return batch
}

func TestShadowCheckpointMatchesLiveState(t *testing.T) {
	for _, mode := range []*shadowMode{authShadowMode()} {
		t.Run(mode.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(shadowSeed))
			rigs := []*shadowRig{newShadowRig(t, 0, mode), newShadowRig(t, 1, mode)}
			boundaries, reforks := 0, 0
			for instance := uint64(1); instance <= 600; instance++ {
				decided := mode.decided(rng)
				for _, rig := range rigs {
					rig.rep.Commit(decided)
				}
				if !rigs[0].mgr.MaybeSnapshot(instance) {
					continue
				}
				rigs[1].mgr.MaybeSnapshot(instance)
				boundaries++
				var digests [2][32]byte
				for i, rig := range rigs {
					// The boundary prunes the live store first, so the live
					// encoding taken now is the boundary's state.
					live := rig.store.SnapshotState()
					snap, digest, ok := rig.mgr.Latest()
					if !ok || snap.LastInstance != instance || snap.LogIndex != uint64(rig.rep.Log.Len()) {
						t.Fatalf("instance %d replica %d: latest = %+v, %v", instance, i, snap, ok)
					}
					if !bytes.Equal(snap.State, live) {
						t.Fatalf("instance %d replica %d: checkpoint state (%d bytes) differs from the live state (%d bytes)",
							instance, i, len(snap.State), len(live))
					}
					if rig.rep.Log.FirstIndex() != snap.LogIndex {
						t.Fatalf("instance %d replica %d: log not compacted to %d", instance, i, snap.LogIndex)
					}
					digests[i] = digest
				}
				if digests[0] != digests[1] {
					t.Fatalf("instance %d: replicas' checkpoint digests differ", instance)
				}
				// Now and then replica 1 loses everything and rejoins from
				// replica 0's checkpoint: Install drops the shadow, and the
				// next boundary must re-fork rather than replay a log that
				// no longer reaches back.
				if rng.Intn(10) == 0 {
					snap, _, _ := rigs[0].mgr.Latest()
					rigs[1] = newShadowRig(t, 1, mode)
					if err := rigs[1].mgr.Install(snap); err != nil {
						t.Fatal(err)
					}
					if got, _, ok := rigs[1].mgr.Latest(); !ok || got != snap {
						t.Fatalf("instance %d: install did not adopt the snapshot as latest", instance)
					}
					reforks++
				}
			}
			if boundaries != 600/int(mode.cfg.Interval) || reforks == 0 {
				t.Fatalf("stream exercised %d boundaries and %d reinstalls", boundaries, reforks)
			}
		})
	}
}

// Latest is the transport's snapshot provider: peers call it from their own
// goroutines while the commit path checkpoints. Every answer must be a
// consistent (watermark, state, digest) triple, and however hard the peers
// hammer, the state is encoded at most once per checkpoint.
func TestShadowLatestConcurrentWithCommits(t *testing.T) {
	mode := authShadowMode()
	rig := newShadowRig(t, 0, mode)
	reference := newShadowRig(t, 1, mode) // same stream, asked once per boundary
	rng := rand.New(rand.NewSource(shadowSeed))

	want := make(map[uint64][32]byte) // boundary → digest, from the reference
	var wantMu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, digest, ok := rig.mgr.Latest()
				if !ok {
					continue
				}
				wantMu.Lock()
				ref, known := want[snap.LastInstance]
				wantMu.Unlock()
				if known && digest != ref {
					t.Errorf("checkpoint %d served with a digest the reference replica does not have", snap.LastInstance)
					return
				}
			}
		}()
	}
	for instance := uint64(1); instance <= 400; instance++ {
		decided := mode.decided(rng)
		reference.rep.Commit(decided)
		if reference.mgr.MaybeSnapshot(instance) {
			_, digest, _ := reference.mgr.Latest()
			wantMu.Lock()
			want[instance] = digest
			wantMu.Unlock()
		}
		rig.rep.Commit(decided)
		rig.mgr.MaybeSnapshot(instance)
	}
	close(stop)
	wg.Wait()
	if _, digest, _ := rig.mgr.Latest(); digest != want[400] {
		t.Error("final checkpoint digest differs from the reference replica's")
	}
}

// BenchmarkCheckpoint: the commit-path cost of a boundary depends on the
// commands committed since the previous one (4 instances of 16 overwrites
// here), not on how much state the store holds.
func BenchmarkCheckpoint(b *testing.B) {
	for _, keys := range []int{1 << 10, 16 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("keys=%dk", keys>>10), func(b *testing.B) {
			store := kv.NewStore()
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("key-%07d", k)
				store.Apply(kv.Command(key, "SET", key, "value-000000000000000000000000"))
			}
			if store.Len() != keys {
				b.Fatalf("preloaded %d keys, want %d", store.Len(), keys)
			}
			ax := NewAuthContext(testKeyring(), 0)
			store.EnableClientAuth(ax, 0)
			rep := NewReplica(0, store)
			rep.SetCommandAuth(ax)
			mgr, err := NewSnapshotManager(rep, SnapshotConfig{Interval: 4})
			if err != nil {
				b.Fatal(err)
			}
			const perInstance = 16
			req := 0
			interval := func() {
				for i := 0; i < 4; i++ {
					cmds := make([]model.Value, perInstance)
					for j := range cmds {
						req++
						cmds[j] = signedKV(b, testSigner(1), uint64(req), fmt.Sprintf("key-%07d", (req*7919)%keys), "value-111111111111111111111111")
					}
					batch, err := EncodeBatch(cmds)
					if err != nil {
						b.Fatal(err)
					}
					rep.Commit(batch)
				}
			}
			interval()
			mgr.Checkpoint(4) // the first boundary forks: O(state), once
			var inCheckpoint time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				interval()
				start := time.Now()
				mgr.Checkpoint(uint64(8 + 4*i))
				inCheckpoint += time.Since(start)
			}
			// ns/op includes committing the interval; the boundary alone is:
			b.ReportMetric(float64(inCheckpoint.Nanoseconds())/float64(b.N), "ns/checkpoint")
		})
	}
}
