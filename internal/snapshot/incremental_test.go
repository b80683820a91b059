package snapshot_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"genconsensus/internal/kv"
	"genconsensus/internal/snapshot"
)

func TestDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	base := randBytes(8192)
	cases := map[string][]byte{
		"identical":     append([]byte(nil), base...),
		"empty target":  {},
		"empty base":    randBytes(300),
		"prefix insert": append(randBytes(100), base...),
		"suffix append": append(append([]byte(nil), base...), randBytes(100)...),
		"unrelated":     randBytes(8192),
		"short base":    randBytes(32),
	}
	// Point mutations sprinkled through a copy.
	mutated := append([]byte(nil), base...)
	for i := 0; i < 40; i++ {
		mutated[rng.Intn(len(mutated))] ^= 0xFF
	}
	cases["point mutations"] = mutated
	// A middle deletion shifts every later offset.
	cases["mid deletion"] = append(append([]byte(nil), base[:3000]...), base[3100:]...)

	for name, target := range cases {
		b := base
		if name == "empty base" || name == "short base" {
			b = nil
		}
		delta := snapshot.EncodeDelta(b, target)
		got, err := snapshot.ApplyDelta(b, delta)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, target) {
			t.Fatalf("%s: delta round trip diverged (%d bytes vs %d)", name, len(got), len(target))
		}
	}
}

func TestDeltaRejectsWrongBase(t *testing.T) {
	base := bytes.Repeat([]byte("abcdefgh"), 512)
	target := append([]byte(nil), base...)
	target[100] = 'X'
	delta := snapshot.EncodeDelta(base, target)
	if _, err := snapshot.ApplyDelta(base[:len(base)-1], delta); err == nil {
		t.Fatal("delta applied to a base of the wrong length")
	}
	// Truncated delta frames must fail loudly, not misapply.
	for cut := 1; cut < len(delta); cut += 97 {
		if got, err := snapshot.ApplyDelta(base, delta[:cut]); err == nil && !bytes.Equal(got, target) {
			t.Fatalf("truncated delta (%d bytes) silently misapplied", cut)
		}
	}
}

// chainSnapshots builds a sequence of snapshots where each step mutates a
// handful of keys of a kv-shaped sorted state.
func chainSnapshots(t *testing.T, steps int) []*snapshot.Snapshot {
	t.Helper()
	store := kv.NewStore()
	rng := rand.New(rand.NewSource(99))
	apply := func(i int) {
		k := fmt.Sprintf("key-%05d", rng.Intn(2000))
		store.Apply(kv.Command(fmt.Sprintf("r-%d-%d", i, rng.Int()), "SET", k, fmt.Sprintf("v-%d", rng.Int())))
	}
	for i := 0; i < 2000; i++ {
		apply(-1)
	}
	snaps := make([]*snapshot.Snapshot, 0, steps)
	for s := 0; s < steps; s++ {
		for i := 0; i < 20; i++ {
			apply(s)
		}
		snaps = append(snaps, &snapshot.Snapshot{
			LastInstance: uint64(s + 1),
			LogIndex:     uint64((s + 1) * 20),
			State:        store.SnapshotState(),
		})
	}
	return snaps
}

func TestIncrementalChainRoundTrip(t *testing.T) {
	snaps := chainSnapshots(t, 9)
	enc := &snapshot.IncrementalEncoder{FullEvery: 4}
	var dec snapshot.IncrementalDecoder
	for i, want := range snaps {
		c := enc.Encode(want)
		wantKind := snapshot.DeltaCheckpoint
		if i%4 == 0 {
			wantKind = snapshot.FullCheckpoint
		}
		if c.Kind != wantKind {
			t.Fatalf("checkpoint %d: kind %d, want %d", i, c.Kind, wantKind)
		}
		decoded, err := snapshot.DecodeCheckpoint(snapshot.AppendCheckpoint(nil, c))
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		got, err := dec.Apply(decoded)
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		if got.LastInstance != want.LastInstance || got.LogIndex != want.LogIndex ||
			!bytes.Equal(got.State, want.State) {
			t.Fatalf("checkpoint %d: reconstructed snapshot diverged", i)
		}
		if snapshot.Digest(got) != snapshot.Digest(want) {
			t.Fatalf("checkpoint %d: digest diverged", i)
		}
	}
}

// TestAppendCheckpointExtendsDst pins the append-codec contract for
// checkpoints: the dst prefix survives and the appended bytes match a
// fresh-buffer encoding exactly.
func TestAppendCheckpointExtendsDst(t *testing.T) {
	snaps := chainSnapshots(t, 1)
	enc := &snapshot.IncrementalEncoder{FullEvery: 4}
	c := enc.Encode(snaps[0])
	prefix := []byte("hdr")
	out := snapshot.AppendCheckpoint(append([]byte(nil), prefix...), c)
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("dst prefix clobbered")
	}
	if !bytes.Equal(out[len(prefix):], snapshot.AppendCheckpoint(nil, c)) {
		t.Fatal("appended bytes differ from a fresh-buffer encoding")
	}
	if _, err := snapshot.DecodeCheckpoint(out[len(prefix):]); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalChainDetectsTampering(t *testing.T) {
	snaps := chainSnapshots(t, 3)
	enc := &snapshot.IncrementalEncoder{FullEvery: 8}
	ckpts := make([]*snapshot.Checkpoint, 0, len(snaps))
	for _, s := range snaps {
		ckpts = append(ckpts, enc.Encode(s))
	}

	// Flipping a payload byte of any link breaks that link's chain digest.
	for i := range ckpts {
		var dec snapshot.IncrementalDecoder
		failed := false
		for j, c := range ckpts {
			use := *c
			if j == i {
				use.Payload = append([]byte(nil), c.Payload...)
				use.Payload[len(use.Payload)/2] ^= 0x01
			}
			if _, err := dec.Apply(&use); err != nil {
				failed = true
				break
			}
		}
		if !failed {
			t.Fatalf("tampered link %d went undetected", i)
		}
	}

	// A delta without its base must be refused, not misapplied.
	var dec snapshot.IncrementalDecoder
	if _, err := dec.Apply(ckpts[1]); err == nil {
		t.Fatal("delta applied without its base")
	}
	// Skipping a link breaks the chain even though the base instance of the
	// later delta does not match.
	if _, err := dec.Apply(ckpts[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Apply(ckpts[2]); err == nil {
		t.Fatal("chain with a missing link went undetected")
	}
}

// TestIncrementalRatio is the acceptance bound: on a 10k-key store with a 1%
// mutation rate between checkpoints, the delta encodes in at most 20% of the
// full snapshot's bytes.
func TestIncrementalRatio(t *testing.T) {
	store := kv.NewStore()
	rng := rand.New(rand.NewSource(1))
	const keys = 10_000
	for i := 0; i < keys; i++ {
		store.Apply(kv.Command(fmt.Sprintf("seed-%d", i), "SET",
			fmt.Sprintf("key-%06d", i), fmt.Sprintf("value-%06d-%d", i, rng.Int63())))
	}
	base := &snapshot.Snapshot{LastInstance: 1, LogIndex: keys, State: store.SnapshotState()}

	// 1% of the keys change value.
	for i := 0; i < keys/100; i++ {
		k := fmt.Sprintf("key-%06d", rng.Intn(keys))
		store.Apply(kv.Command(fmt.Sprintf("mut-%d", i), "SET", k, fmt.Sprintf("mutated-%d", rng.Int63())))
	}
	next := &snapshot.Snapshot{LastInstance: 2, LogIndex: keys + keys/100, State: store.SnapshotState()}

	enc := &snapshot.IncrementalEncoder{FullEvery: 1 << 20}
	full := enc.Encode(base)
	delta := enc.Encode(next)
	if delta.Kind != snapshot.DeltaCheckpoint {
		t.Fatalf("second checkpoint kind %d, want delta", delta.Kind)
	}
	fullBytes := len(snapshot.AppendCheckpoint(nil, full))
	deltaBytes := len(snapshot.AppendCheckpoint(nil, delta))
	t.Logf("full %d bytes, delta %d bytes (%.1f%%)",
		fullBytes, deltaBytes, 100*float64(deltaBytes)/float64(fullBytes))
	if deltaBytes*5 > fullBytes {
		t.Fatalf("delta %d bytes exceeds 20%% of full %d bytes", deltaBytes, fullBytes)
	}

	var dec snapshot.IncrementalDecoder
	if _, err := dec.Apply(full); err != nil {
		t.Fatal(err)
	}
	got, err := dec.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.State, next.State) {
		t.Fatal("reconstructed mutated state diverged")
	}
}
