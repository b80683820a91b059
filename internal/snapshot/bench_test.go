package snapshot_test

import (
	"fmt"
	"math/rand"
	"testing"

	"genconsensus/internal/kv"
	"genconsensus/internal/snapshot"
)

// benchStates builds the acceptance workload: a 10k-key store's state
// before and after a 1% mutation wave.
func benchStates(b *testing.B) (base, next *snapshot.Snapshot) {
	b.Helper()
	store := kv.NewStore()
	rng := rand.New(rand.NewSource(5))
	const keys = 10_000
	for i := 0; i < keys; i++ {
		store.Apply(kv.Command(fmt.Sprintf("seed-%d", i), "SET",
			fmt.Sprintf("key-%06d", i), fmt.Sprintf("value-%06d-%d", i, rng.Int63())))
	}
	base = &snapshot.Snapshot{LastInstance: 1, LogIndex: keys, State: store.SnapshotState()}
	for i := 0; i < keys/100; i++ {
		store.Apply(kv.Command(fmt.Sprintf("mut-%d", i), "SET",
			fmt.Sprintf("key-%06d", rng.Intn(keys)), fmt.Sprintf("mutated-%d", rng.Int63())))
	}
	next = &snapshot.Snapshot{LastInstance: 2, LogIndex: keys + keys/100, State: store.SnapshotState()}
	return base, next
}

// BenchmarkIncrementalSnapshot compares checkpoint encodings on the
// 10k-key / 1% mutation workload: "full" re-encodes the whole state every
// interval (the pre-incremental behaviour), "delta" encodes only the
// change against the previous checkpoint. snap-bytes reports the encoded
// checkpoint size each mode writes (and transfers) per interval.
func BenchmarkIncrementalSnapshot(b *testing.B) {
	base, next := benchStates(b)
	b.Run("full", func(b *testing.B) {
		enc := &snapshot.IncrementalEncoder{FullEvery: 1}
		var out int
		for i := 0; i < b.N; i++ {
			ck := enc.Encode(next)
			out = len(snapshot.AppendCheckpoint(nil, ck))
		}
		b.ReportMetric(float64(out), "snap-bytes")
	})
	b.Run("delta", func(b *testing.B) {
		var out int
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			enc := &snapshot.IncrementalEncoder{FullEvery: 1 << 30}
			enc.Encode(base)
			b.StartTimer()
			ck := enc.Encode(next)
			out = len(snapshot.AppendCheckpoint(nil, ck))
		}
		b.ReportMetric(float64(out), "snap-bytes")
	})
}
