package snapshot

// Fuzz targets for the decoders state transfer and recovery trust: hostile
// bytes never panic, and anything a codec accepts re-encodes to exactly
// the bytes it came from. Seeds are the round-trip tests' shapes; plain
// `go test` runs them, `go test -fuzz=FuzzApplyDelta ./internal/snapshot`
// explores further.

import (
	"bytes"
	"testing"
)

func FuzzSnapshotDecode(f *testing.F) {
	for _, s := range []*Snapshot{
		{},
		{LastInstance: 7, LogIndex: 42, State: []byte("hello")},
		{LastInstance: 1 << 40, LogIndex: 1 << 33, State: bytes.Repeat([]byte{0xAB}, 64)},
	} {
		f.Add(AppendSnapshot(nil, s))
	}
	f.Add([]byte(magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		if again := AppendSnapshot(nil, s); !bytes.Equal(again, data) {
			t.Fatalf("decoded %x re-encodes to %x", data, again)
		}
	})
}

// fuzzChain is a short checkpoint chain over small states: one full link,
// then deltas.
func fuzzChain() []*Checkpoint {
	state := bytes.Repeat([]byte("key-value;"), 40)
	enc := IncrementalEncoder{FullEvery: 4}
	var out []*Checkpoint
	for i := 0; i < 3; i++ {
		state = append([]byte(nil), state...)
		state[37*i+5] ^= 0xFF
		out = append(out, enc.Encode(&Snapshot{LastInstance: uint64(i + 1), LogIndex: uint64(10 * (i + 1)), State: state}))
	}
	return out
}

func FuzzDecodeCheckpoint(f *testing.F) {
	for _, c := range fuzzChain() {
		f.Add(AppendCheckpoint(nil, c))
	}
	f.Add([]byte(ckptMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if again := AppendCheckpoint(nil, c); !bytes.Equal(again, data) {
			t.Fatalf("decoded %x re-encodes to %x", data, again)
		}
		// A decoded link must not panic the chain verifier either.
		var dec IncrementalDecoder
		_, _ = dec.Apply(c)
	})
}

// FuzzApplyDelta feeds ApplyDelta hostile deltas against arbitrary bases,
// and checks the codec round trip with the second input as a target:
// ApplyDelta(base, EncodeDelta(base, target)) == target.
func FuzzApplyDelta(f *testing.F) {
	base := bytes.Repeat([]byte("abcdefgh"), 64)
	mutated := append([]byte(nil), base...)
	mutated[100] = 'X'
	for _, target := range [][]byte{base, mutated, {}, append([]byte("prefix"), base...)} {
		f.Add(base, EncodeDelta(base, target))
	}
	f.Add([]byte{}, EncodeDelta(nil, []byte("from nothing")))
	f.Fuzz(func(t *testing.T, base, delta []byte) {
		if out, err := ApplyDelta(base, delta); err == nil && len(out) > MaxStateBytes {
			t.Fatalf("accepted a %d-byte target", len(out))
		}
		target := delta
		got, err := ApplyDelta(base, EncodeDelta(base, target))
		if err != nil {
			t.Fatalf("own delta refused: %v", err)
		}
		if !bytes.Equal(got, target) {
			t.Fatalf("round trip: got %x, want %x", got, target)
		}
	})
}
