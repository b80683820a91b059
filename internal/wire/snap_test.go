package wire

import (
	"bytes"
	"testing"
)

func TestSnapEncodeDecodeRoundTrip(t *testing.T) {
	cases := []SnapEnvelope{
		{Kind: SnapRequest, Sender: 3},
		{Kind: SnapNone, Sender: 1},
		{
			Kind: SnapChunk, Sender: 2,
			LastInstance: 40, LogIndex: 123,
			Digest:     bytes.Repeat([]byte{7}, 32),
			ChunkIndex: 2, ChunkCount: 5,
			Data: bytes.Repeat([]byte{0xCD}, 70_000), // > u16 range
		},
	}
	for i, want := range cases {
		got, err := DecodeSnap(AppendSnap(nil, want))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.Sender != want.Sender ||
			got.LastInstance != want.LastInstance || got.LogIndex != want.LogIndex ||
			got.ChunkIndex != want.ChunkIndex || got.ChunkCount != want.ChunkCount {
			t.Fatalf("case %d: metadata mismatch: %+v", i, got)
		}
		if !bytes.Equal(got.Digest, want.Digest) || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("case %d: payload mismatch", i)
		}
	}
}

func TestSnapPayloadDiscrimination(t *testing.T) {
	snap := AppendSnap(nil, SnapEnvelope{Kind: SnapRequest, Sender: 1})
	if FrameFamily(snap) != SnapVersion {
		t.Error("snapshot payload not recognized")
	}
	env := AppendEnvelope(nil, Envelope{Instance: 1, Round: 1, Sender: 0})
	if FrameFamily(env) == SnapVersion {
		t.Error("consensus payload misrouted to snapshot family")
	}
	// The consensus decoder rejects snapshot payloads (version byte) and
	// vice versa, so the families cannot be confused after routing.
	if _, err := Decode(snap); err == nil {
		t.Error("consensus decoder accepted a snapshot payload")
	}
	if _, err := DecodeSnap(env); err == nil {
		t.Error("snapshot decoder accepted a consensus payload")
	}
}

func TestSnapDecodeRejectsMalformed(t *testing.T) {
	good := AppendSnap(nil, SnapEnvelope{
		Kind: SnapChunk, Sender: 1, Digest: []byte{1, 2}, ChunkCount: 1,
		Data: []byte("data"),
	})
	bad := [][]byte{
		nil,
		good[:5],
		good[:len(good)-1],
		append(append([]byte{}, good...), 9),
	}
	for i, b := range bad {
		if _, err := DecodeSnap(b); err == nil {
			t.Errorf("case %d: decoded malformed payload", i)
		}
	}
	// Unknown kind.
	evil := AppendSnap(nil, SnapEnvelope{Kind: SnapKind(99), Sender: 1})
	if _, err := DecodeSnap(evil); err == nil {
		t.Error("decoded unknown kind")
	}
}
