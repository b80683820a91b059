package wire

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

	"genconsensus/internal/model"
)

// sampleAnnounce is the round-trip vector (and a fuzz seed): an announce
// for a 64-bit instance id.
func sampleAnnounce() Payload {
	data := []byte("some encoded batch body")
	return Payload{
		Kind:     PayloadAnnounce,
		Sender:   3,
		Instance: 7<<48 | 9,
		Digest:   sha256.Sum256(data),
		Data:     data,
	}
}

func sampleFetch() Payload {
	return Payload{Kind: PayloadFetch, Sender: 2, Instance: 1<<48 | 1<<40, Digest: sha256.Sum256([]byte("x"))}
}

func TestPayloadRoundTrip(t *testing.T) {
	p := sampleAnnounce()
	enc := AppendPayload(nil, p)
	if val := AppendPayloadValue(nil, Payload{
		Kind: p.Kind, Sender: p.Sender, Instance: p.Instance, Digest: p.Digest,
	}, model.Value(p.Data)); !bytes.Equal(val, enc) {
		t.Fatal("AppendPayloadValue and AppendPayload disagree on the encoding")
	}
	if FrameFamily(enc) != PayloadVersion {
		t.Fatalf("FrameFamily = %d, want %d", FrameFamily(enc), PayloadVersion)
	}
	got, err := DecodePayload(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != p.Kind || got.Sender != p.Sender ||
		got.Instance != p.Instance || got.Digest != p.Digest || !bytes.Equal(got.Data, p.Data) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, p)
	}
}

func TestPayloadRejectsMalformed(t *testing.T) {
	data := make([]byte, MaxPayloadDataBytes+1)
	oversized := AppendPayload(nil, Payload{Kind: PayloadAnnounce, Digest: sha256.Sum256(data), Data: data})
	if _, err := DecodePayload(oversized); err == nil {
		t.Fatal("oversized data accepted")
	}
	good := AppendPayload(nil, Payload{Kind: PayloadAnnounce, Digest: sha256.Sum256(nil)})
	if _, err := DecodePayload(append(good, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := DecodePayload(good[:len(good)-3]); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if _, err := DecodePayload([]byte{Version}); err == nil {
		t.Fatal("wrong family accepted")
	}
	grouped := append([]byte(nil), good...)
	grouped[3] = 1 // the reserved group slot, bytes 2-3
	if _, err := DecodePayload(grouped); !errors.Is(err, ErrPayloadMalformed) {
		t.Fatalf("nonzero group: err = %v, want ErrPayloadMalformed", err)
	}
}
