package wire

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"genconsensus/internal/model"
)

// sampleAnnounce is the round-trip vector (and a fuzz seed): an announce
// for instance 9 of group 7.
func sampleAnnounce() Payload {
	data := []byte("some encoded batch body")
	return Payload{
		Kind:     PayloadAnnounce,
		Group:    7,
		Sender:   3,
		Instance: PackGID(7, 9),
		Digest:   sha256.Sum256(data),
		Data:     data,
	}
}

func sampleFetch() Payload {
	return Payload{Kind: PayloadFetch, Group: 1, Sender: 2, Instance: PackGID(1, 1<<40), Digest: sha256.Sum256([]byte("x"))}
}

func TestPayloadRoundTrip(t *testing.T) {
	p := sampleAnnounce()
	enc := AppendPayload(nil, p)
	if val := AppendPayloadValue(nil, Payload{
		Kind: p.Kind, Group: p.Group, Sender: p.Sender, Instance: p.Instance, Digest: p.Digest,
	}, model.Value(p.Data)); !bytes.Equal(val, enc) {
		t.Fatal("AppendPayloadValue and AppendPayload disagree on the encoding")
	}
	if !IsPayloadFrame(enc) {
		t.Fatal("IsPayloadFrame = false")
	}
	if FrameFamily(enc) != PayloadVersion {
		t.Fatalf("FrameFamily = %d, want %d", FrameFamily(enc), PayloadVersion)
	}
	got, err := DecodePayload(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != p.Kind || got.Group != p.Group || got.Sender != p.Sender ||
		got.Instance != p.Instance || got.Digest != p.Digest || !bytes.Equal(got.Data, p.Data) || len(got.Auth) != 0 {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, p)
	}
}

func TestPayloadSigned(t *testing.T) {
	p := sampleFetch()
	mac := []byte("0123456789abcdef0123456789abcdef")
	var covered []byte
	enc := AppendSignedPayload(nil, p, func(payload []byte) []byte {
		covered = append([]byte(nil), payload...)
		return mac
	})
	gotCovered, gotMAC, ok := SplitSealed(enc)
	if !ok {
		t.Fatal("SplitSealed failed")
	}
	if !bytes.Equal(gotCovered, covered) || !bytes.Equal(gotMAC, mac) {
		t.Fatal("sealed layout mismatch")
	}
	got, err := DecodePayload(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Auth, mac) || got.Kind != PayloadFetch || got.Sender != 2 || got.Instance != p.Instance {
		t.Fatalf("signed round trip mismatch: %+v", got)
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
}
