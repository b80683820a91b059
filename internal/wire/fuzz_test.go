package wire

// Fuzz targets for the decoders that face the network. Each asserts the
// same two things: hostile bytes never panic, and anything that decodes
// re-encodes to exactly the bytes it came from (the codecs are canonical —
// there is one encoding per value, so a MAC over the bytes is a MAC over
// the value). Seeds are the round-trip tests' vectors; plain `go test`
// runs them, `go test -fuzz=FuzzDecode ./internal/wire` explores further.

import (
	"bytes"
	"strings"
	"testing"

	"genconsensus/internal/model"
)

func FuzzDecode(f *testing.F) {
	relay := Envelope{Instance: 1, Round: 4, Sender: 2, Msg: model.Message{
		Kind: model.SelectionRound,
		Relay: []model.Signed{{Sender: 0, Sig: []byte{1, 2, 3},
			Msg: model.Message{Kind: model.ValidationRound, Vote: "v1", TS: 2}}},
	}}
	for _, env := range []Envelope{sampleEnvelope(), testEnvelope(), relay, {}} {
		f.Add(AppendEnvelope(nil, env))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		env, err := Decode(payload)
		if err != nil {
			return
		}
		if again := AppendEnvelope(nil, env); !bytes.Equal(again, payload) {
			t.Fatalf("decoded %x re-encodes to %x", payload, again)
		}
	})
}

func FuzzDecodeCommandParts(f *testing.F) {
	for _, env := range []CommandEnvelope{
		{Client: 0, Seq: 1, Payload: "r|SET|k|v", MAC: testMAC(1)},
		{Client: 1<<32 - 1, Seq: 1<<64 - 1, Payload: strings.Repeat("p", 512), MAC: testMAC(0)},
		{Client: 3, Seq: 9, Payload: "binary\x00\x01\x02;:\npayload", MAC: testMAC(9)},
	} {
		enc, err := EncodeCommand(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add(cmdMagic + "01;1;1:x" + string(testMAC(0))) // non-canonical zero
	f.Fuzz(func(t *testing.T, v string) {
		client, seq, payload, mac, err := DecodeCommandParts(v)
		if err != nil {
			return
		}
		again, err := AppendCommandBytes(nil, client, seq, payload, []byte(mac))
		if err != nil || string(again) != v {
			t.Fatalf("decoded %q re-encodes to %q (%v)", v, again, err)
		}
	})
}

func FuzzSplitSessionFrame(f *testing.F) {
	tagged := func(uint64, []byte) (tag [SessionTagSize]byte) {
		copy(tag[:], "0123456789abcdef")
		return tag
	}
	f.Add(AppendSessionFrame(nil, 42, AppendEnvelope(nil, testEnvelope()), tagged))
	f.Add(AppendSessionFrame(nil, 0, nil, tagged))
	f.Add([]byte{SessionVersion})
	f.Fuzz(func(t *testing.T, payload []byte) {
		seq, tag, inner, err := SplitSessionFrame(payload)
		if err != nil {
			return
		}
		again := AppendSessionFrame(nil, seq, inner, func(uint64, []byte) (out [SessionTagSize]byte) {
			copy(out[:], tag)
			return out
		})
		if !bytes.Equal(again, payload) {
			t.Fatalf("split %x re-assembles to %x", payload, again)
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	h := Hello{Kind: HelloKindInit, Sender: 3}
	copy(h.Nonce[:], "dialer-nonce-16b")
	copy(h.MAC[:], bytes.Repeat([]byte{0xab}, HelloMACSize))
	f.Add(AppendHello(nil, h))
	h.Kind = HelloKindAck
	f.Add(AppendHello(nil, h))
	f.Add(make([]byte, HelloFrameSize))
	f.Fuzz(func(t *testing.T, payload []byte) {
		h, err := DecodeHello(payload)
		if err != nil {
			return
		}
		if again := AppendHello(nil, h); !bytes.Equal(again, payload) {
			t.Fatalf("decoded %x re-encodes to %x", payload, again)
		}
	})
}

func FuzzDecodePayload(f *testing.F) {
	signed := AppendSignedPayload(nil, sampleFetch(), func([]byte) []byte {
		return bytes.Repeat([]byte{0xcd}, 32)
	})
	f.Add(AppendPayload(nil, sampleAnnounce()))
	f.Add(signed)
	f.Add(AppendPayload(nil, Payload{Kind: PayloadFetchNone, Instance: 1<<64 - 1}))
	f.Add([]byte{PayloadVersion})
	f.Fuzz(func(t *testing.T, payload []byte) {
		p, err := DecodePayload(payload)
		if err != nil {
			return
		}
		if again := AppendPayload(nil, p); !bytes.Equal(again, payload) {
			t.Fatalf("decoded %x re-encodes to %x", payload, again)
		}
	})
}

func FuzzDecodeSnap(f *testing.F) {
	for _, env := range []SnapEnvelope{
		{Kind: SnapRequest, Sender: 3, Auth: []byte("mac")},
		{Kind: SnapNone, Sender: 1},
		{Kind: SnapChunk, Sender: 2, LastInstance: 40, LogIndex: 123,
			Digest: bytes.Repeat([]byte{7}, 32), ChunkIndex: 2, ChunkCount: 5,
			Data: bytes.Repeat([]byte{0xCD}, 300), Auth: bytes.Repeat([]byte{0xab}, SealedMACSize)},
		{Kind: DecisionReply, Sender: 1, LastInstance: PackGID(1, 9), Data: []byte("decided")},
	} {
		f.Add(AppendSnap(nil, env))
	}
	f.Add([]byte{SnapVersion})
	f.Fuzz(func(t *testing.T, payload []byte) {
		env, err := DecodeSnap(payload)
		if err != nil {
			return
		}
		if again := AppendSnap(nil, env); !bytes.Equal(again, payload) {
			t.Fatalf("decoded %x re-encodes to %x", payload, again)
		}
	})
}
