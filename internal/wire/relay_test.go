package wire

import (
	"bytes"
	"reflect"
	"testing"

	"genconsensus/internal/model"
)

// Relay batches (the WIC carrier messages) round-trip with one nesting
// level, including per-entry signatures.
func TestRelayRoundTrip(t *testing.T) {
	inner1 := model.Message{Kind: model.SelectionRound, Vote: "a", TS: 1,
		History: model.NewHistory("a")}
	inner2 := model.Message{Kind: model.SelectionRound, Vote: "b", TS: 2,
		Sel: model.AllPIDs(3)}
	env := Envelope{
		Instance: 1, Round: 4, Sender: 2,
		Msg: model.Message{
			Kind: model.SelectionRound,
			Relay: []model.Signed{
				{Sender: 0, Msg: inner1, Sig: []byte{1, 2, 3}},
				{Sender: 1, Msg: inner2},
			},
		},
	}
	got, err := Decode(AppendEnvelope(nil, env))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(env, got) {
		t.Fatalf("relay round trip mismatch:\n in: %+v\nout: %+v", env, got)
	}
}

// Nested relays beyond the depth cap are truncated on encode and rejected on
// hostile decode.
func TestRelayDepthCap(t *testing.T) {
	leaf := model.Message{Kind: model.DecisionRound, Vote: "v"}
	depth1 := model.Message{Relay: []model.Signed{{Sender: 0, Msg: leaf}}}
	depth2 := model.Message{Relay: []model.Signed{{Sender: 1, Msg: depth1}}}
	depth3 := model.Message{Relay: []model.Signed{{Sender: 2, Msg: depth2}}}
	env := Envelope{Round: 1, Sender: 0, Msg: depth3}
	got, err := Decode(AppendEnvelope(nil, env))
	if err != nil {
		t.Fatalf("depth-3 encode/decode: %v", err)
	}
	// The innermost relay (depth 3) must have been dropped by the encoder.
	d1 := got.Msg.Relay[0].Msg
	d2 := d1.Relay[0].Msg
	if len(d2.Relay) != 0 {
		t.Fatalf("depth cap not applied: %+v", d2)
	}
}

// Hostile relay/history/sel length prefixes are rejected without allocation.
func TestHostileLengthPrefixes(t *testing.T) {
	base := AppendEnvelope(nil, Envelope{Round: 1, Sender: 0,
		Msg: model.Message{Kind: model.DecisionRound, Vote: "v"}})
	// The layout places histLen at a fixed offset for this message:
	// version(1) instance(8) round(8) sender(4) kind(1) voteLen(2)+1 ts(8).
	histOff := 1 + 8 + 8 + 4 + 1 + 2 + 1 + 8
	hostile := append([]byte(nil), base...)
	hostile[histOff] = 0xff
	hostile[histOff+1] = 0xff
	if _, err := Decode(hostile); err == nil {
		t.Fatal("hostile history length accepted")
	}
	selOff := histOff + 2
	hostile = append([]byte(nil), base...)
	hostile[selOff] = 0xff
	hostile[selOff+1] = 0xff
	if _, err := Decode(hostile); err == nil {
		t.Fatal("hostile selector length accepted")
	}
	relayOff := selOff + 2
	hostile = append([]byte(nil), base...)
	hostile[relayOff] = 0xff
	hostile[relayOff+1] = 0xff
	if _, err := Decode(hostile); err == nil {
		t.Fatal("hostile relay length accepted")
	}
}

// Short readers surface errors.
func TestFrameIOErrors(t *testing.T) {
	// Truncated frame body.
	short := frameOf(t, []byte("hello"))[:6] // header + 2 bytes of 5-byte payload
	if _, err := ReadFrame(bytes.NewReader(short)); err == nil {
		t.Fatal("truncated payload accepted")
	}
	// Truncated header.
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0})); err == nil {
		t.Fatal("truncated header accepted")
	}
}
