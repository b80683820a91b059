package trace

import (
	"testing"

	"genconsensus/internal/model"
	"genconsensus/internal/wire"
)

// envelopeOverhead is the fixed framing AppendEnvelope adds before the
// message encoding: version u8 + instance u64 + round u64 + sender u32.
const envelopeOverhead = 1 + 8 + 8 + 4

// encodedMessageSize returns the number of bytes the real wire codec
// spends on just the message portion of an envelope.
func encodedMessageSize(t *testing.T, m model.Message) int {
	t.Helper()
	enc := wire.AppendEnvelope(nil, wire.Envelope{
		Instance: 7,
		Round:    3,
		Sender:   2,
		Msg:      m,
	})
	return len(enc) - envelopeOverhead
}

// TestEstimateMatchesWire pins EstimateSize to the internal/wire encoder
// byte for byte across representative message shapes, so the simulator's
// byte accounting cannot drift from what the TCP runtime actually sends.
func TestEstimateMatchesWire(t *testing.T) {
	cases := []struct {
		name string
		msg  model.Message
	}{
		{"empty", model.Message{}},
		{"vote only", model.Message{Kind: model.SelectionRound, Vote: "v1", TS: 4}},
		{"history", model.Message{
			Vote:    "value-seven",
			History: model.History{{Val: "a", Phase: 1}, {Val: "longer-value", Phase: 2}, {Val: "", Phase: 3}},
		}},
		{"selector set", model.Message{
			Kind: model.ValidationRound,
			Sel:  []model.PID{0, 1, 2, 5},
		}},
		{"relay batch", model.Message{
			Kind: model.DecisionRound,
			Relay: []model.Signed{
				{Sender: 1, Msg: model.Message{Vote: "inner", TS: 2}, Sig: []byte("sig-bytes")},
				{Sender: 4, Msg: model.Message{History: model.History{{Val: "h", Phase: 9}}}},
			},
		}},
		{"kitchen sink", model.Message{
			Kind:    model.DecisionRound,
			Vote:    "winning-value",
			TS:      12,
			History: model.History{{Val: "winning-value", Phase: 11}},
			Sel:     []model.PID{0, 3},
			Relay: []model.Signed{
				{Sender: 2, Msg: model.Message{Vote: "echo", Sel: []model.PID{1}}, Sig: make([]byte, 32)},
			},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := EstimateSize(tc.msg)
			want := encodedMessageSize(t, tc.msg)
			if got != want {
				t.Errorf("EstimateSize = %d, wire encoding = %d bytes", got, want)
			}
		})
	}
}

// TestEstimateMatchesWireSigned checks the estimate against the
// authenticated encoding path too: envelopes between members travel inside
// session frames, and the session header and tag ride outside the message,
// so the message portion must still match exactly.
func TestEstimateMatchesWireSigned(t *testing.T) {
	m := model.Message{Vote: "signed-vote", History: model.History{{Val: "signed-vote", Phase: 1}}}
	env := wire.AppendEnvelope(nil, wire.Envelope{Instance: 1, Round: 1, Sender: 0, Msg: m})
	frame := wire.AppendSessionFrame(nil, 1, env,
		func(uint64, []byte) (tag [wire.SessionTagSize]byte) { return tag })
	_, tag, inner, err := wire.SplitSessionFrame(frame)
	if err != nil {
		t.Fatalf("SplitSessionFrame: %v", err)
	}
	if len(tag) != wire.SessionTagSize {
		t.Fatalf("session tag = %d bytes, want %d", len(tag), wire.SessionTagSize)
	}
	want := len(inner) - envelopeOverhead
	if got := EstimateSize(m); got != want {
		t.Errorf("EstimateSize = %d, session-framed wire encoding message portion = %d bytes", got, want)
	}
}
