package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"genconsensus/internal/model"
)

func sampleEnvelope() Envelope {
	return Envelope{
		Instance: 7,
		Round:    12,
		Sender:   3,
		Msg: model.Message{
			Kind:    model.SelectionRound,
			Vote:    "value-a",
			TS:      4,
			History: model.NewHistory("value-a").Add("value-b", 2),
			Sel:     []model.PID{0, 1, 2, 3},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	env := sampleEnvelope()
	got, err := Decode(AppendEnvelope(nil, env))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(env, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", env, got)
	}
}

func TestRoundTripMinimal(t *testing.T) {
	env := Envelope{Round: 1, Sender: 0, Msg: model.Message{Kind: model.DecisionRound, Vote: "v"}}
	got, err := Decode(AppendEnvelope(nil, env))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(env, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", env, got)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	payload := AppendEnvelope(nil, sampleEnvelope())
	payload[0] = 99
	if _, err := Decode(payload); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	payload := AppendEnvelope(nil, sampleEnvelope())
	for cut := 0; cut < len(payload); cut++ {
		if _, err := Decode(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	payload := append(AppendEnvelope(nil, sampleEnvelope()), 0x00)
	if _, err := Decode(payload); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated for trailing bytes", err)
	}
}

// frameOf assembles payload into one length-prefixed frame.
func frameOf(t *testing.T, payload []byte) []byte {
	t.Helper()
	frame, err := FinishFrame(append(BeginFrame(nil), payload...))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := AppendEnvelope(nil, sampleEnvelope())
	buf.Write(frameOf(t, payload))
	buf.Write(frameOf(t, []byte("second")))
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("first frame mismatch")
	}
	got, err = ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Errorf("second frame = %q", got)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	if _, err := FinishFrame(make([]byte, FrameHeaderSize+MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v", err)
	}
	// A hostile length prefix must be rejected before allocation.
	hostile := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(hostile)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("hostile prefix: %v", err)
	}
}

// Property: encode/decode is the identity on well-formed envelopes.
func TestRoundTripProperty(t *testing.T) {
	vals := []model.Value{"", "a", "bb", "value-with-name"}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := Envelope{
			Instance: rng.Uint64() % 1000,
			Round:    model.Round(rng.Intn(300)),
			Sender:   model.PID(rng.Intn(16)),
			Msg: model.Message{
				Kind: model.RoundKind(1 + rng.Intn(3)),
				Vote: vals[rng.Intn(len(vals))],
				TS:   model.Phase(rng.Intn(40)),
			},
		}
		for i := 0; i < rng.Intn(5); i++ {
			env.Msg.History = append(env.Msg.History, model.HistEntry{
				Val:   vals[1+rng.Intn(len(vals)-1)],
				Phase: model.Phase(rng.Intn(9)),
			})
		}
		for i := 0; i < rng.Intn(5); i++ {
			env.Msg.Sel = append(env.Msg.Sel, model.PID(rng.Intn(16)))
		}
		got, err := Decode(AppendEnvelope(nil, env))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(env, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Decode never panics on random bytes.
func TestDecodeFuzzProperty(t *testing.T) {
	prop := func(data []byte) bool {
		_, _ = Decode(data) // must not panic
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
