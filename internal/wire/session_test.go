package wire

import (
	"bytes"
	"errors"
	"testing"

	"genconsensus/internal/model"
)

func testEnvelope() Envelope {
	return Envelope{
		Instance: 7,
		Round:    3,
		Sender:   2,
		Msg: model.Message{
			Kind: model.SelectionRound,
			Vote: "v",
			TS:   1,
			Sel:  []model.PID{0, 1, 2},
		},
	}
}

func TestAppendEnvelopeKeepsPrefix(t *testing.T) {
	env := testEnvelope()
	want := AppendEnvelope(nil, env)
	pre := AppendEnvelope([]byte("xx"), env)
	if string(pre[:2]) != "xx" || !bytes.Equal(pre[2:], want) {
		t.Fatal("AppendEnvelope clobbered the prefix")
	}
}

func TestFramePoolRoundTrip(t *testing.T) {
	buf := GetFrame()
	if len(buf) != 0 {
		t.Fatalf("GetFrame returned %d bytes", len(buf))
	}
	buf = BeginFrame(buf)
	buf = AppendEnvelope(buf, testEnvelope())
	buf, err := FinishFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(payload); err != nil {
		t.Fatal(err)
	}
	PutFrame(buf)
}

func TestReadFrameInto(t *testing.T) {
	var stream bytes.Buffer
	env := testEnvelope()
	for i := 0; i < 3; i++ {
		env.Instance = uint64(i)
		frame, err := FinishFrame(AppendEnvelope(BeginFrame(nil), env))
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(frame)
	}
	var buf []byte
	for i := 0; i < 3; i++ {
		var payload []byte
		var err error
		payload, buf, err = ReadFrameInto(&stream, buf)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Instance != uint64(i) {
			t.Fatalf("frame %d decoded instance %d", i, dec.Instance)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{Kind: HelloKindInit, Sender: 3}
	copy(h.Nonce[:], "dialer-nonce-16b")
	copy(h.MAC[:], bytes.Repeat([]byte{0xab}, HelloMACSize))
	payload := AppendHello(nil, h)
	if len(payload) != HelloFrameSize {
		t.Fatalf("hello frame is %d bytes, want %d", len(payload), HelloFrameSize)
	}
	if FrameFamily(payload) != HelloVersion {
		t.Fatal("hello frame not in the HELLO family")
	}
	dec, err := DecodeHello(payload)
	if err != nil {
		t.Fatal(err)
	}
	if dec != h {
		t.Fatalf("round trip mismatch: %+v != %+v", dec, h)
	}
}

func TestDecodeHelloRejectsMalformed(t *testing.T) {
	h := Hello{Kind: HelloKindAck, Sender: 1}
	good := AppendHello(nil, h)
	// Truncated.
	if _, err := DecodeHello(good[:len(good)-1]); !errors.Is(err, ErrBadHello) {
		t.Errorf("truncated hello: %v", err)
	}
	// Oversized (padded).
	if _, err := DecodeHello(append(append([]byte(nil), good...), 0)); !errors.Is(err, ErrBadHello) {
		t.Errorf("oversized hello: %v", err)
	}
	// Wrong kind.
	bad := append([]byte(nil), good...)
	bad[1] = 9
	if _, err := DecodeHello(bad); !errors.Is(err, ErrBadHello) {
		t.Errorf("bad kind: %v", err)
	}
	// Empty.
	if _, err := DecodeHello(nil); !errors.Is(err, ErrBadHello) {
		t.Errorf("empty hello: %v", err)
	}
}

func TestSessionFrameRoundTrip(t *testing.T) {
	inner := AppendEnvelope(nil, testEnvelope())
	var fixed [SessionTagSize]byte
	copy(fixed[:], "sixteen-byte-tag")
	payload := AppendSessionFrame(nil, 42, inner, func(seq uint64, p []byte) [SessionTagSize]byte {
		if seq != 42 || !bytes.Equal(p, inner) {
			t.Fatal("mac callback saw wrong inputs")
		}
		return fixed
	})
	if FrameFamily(payload) != SessionVersion {
		t.Fatal("session frame not in the session family")
	}
	seq, tag, gotInner, err := SplitSessionFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 || !bytes.Equal(tag, fixed[:]) || !bytes.Equal(gotInner, inner) {
		t.Fatal("session frame fields did not round trip")
	}
	if _, err := Decode(gotInner); err != nil {
		t.Fatalf("inner envelope decode: %v", err)
	}
}

func TestSplitSessionFrameRejectsMalformed(t *testing.T) {
	if _, _, _, err := SplitSessionFrame([]byte{SessionVersion, 0, 0}); !errors.Is(err, ErrBadSession) {
		t.Errorf("short session frame: %v", err)
	}
	if _, _, _, err := SplitSessionFrame(make([]byte, 64)); !errors.Is(err, ErrNotSession) {
		t.Errorf("wrong version byte: %v", err)
	}
}

func TestAppendCommandMatchesEncodeCommand(t *testing.T) {
	env := CommandEnvelope{
		Client:  12,
		Seq:     3456,
		Payload: "SET|k|v",
		MAC:     bytes.Repeat([]byte{0x5a}, CommandMACSize),
	}
	want, err := EncodeCommand(env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendCommand(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatal("AppendCommand and EncodeCommand disagree")
	}
	if len(want) != EncodedCommandSize(env.Client, env.Seq, len(env.Payload)) {
		t.Fatalf("EncodedCommandSize %d != actual %d",
			EncodedCommandSize(env.Client, env.Seq, len(env.Payload)), len(want))
	}
	dec, err := DecodeCommand(want)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Client != env.Client || dec.Seq != env.Seq || dec.Payload != env.Payload {
		t.Fatal("command round trip mismatch")
	}
}
