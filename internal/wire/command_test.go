package wire

import (
	"bytes"
	"strings"
	"testing"
)

func testMAC(b byte) []byte {
	mac := make([]byte, CommandMACSize)
	for i := range mac {
		mac[i] = b
	}
	return mac
}

func TestCommandRoundTrip(t *testing.T) {
	cases := []CommandEnvelope{
		{Client: 0, Seq: 1, Payload: "r|SET|k|v", MAC: testMAC(1)},
		{Client: 7, Seq: 1 << 40, Payload: "x", MAC: testMAC(0xff)},
		{Client: 1<<32 - 1, Seq: 1<<64 - 1, Payload: strings.Repeat("p", 512), MAC: testMAC(0)},
		{Client: 3, Seq: 9, Payload: "binary\x00\x01\x02;:\npayload", MAC: testMAC(9)},
	}
	for _, env := range cases {
		enc, err := EncodeCommand(env)
		if err != nil {
			t.Fatalf("encode %+v: %v", env, err)
		}
		if got := EncodedCommandSize(env.Client, env.Seq, len(env.Payload)); got != len(enc) {
			t.Fatalf("EncodedCommandSize = %d, encoded %d bytes", got, len(enc))
		}
		dec, err := DecodeCommand(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if dec.Client != env.Client || dec.Seq != env.Seq || dec.Payload != env.Payload ||
			!bytes.Equal(dec.MAC, env.MAC) {
			t.Fatalf("round trip: got %+v, want %+v", dec, env)
		}
	}
}

func TestCommandEncodeRejects(t *testing.T) {
	cases := []struct {
		name string
		env  CommandEnvelope
	}{
		{"empty payload", CommandEnvelope{Payload: "", MAC: testMAC(1)}},
		{"oversized payload", CommandEnvelope{Payload: strings.Repeat("x", MaxCommandPayloadBytes+1), MAC: testMAC(1)}},
		{"short MAC", CommandEnvelope{Payload: "p", MAC: testMAC(1)[:31]}},
		{"long MAC", CommandEnvelope{Payload: "p", MAC: append(testMAC(1), 0)}},
		{"no MAC", CommandEnvelope{Payload: "p"}},
	}
	for _, tc := range cases {
		if _, err := EncodeCommand(tc.env); err == nil {
			t.Errorf("%s: encode succeeded", tc.name)
		}
	}
}

// TestCommandDecodeRejects is the wire half of the forgery corpus: every
// mutation a Byzantine proposer might put on the wire must fail strict
// decoding.
func TestCommandDecodeRejects(t *testing.T) {
	good, err := EncodeCommand(CommandEnvelope{Client: 4, Seq: 17, Payload: "r|SET|k|v", MAC: testMAC(5)})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"no magic", "4;17;9:r|SET|k|vAAAA"},
		{"raw payload", "r|SET|k|v"},
		{"truncated header", good[:len(cmdMagic)+2]},
		{"truncated payload", good[:len(good)-CommandMACSize-3]},
		{"truncated MAC", good[:len(good)-1]},
		{"trailing bytes", good + "x"},
		{"leading zero client", cmdMagic + "04;17;1:p" + string(testMAC(5))},
		{"bad digit", cmdMagic + "4a;17;1:p" + string(testMAC(5))},
		{"zero payload length", cmdMagic + "4;17;0:" + string(testMAC(5))},
		{"missing separators", cmdMagic + "417"},
		{"overflow seq", cmdMagic + "4;99999999999999999999999;1:p" + string(testMAC(5))},
		{"client out of range", cmdMagic + "4294967296;17;1:p" + string(testMAC(5))},
	}
	for _, tc := range cases {
		if _, err := DecodeCommand(tc.in); err == nil {
			t.Errorf("%s: decode accepted %q", tc.name, tc.in)
		}
	}
	// Sanity: the unmutated encoding still decodes.
	if _, err := DecodeCommand(good); err != nil {
		t.Fatalf("good envelope rejected: %v", err)
	}
}
