package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file defines the two frame families added by wire protocol v3: the
// HELLO handshake (version byte 3) that authenticates a connection once at
// establishment, and the session frame (version byte 4) that wraps an
// inner payload with a cheap truncated MAC plus a strictly monotonic
// sequence once the handshake completed.
//
// Handshake state machine (one per connection, dialer on the left):
//
//	dialer                                acceptor
//	  | -- HELLO(sender, nonceD, mac) ------> |   verify mac under link key
//	  | <-- HELLO-ACK(sender, nonceA, mac) -- |   mac covers both nonces
//	  |  both derive sessionKey(link, dialer, nonceD, nonceA)
//	  | == session frames (seq, mac16, inner) ==> |
//	  | <== session frames (replies) =========== |
//
// Every connection between members opens this way; there is no other link
// authentication. Before the HELLO an acceptor takes nothing but a HELLO;
// after it, session frames (and content-addressed payload announces, which
// carry their own proof). The inner payload of a session frame is a
// consensus envelope, a state-transfer request or a payload fetch; the
// acceptor answers requests on the same connection with session frames
// whose sequence numbers carry the top bit, so a frame reflected back in
// the other direction never verifies.

// Session frame family version bytes. Version 1 (consensus envelope), 2
// (state transfer) and 5 (payload plane) are defined in wire.go, snap.go
// and payload.go.
const (
	// HelloVersion is the first byte of handshake frames.
	HelloVersion = 3
	// SessionVersion is the first byte of session-wrapped frames.
	SessionVersion = 4
)

// Hello frame kinds.
const (
	// HelloKindInit opens a handshake (dialer -> acceptor).
	HelloKindInit = 1
	// HelloKindAck completes it (acceptor -> dialer).
	HelloKindAck = 2
)

// Handshake frame geometry. HELLO frames are fixed-size: any other length
// is malformed by construction, which makes truncation and padding attacks
// detectable before any crypto runs.
const (
	// HelloNonceSize is the per-connection nonce length.
	HelloNonceSize = 16
	// HelloMACSize is the handshake authenticator length (full HMAC).
	HelloMACSize = 32
	// HelloFrameSize is the exact payload length of a HELLO or HELLO-ACK:
	// version(u8) kind(u8) sender(u32) nonce(16) mac(32).
	HelloFrameSize = 1 + 1 + 4 + HelloNonceSize + HelloMACSize
)

// SessionTagSize is the truncated per-frame session MAC length.
const SessionTagSize = 16

// sessionHeaderSize = version(u8) seq(u64) tag(16).
const sessionHeaderSize = 1 + 8 + SessionTagSize

// Session codec errors.
var (
	ErrBadHello     = errors.New("wire: malformed hello frame")
	ErrBadSession   = errors.New("wire: malformed session frame")
	ErrNotSession   = errors.New("wire: not a session frame")
	ErrSessionReuse = errors.New("wire: session sequence not increasing")
)

// Hello is a decoded handshake frame.
type Hello struct {
	// Kind is HelloKindInit or HelloKindAck.
	Kind uint8
	// Sender identifies the party that built the frame. For peer links it
	// is the replica PID; for client links it is the client id.
	Sender uint32
	// Nonce is this party's fresh connection nonce.
	Nonce [HelloNonceSize]byte
	// MAC authenticates the frame under the link's long-lived key; ACKs
	// additionally cover the dialer's nonce (see auth.HelloAckMAC).
	MAC [HelloMACSize]byte
}

// AppendHello serializes a handshake frame onto dst.
func AppendHello(dst []byte, h Hello) []byte {
	dst = append(dst, HelloVersion, h.Kind)
	dst = binary.BigEndian.AppendUint32(dst, h.Sender)
	dst = append(dst, h.Nonce[:]...)
	return append(dst, h.MAC[:]...)
}

// DecodeHello parses a handshake frame. The payload must be exactly
// HelloFrameSize bytes: truncated or padded HELLOs are rejected outright.
func DecodeHello(payload []byte) (Hello, error) {
	if len(payload) != HelloFrameSize {
		return Hello{}, fmt.Errorf("%w: %d bytes, want %d", ErrBadHello, len(payload), HelloFrameSize)
	}
	if payload[0] != HelloVersion {
		return Hello{}, fmt.Errorf("%w: version %d", ErrBadHello, payload[0])
	}
	var h Hello
	h.Kind = payload[1]
	if h.Kind != HelloKindInit && h.Kind != HelloKindAck {
		return Hello{}, fmt.Errorf("%w: kind %d", ErrBadHello, h.Kind)
	}
	h.Sender = binary.BigEndian.Uint32(payload[2:6])
	copy(h.Nonce[:], payload[6:6+HelloNonceSize])
	copy(h.MAC[:], payload[6+HelloNonceSize:])
	return h, nil
}

// AppendSessionFrame wraps inner in a session frame onto dst:
//
//	payload := SessionVersion(u8) seq(u64) tag(16) inner
//
// tag = mac(seq, inner) is computed by the caller-supplied function so
// this package stays free of key material; use auth.SessionMAC. The inner
// payload is appended as-is: the session tag authenticates every byte of
// it.
func AppendSessionFrame(dst []byte, seq uint64, inner []byte, mac func(seq uint64, inner []byte) [SessionTagSize]byte) []byte {
	dst = append(dst, SessionVersion)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	tag := mac(seq, inner)
	dst = append(dst, tag[:]...)
	return append(dst, inner...)
}

// SplitSessionFrame splits a session frame into its sequence, tag and
// inner payload without copying; inner aliases payload. The tag is NOT
// verified here — callers check it under the connection's session key
// (auth.CheckSessionMAC) before trusting a single byte of inner.
func SplitSessionFrame(payload []byte) (seq uint64, tag, inner []byte, err error) {
	if len(payload) < sessionHeaderSize {
		return 0, nil, nil, ErrBadSession
	}
	if payload[0] != SessionVersion {
		return 0, nil, nil, ErrNotSession
	}
	seq = binary.BigEndian.Uint64(payload[1:9])
	return seq, payload[9 : 9+SessionTagSize], payload[sessionHeaderSize:], nil
}

// FrameFamily returns the frame family discriminator (first payload
// byte), or 0 for an empty payload.
func FrameFamily(payload []byte) uint8 {
	if len(payload) == 0 {
		return 0
	}
	return payload[0]
}
