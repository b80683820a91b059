package wire

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"genconsensus/internal/model"
)

// PayloadVersion is the first byte of every payload-plane frame: the
// content-addressed dissemination family that carries encoded command
// batches *once*, so consensus rounds can vote on 32-byte digests instead
// of repeating the batch in every message. Announces travel as frames of
// their own on a handshaken peer link; fetch requests and replies travel
// inside session frames (family 4), like the state-transfer exchange.
const PayloadVersion = 5

// PayloadKind discriminates the payload-plane exchange's frames.
type PayloadKind uint8

const (
	// PayloadAnnounce pushes one content-addressed payload to a peer over
	// the established session link (proposer → peers, once per batch). It
	// names the consensus instance the batch is proposed for: the receiver
	// keeps the body exactly as long as that instance is unreleased.
	// Announces carry no MAC: the digest is the authenticator — a receiver
	// stores the data only if sha256(data) equals Digest, so a forged body
	// is detected for the price of one hash.
	PayloadAnnounce PayloadKind = 1
	// PayloadFetch pulls one payload by digest on a dedicated, handshaken
	// connection (the state-transfer shape), naming the instance the
	// requester needs it for. It travels inside a session frame, so only
	// cluster members can read payload data back out.
	PayloadFetch PayloadKind = 2
	// PayloadFetchReply answers a fetch with the data, content-verified by
	// the requester against the digest it asked for.
	PayloadFetchReply PayloadKind = 3
	// PayloadFetchNone answers a fetch whose digest the peer cannot serve —
	// released and decided otherwise, evicted, never announced, or hostile.
	PayloadFetchNone PayloadKind = 4
)

// PayloadDigestSize is the content-address width (SHA-256).
const PayloadDigestSize = sha256.Size

// MaxPayloadDataBytes bounds one announced or fetched payload. It is
// comfortably above smr.MaxBatchBytes (the only payloads honest nodes
// produce) and far below MaxFrameSize, so an oversized frame is proof of
// hostility, not of a large batch.
const MaxPayloadDataBytes = 64 << 10

// ErrPayloadMalformed rejects unparsable payload-plane frames.
var ErrPayloadMalformed = errors.New("wire: malformed payload frame")

// Payload is one payload-plane frame.
type Payload struct {
	// Kind is the frame discriminator.
	Kind PayloadKind
	// Sender is the member that built the frame. Receivers take identity
	// from the connection's handshake, never from this field.
	Sender model.PID
	// Instance is the instance id the payload is proposed for (announce) or
	// wanted for (fetch; replies echo it).
	Instance uint64
	// Digest is the SHA-256 content address.
	Digest [PayloadDigestSize]byte
	// Data is the payload body (announce and fetch-reply frames).
	Data []byte
}

// AppendPayload serializes a payload-plane frame onto dst:
//
//	payload := PayloadVersion(u8) kind(u8) group(u16) sender(u32)
//	           instance(u64) digest(32) dataLen(u32) data
//
// group is reserved: always written as 0, and DecodePayload refuses any
// other value.
func AppendPayload(dst []byte, p Payload) []byte {
	return appendPayload(dst, p, p.Data)
}

// AppendPayloadValue is AppendPayload with the body taken from data
// instead of p.Data: the payload store holds bodies as immutable values,
// and framing one must not cost a conversion copy.
func AppendPayloadValue(dst []byte, p Payload, data model.Value) []byte {
	return appendPayload(dst, p, data)
}

func appendPayload[D ~[]byte | ~string](dst []byte, p Payload, data D) []byte {
	w := &writer{buf: dst}
	w.u8(PayloadVersion)
	w.u8(uint8(p.Kind))
	w.u16(0) // reserved group slot
	w.u32(uint32(p.Sender))
	w.u64(p.Instance)
	w.buf = append(w.buf, p.Digest[:]...)
	w.u32(uint32(len(data)))
	w.buf = append(w.buf, data...)
	return w.buf
}

// DecodePayload parses an AppendPayload frame. Data aliases payload — the
// caller copies before retaining it past the read buffer's lifetime.
func DecodePayload(payload []byte) (Payload, error) {
	r := &reader{buf: payload}
	if v := r.u8(); v != PayloadVersion {
		if r.err != nil {
			return Payload{}, r.err
		}
		return Payload{}, fmt.Errorf("%w: version %d", ErrPayloadMalformed, v)
	}
	var p Payload
	p.Kind = PayloadKind(r.u8())
	if g := r.u16(); g != 0 {
		return Payload{}, fmt.Errorf("%w: reserved group %d", ErrPayloadMalformed, g)
	}
	p.Sender = model.PID(r.u32())
	p.Instance = r.u64()
	if len(r.buf)-r.off < PayloadDigestSize {
		return Payload{}, ErrPayloadMalformed
	}
	copy(p.Digest[:], r.buf[r.off:r.off+PayloadDigestSize])
	r.off += PayloadDigestSize
	n := int(r.u32())
	if n > MaxPayloadDataBytes {
		return Payload{}, fmt.Errorf("%w: %d data bytes > %d", ErrPayloadMalformed, n, MaxPayloadDataBytes)
	}
	if r.need(n) {
		p.Data = r.buf[r.off : r.off+n : r.off+n] // a view, not a copy
		r.off += n
	}
	if r.err != nil {
		return Payload{}, r.err
	}
	if r.off != len(payload) {
		return Payload{}, fmt.Errorf("%w: %d trailing bytes", ErrPayloadMalformed, len(payload)-r.off)
	}
	return p, nil
}
