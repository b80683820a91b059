package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"genconsensus/internal/model"
)

// PayloadVersion is the first byte of every payload-plane frame: the
// content-addressed dissemination family that carries encoded command
// batches *once*, so consensus rounds can vote on 32-byte digests instead
// of repeating the batch in every message. It shares the TCP stream with
// the other families (consensus envelopes = 1, state transfer = 2,
// handshakes = 3, session frames = 4) and is dispatched by the transport's
// RegisterHandler registry like the rest.
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
	// PayloadFetch pulls one payload by digest on a dedicated dialed
	// connection (the state-transfer shape), naming the instance the
	// requester needs it for. Requests are sealed with the pairwise MAC so
	// only cluster members can read payload data back out.
	PayloadFetch PayloadKind = 2
	// PayloadFetchReply answers a fetch with the data (content-verified by
	// the requester against the digest it asked for, so it needs no MAC).
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
	// Group tags the consensus group the payload was proposed for, like
	// every post-sharding frame family; receivers bounds-check it.
	Group GroupID
	// Sender is the claimed requester identity (fetch requests only; the
	// pairwise MAC proves it).
	Sender model.PID
	// Instance is the packed (group, instance) id (PackGID) the payload is
	// proposed for (announce) or wanted for (fetch; replies echo it). Its
	// group bits must equal Group.
	Instance uint64
	// Digest is the SHA-256 content address.
	Digest [PayloadDigestSize]byte
	// Data is the payload body (announce and fetch-reply frames).
	Data []byte
	// Auth carries the pairwise MAC over the preceding bytes (fetch
	// requests only; empty elsewhere).
	Auth []byte
}

// IsPayloadFrame reports whether a received payload belongs to the
// payload-plane family (first byte PayloadVersion).
func IsPayloadFrame(payload []byte) bool {
	return len(payload) > 0 && payload[0] == PayloadVersion
}

// AppendPayload serializes a payload-plane frame onto dst:
//
//	payload := PayloadVersion(u8) kind(u8) group(u16) sender(u32)
//	           instance(u64) digest(32) dataLen(u32) data authLen(u16) auth
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
	w.u16(uint16(p.Group))
	w.u32(uint32(p.Sender))
	w.u64(p.Instance)
	w.buf = append(w.buf, p.Digest[:]...)
	w.u32(uint32(len(data)))
	w.buf = append(w.buf, data...)
	w.u16(uint16(len(p.Auth)))
	w.buf = append(w.buf, p.Auth...)
	return w.buf
}

// AppendSignedPayload serializes the frame in a single pass, calling sign
// on exactly the covered byte range and appending the authenticator,
// mirroring AppendSignedSnap. Fetch requests use it; announce and reply
// frames are content-addressed and travel unsigned.
func AppendSignedPayload(dst []byte, p Payload, sign func(payload []byte) []byte) []byte {
	p.Auth = nil
	start := len(dst)
	dst = AppendPayload(dst, p)
	dst = dst[:len(dst)-2] // drop the empty authLen
	mac := sign(dst[start:])
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(mac)))
	return append(dst, mac...)
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
	p.Group = GroupID(r.u16())
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
	p.Auth = r.bytes()
	if r.err != nil {
		return Payload{}, r.err
	}
	if r.off != len(payload) {
		return Payload{}, fmt.Errorf("%w: %d trailing bytes", ErrPayloadMalformed, len(payload)-r.off)
	}
	return p, nil
}
