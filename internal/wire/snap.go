package wire

import (
	"errors"
	"fmt"

	"genconsensus/internal/model"
)

// SnapVersion is the first byte of every state-transfer payload. It is
// distinct from the consensus codec's Version, so the families share one
// session without ambiguity: receivers route on the first byte of a
// session frame's inner payload (FrameFamily).
const SnapVersion = 2

// SnapKind discriminates the state-transfer exchange's frames.
type SnapKind uint8

const (
	// SnapRequest asks a peer for its latest checkpoint.
	SnapRequest SnapKind = 1
	// SnapChunk carries one slice of an encoded snapshot. Every chunk of
	// one transfer repeats the snapshot metadata and the digest of the
	// complete encoding, so the receiver can detect a torn or mixed
	// response before reassembly finishes.
	SnapChunk SnapKind = 2
	// SnapNone answers a request when no checkpoint exists yet (and a
	// DecisionRequest when the instance is not in the decision cache).
	SnapNone SnapKind = 3
	// DecisionRequest asks a peer for the decided value of one released
	// instance (LastInstance carries the instance id). It closes the
	// catch-up gap between a transferred checkpoint and the cluster head:
	// those instances are finished business the peers will never re-run.
	DecisionRequest SnapKind = 4
	// DecisionReply answers with the decided value in Data.
	DecisionReply SnapKind = 5
)

// MaxSnapDataBytes bounds one chunk's payload so the whole frame stays
// under MaxFrameSize with headroom for metadata and the session header.
const MaxSnapDataBytes = MaxFrameSize - 1024

// ErrSnapMalformed rejects unparsable state-transfer payloads.
var ErrSnapMalformed = errors.New("wire: malformed snapshot frame")

// SnapEnvelope is one state-transfer frame.
type SnapEnvelope struct {
	// Kind is the frame discriminator.
	Kind SnapKind
	// Sender is the authenticated sender identity.
	Sender model.PID
	// LastInstance/LogIndex mirror the transferred snapshot's watermark
	// (zero in requests).
	LastInstance uint64
	LogIndex     uint64
	// Digest is the SHA-256 of the complete snapshot encoding this chunk
	// belongs to.
	Digest []byte
	// ChunkIndex/ChunkCount place this chunk in the transfer.
	ChunkIndex uint32
	ChunkCount uint32
	// Data is the chunk payload.
	Data []byte
}

// AppendSnap serializes a state-transfer envelope onto dst:
//
//	payload := SnapVersion(u8) kind(u8) sender(u32) lastInstance(u64)
//	           logIndex(u64) digestLen(u16) digest chunkIndex(u32)
//	           chunkCount(u32) dataLen(u32) data
func AppendSnap(dst []byte, env SnapEnvelope) []byte {
	w := &writer{buf: dst}
	w.u8(SnapVersion)
	w.u8(uint8(env.Kind))
	w.u32(uint32(env.Sender))
	w.u64(env.LastInstance)
	w.u64(env.LogIndex)
	w.u16(uint16(len(env.Digest)))
	w.buf = append(w.buf, env.Digest...)
	w.u32(env.ChunkIndex)
	w.u32(env.ChunkCount)
	w.u32(uint32(len(env.Data)))
	w.buf = append(w.buf, env.Data...)
	return w.buf
}

// DecodeSnap parses an AppendSnap payload.
func DecodeSnap(payload []byte) (SnapEnvelope, error) {
	r := &reader{buf: payload}
	if v := r.u8(); v != SnapVersion {
		if r.err != nil {
			return SnapEnvelope{}, r.err
		}
		return SnapEnvelope{}, fmt.Errorf("%w: version %d", ErrSnapMalformed, v)
	}
	var env SnapEnvelope
	env.Kind = SnapKind(r.u8())
	env.Sender = model.PID(r.u32())
	env.LastInstance = r.u64()
	env.LogIndex = r.u64()
	env.Digest = r.bytes()
	env.ChunkIndex = r.u32()
	env.ChunkCount = r.u32()
	env.Data = r.bytes32()
	if r.err != nil {
		return SnapEnvelope{}, r.err
	}
	if r.off != len(payload) {
		return SnapEnvelope{}, fmt.Errorf("%w: %d trailing bytes", ErrSnapMalformed, len(payload)-r.off)
	}
	switch env.Kind {
	case SnapRequest, SnapChunk, SnapNone, DecisionRequest, DecisionReply:
	default:
		return SnapEnvelope{}, fmt.Errorf("%w: kind %d", ErrSnapMalformed, env.Kind)
	}
	return env, nil
}
