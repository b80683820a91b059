// Package wire is the binary codec for consensus messages: a
// length-prefixed frame carrying an envelope (instance, round, sender) and
// the round message tuple. The TCP runtime (internal/transport) and the WIC
// relay protocols use it. The codec carries no link authenticator: every
// frame between members travels on a connection that opened with a HELLO
// (session.go) and is authenticated by its session tag or, for a payload
// announce, by its content address.
//
// # Frame families (wire protocol v3)
//
// Every payload's first byte discriminates its family:
//
//	1  consensus envelope (this file)
//	2  state transfer (snap.go)
//	3  HELLO handshake (session.go)
//	4  session-wrapped frame (session.go)
//	5  payload plane (payload.go)
//
// Envelope layout (big endian):
//
//	frame   := len(u32) payload
//	payload := version(u8) instance(u64) round(u64) sender(u32) kind(u8)
//	           vote(str) ts(u64)
//	           histLen(u16) {val(str) phase(u64)}*
//	           selLen(u16) {pid(u32)}*
//	           relayLen(u16) {sender(u32) message sigLen(u16) sig}*
//	str     := len(u16) bytes
//
// # Append-style API and buffer ownership
//
// All encoders follow the Append*(dst []byte, ...) []byte convention: they
// append onto a caller-owned buffer and return the extended slice, so the
// hot path encodes straight into pooled frame buffers with zero
// intermediate allocation.
//
// Pooled-buffer ownership rules:
//
//   - GetFrame hands out an empty buffer; whoever eventually calls
//     PutFrame owns it. Ownership transfers exactly once — typically from
//     the encoder to the transport's per-peer write queue, which recycles
//     the buffer after the vectored write completes.
//   - A buffer handed to PutFrame must never be touched again.
//   - Decoded envelopes copy every field they keep (strings, MACs), so a
//     read loop may reuse one receive buffer across frames
//     (ReadFrameInto) — nothing decoded aliases it after Decode returns.
//   - SplitSessionFrame returns subslices ALIASING the input payload;
//     callers verify and decode before the next frame overwrites the
//     buffer.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"genconsensus/internal/model"
)

// Version is the codec version byte.
const Version = 1

// MaxFrameSize bounds accepted frames (1 MiB), protecting receivers from
// hostile length prefixes.
const MaxFrameSize = 1 << 20

// FrameHeaderSize is the length prefix preceding every payload on a stream.
const FrameHeaderSize = 4

// framePool recycles frame assembly buffers across the send hot path:
// encode-into-pooled-buffer, hand the buffer to the transport writer,
// return it after the vectored write completes. Buffers start at 512 bytes
// and grow to their high-water mark; oversized one-off buffers (snapshot
// chunks) are dropped rather than pinned.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// GetFrame returns an empty pooled buffer for frame assembly.
func GetFrame() []byte {
	return (*framePool.Get().(*[]byte))[:0]
}

// PutFrame recycles a frame buffer obtained from GetFrame. The caller must
// not touch the slice afterwards (buffer ownership transfers back to the
// pool).
func PutFrame(buf []byte) {
	if cap(buf) > MaxFrameSize/4 {
		return // one-off giant (snapshot chunk): let the GC have it
	}
	buf = buf[:0]
	framePool.Put(&buf)
}

// BeginFrame reserves the length prefix at the start of a frame buffer.
// Append the payload after it, then seal with FinishFrame; the completed
// buffer is written to the stream as a single contiguous chunk (no separate
// header write, no payload copy).
func BeginFrame(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0)
}

// FinishFrame fills in the length prefix reserved by BeginFrame.
func FinishFrame(buf []byte) ([]byte, error) {
	if len(buf) < FrameHeaderSize {
		return nil, ErrTruncated
	}
	n := len(buf) - FrameHeaderSize
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(buf[:FrameHeaderSize], uint32(n))
	return buf, nil
}

// Envelope wraps a round message with its routing metadata.
type Envelope struct {
	// Instance numbers the consensus instance (for SMR logs).
	Instance uint64
	// Round is the closed-round number the message belongs to.
	Round model.Round
	// Sender is the authenticated sender identity.
	Sender model.PID
	// Msg is the round message tuple.
	Msg model.Message
}

// Errors returned by the codec.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrameSize")
	ErrBadVersion    = errors.New("wire: unsupported version")
	ErrTruncated     = errors.New("wire: truncated payload")
)

type writer struct {
	buf []byte
}

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) str(s string) {
	w.u16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}

type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.buf) {
		r.err = ErrTruncated
		return false
	}
	return true
}

func (r *reader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) str() string {
	n := int(r.u16())
	if !r.need(n) {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) bytes() []byte {
	n := int(r.u16())
	if !r.need(n) {
		return nil
	}
	b := append([]byte(nil), r.buf[r.off:r.off+n]...)
	r.off += n
	return b
}

// bytes32 reads a u32-length-prefixed byte string (snapshot chunks exceed
// the u16 range).
func (r *reader) bytes32() []byte {
	n := int(r.u32())
	if n > MaxFrameSize {
		r.err = ErrTruncated
		return nil
	}
	if !r.need(n) {
		return nil
	}
	b := append([]byte(nil), r.buf[r.off:r.off+n]...)
	r.off += n
	return b
}

// maxRelayDepth bounds nested relay batches (a relay of relays is the
// deepest shape the WIC protocols produce).
const maxRelayDepth = 2

func encodeMessage(w *writer, m model.Message, depth int) {
	w.u8(uint8(m.Kind))
	w.str(string(m.Vote))
	w.u64(uint64(m.TS))
	w.u16(uint16(len(m.History)))
	for _, e := range m.History {
		w.str(string(e.Val))
		w.u64(uint64(e.Phase))
	}
	w.u16(uint16(len(m.Sel)))
	for _, p := range m.Sel {
		w.u32(uint32(p))
	}
	if depth >= maxRelayDepth {
		w.u16(0)
		return
	}
	w.u16(uint16(len(m.Relay)))
	for _, s := range m.Relay {
		w.u32(uint32(s.Sender))
		encodeMessage(w, s.Msg, depth+1)
		w.u16(uint16(len(s.Sig)))
		w.buf = append(w.buf, s.Sig...)
	}
}

func decodeMessage(r *reader, depth int) model.Message {
	var m model.Message
	m.Kind = model.RoundKind(r.u8())
	m.Vote = model.Value(r.str())
	m.TS = model.Phase(r.u64())
	histLen := int(r.u16())
	if histLen > 0 && histLen <= MaxFrameSize/10 {
		m.History = make(model.History, 0, histLen)
		for i := 0; i < histLen; i++ {
			val := model.Value(r.str())
			phase := model.Phase(r.u64())
			m.History = append(m.History, model.HistEntry{Val: val, Phase: phase})
		}
	} else if histLen > MaxFrameSize/10 {
		r.err = ErrTruncated
		return m
	}
	selLen := int(r.u16())
	if selLen > 0 && selLen <= MaxFrameSize/4 {
		m.Sel = make([]model.PID, 0, selLen)
		for i := 0; i < selLen; i++ {
			m.Sel = append(m.Sel, model.PID(r.u32()))
		}
	} else if selLen > MaxFrameSize/4 {
		r.err = ErrTruncated
		return m
	}
	relayLen := int(r.u16())
	if relayLen > MaxFrameSize/8 {
		r.err = ErrTruncated
		return m
	}
	if relayLen > 0 {
		if depth >= maxRelayDepth {
			r.err = ErrTruncated
			return m
		}
		m.Relay = make([]model.Signed, 0, relayLen)
		for i := 0; i < relayLen; i++ {
			sender := model.PID(r.u32())
			inner := decodeMessage(r, depth+1)
			sig := r.bytes()
			m.Relay = append(m.Relay, model.Signed{Sender: sender, Msg: inner, Sig: sig})
		}
	}
	return m
}

// AppendEnvelope serializes the envelope payload (without the frame length
// prefix) onto dst and returns the extended slice.
func AppendEnvelope(dst []byte, env Envelope) []byte {
	w := &writer{buf: dst}
	w.u8(Version)
	w.u64(env.Instance)
	w.u64(uint64(env.Round))
	w.u32(uint32(env.Sender))
	encodeMessage(w, env.Msg, 0)
	return w.buf
}

// PeekInstance reads the instance number of an encoded envelope payload
// without decoding it. Transports use it as a pre-decode drop filter:
// helper-round traffic for an instance the local commit already released
// is the common case under pipelined load, and discarding it by peeking
// nine bytes skips the full Decode (and its message-map allocations).
// It is safe on hostile input — a short or foreign payload reports false.
func PeekInstance(payload []byte) (uint64, bool) {
	if len(payload) < 9 || payload[0] != Version {
		return 0, false
	}
	return binary.BigEndian.Uint64(payload[1:9]), true
}

// Decode parses a payload produced by AppendEnvelope.
func Decode(payload []byte) (Envelope, error) {
	r := &reader{buf: payload}
	if v := r.u8(); v != Version {
		if r.err != nil {
			return Envelope{}, r.err
		}
		return Envelope{}, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	var env Envelope
	env.Instance = r.u64()
	env.Round = model.Round(r.u64())
	env.Sender = model.PID(r.u32())
	env.Msg = decodeMessage(r, 0)
	if r.err != nil {
		return Envelope{}, r.err
	}
	if r.off != len(payload) {
		return Envelope{}, fmt.Errorf("%w: %d trailing bytes", ErrTruncated, len(payload)-r.off)
	}
	return env, nil
}

// ReadFrame reads one length-prefixed payload from r.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire: reading frame payload: %w", err)
	}
	return payload, nil
}

// ReadFrameInto reads one length-prefixed payload from r into buf,
// growing it if needed, and returns the payload slice aliasing buf. The
// returned slice is only valid until the next call with the same buffer;
// read loops reuse one buffer across frames instead of allocating per
// frame, and copy out only the fields that outlive the frame.
func ReadFrameInto(r io.Reader, buf []byte) (payload, newBuf []byte, err error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrameSize {
		return nil, buf, ErrFrameTooLarge
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:cap(buf)]
	if _, err := io.ReadFull(r, buf[:n]); err != nil {
		return nil, buf, fmt.Errorf("wire: reading frame payload: %w", err)
	}
	return buf[:n], buf, nil
}
