package auth

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"hash"
)

// SessionMACer computes session tags for one fixed key with the HMAC key
// blocks pre-hashed. Plain HMAC pays two fixed SHA-256 compressions per
// tag — H(k⊕ipad‖…) and H(k⊕opad‖…) each start by compressing a key
// block that never changes for the life of the session. A SessionMACer
// hashes those blocks once at construction and captures the SHA-256
// midstates (via the hash's BinaryMarshaler), so each tag costs only the
// message and finalization compressions — roughly half the hashing for
// the short payloads session frames carry. The output is bit-identical to
// SessionMAC/CheckSessionMAC (TestSessionMACerMatchesSessionMAC pins it).
//
// A SessionMACer is NOT safe for concurrent use: it reuses one scratch
// hash state. Sessions are single-reader and writers serialize under the
// connection lock, so each endpoint of a connection owns its own.
type SessionMACer struct {
	h          hash.Hash
	innerState []byte // SHA-256 midstate after the k⊕ipad block
	outerState []byte // SHA-256 midstate after the k⊕opad block
	sum        [sha256.Size]byte
}

// NewSessionMACer precomputes the midstates for key.
func NewSessionMACer(key MACKey) *SessionMACer {
	m := &SessionMACer{h: sha256.New()}
	m.innerState, m.outerState = keyMidstates(m.h, key)
	return m
}

// keyMidstates hashes key's two HMAC pad blocks with h and returns the
// SHA-256 midstate after each: the part of an HMAC that depends on the key
// alone.
func keyMidstates(h hash.Hash, key MACKey) (inner, outer []byte) {
	var block [64]byte
	for i := range block {
		block[i] = 0x36
	}
	for i := range key {
		block[i] ^= key[i]
	}
	h.Reset()
	h.Write(block[:])
	inner = mustMarshal(h)
	for i := range block {
		block[i] ^= 0x36 ^ 0x5c
	}
	h.Reset()
	h.Write(block[:])
	return inner, mustMarshal(h)
}

func mustMarshal(h hash.Hash) []byte {
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		// sha256's marshaler cannot fail; this guards a swapped-out hash.
		panic("auth: sha256 state marshal: " + err.Error())
	}
	return state
}

func restore(h hash.Hash, state []byte) {
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		panic("auth: sha256 state unmarshal: " + err.Error())
	}
}

// macSum computes the full HMAC-SHA256 of (seq, payload) from the cached
// midstates.
func (m *SessionMACer) macSum(seq uint64, payload []byte) {
	var seqb [8]byte
	binary.BigEndian.PutUint64(seqb[:], seq)
	restore(m.h, m.innerState)
	m.h.Write(seqb[:])
	m.h.Write(payload)
	inner := m.h.Sum(m.sum[:0])
	restore(m.h, m.outerState)
	m.h.Write(inner)
	m.h.Sum(m.sum[:0])
}

// Append appends the truncated session tag for (seq, payload) to dst —
// the midstate-cached equivalent of SessionMAC(dst, key, seq, payload).
func (m *SessionMACer) Append(dst []byte, seq uint64, payload []byte) []byte {
	m.macSum(seq, payload)
	return append(dst, m.sum[:SessionMACSize]...)
}

// Check verifies a truncated session tag in constant time — the
// midstate-cached equivalent of CheckSessionMAC.
func (m *SessionMACer) Check(seq uint64, payload, tag []byte) bool {
	m.macSum(seq, payload)
	return hmac.Equal(m.sum[:SessionMACSize], tag)
}
