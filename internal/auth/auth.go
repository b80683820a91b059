// Package auth provides the authentication substrate for the authenticated
// Byzantine fault model (§2.2): ed25519 signatures ("messages can be signed
// by the sending process, and signatures cannot be forged") and pairwise
// HMAC-SHA256 session MACs for the channel-level integrity the
// signature-free model assumes (the receiver knows the sender's identity).
//
// Keys are generated deterministically from seeds so that test clusters are
// reproducible; production deployments would provision keys externally.
package auth

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sync"

	"genconsensus/internal/model"
)

// Signer signs messages for one process.
type Signer struct {
	id   model.PID
	priv ed25519.PrivateKey
}

// Verifier verifies signatures from every process in the cluster.
type Verifier struct {
	pubs map[model.PID]ed25519.PublicKey
}

// Errors returned by verification.
var (
	ErrUnknownSigner = errors.New("auth: unknown signer")
	ErrBadSignature  = errors.New("auth: signature verification failed")
)

// Keyring holds a cluster's deterministic key material.
type Keyring struct {
	signers map[model.PID]*Signer
	verify  *Verifier
}

// NewKeyring derives a keyring for n processes from the seed.
func NewKeyring(n int, seed int64) (*Keyring, error) {
	kr := &Keyring{
		signers: make(map[model.PID]*Signer, n),
		verify:  &Verifier{pubs: make(map[model.PID]ed25519.PublicKey, n)},
	}
	for _, p := range model.AllPIDs(n) {
		var material [ed25519.SeedSize]byte
		binary.BigEndian.PutUint64(material[0:8], uint64(seed))
		binary.BigEndian.PutUint64(material[8:16], uint64(p)+1)
		sum := sha256.Sum256(material[:])
		priv := ed25519.NewKeyFromSeed(sum[:])
		kr.signers[p] = &Signer{id: p, priv: priv}
		kr.verify.pubs[p] = priv.Public().(ed25519.PublicKey)
	}
	return kr, nil
}

// Signer returns process p's signer.
func (kr *Keyring) Signer(p model.PID) (*Signer, error) {
	s, ok := kr.signers[p]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownSigner, p)
	}
	return s, nil
}

// Verifier returns the cluster-wide verifier.
func (kr *Keyring) Verifier() *Verifier { return kr.verify }

// Sign returns the signature of payload by this signer.
func (s *Signer) Sign(payload []byte) []byte {
	return ed25519.Sign(s.priv, payload)
}

// ID returns the signer's process id.
func (s *Signer) ID() model.PID { return s.id }

// Verify checks that sig is signer's signature over payload.
func (v *Verifier) Verify(signer model.PID, payload, sig []byte) error {
	pub, ok := v.pubs[signer]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSigner, signer)
	}
	if !ed25519.Verify(pub, payload, sig) {
		return fmt.Errorf("%w: signer %d", ErrBadSignature, signer)
	}
	return nil
}

// MACKey is a pairwise symmetric key.
type MACKey [32]byte

// PairKey derives the symmetric key shared by processes a and b from the
// cluster seed. PairKey(a, b) == PairKey(b, a).
func PairKey(seed int64, a, b model.PID) MACKey {
	if b < a {
		a, b = b, a
	}
	var material [24]byte
	binary.BigEndian.PutUint64(material[0:8], uint64(seed))
	binary.BigEndian.PutUint64(material[8:16], uint64(a)+1)
	binary.BigEndian.PutUint64(material[16:24], uint64(b)+1)
	return sha256.Sum256(material[:])
}

// macBufPool recycles the contiguous ipad/opad scratch buffers macSum
// concatenates into, keeping the MAC hot path allocation-free (frame seals,
// session MACs and command authenticators all run through it).
var macBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 256)
	return &b
}}

// macSum is HMAC-SHA256 with a 32-byte key, computed with sha256.Sum256
// over pooled scratch buffers instead of crypto/hmac's heap-allocated
// hash states: H(k⊕opad ‖ H(k⊕ipad ‖ m)) with the key zero-padded to the
// 64-byte block size. The output is bit-identical to crypto/hmac
// (TestMACMatchesCryptoHMAC pins that).
func macSum(key MACKey, parts ...[]byte) [sha256.Size]byte {
	bufp := macBufPool.Get().(*[]byte)
	buf := (*bufp)[:0]
	for i := range key {
		buf = append(buf, key[i]^0x36)
	}
	for i := 0; i < 32; i++ {
		buf = append(buf, 0x36)
	}
	for _, p := range parts {
		buf = append(buf, p...)
	}
	inner := sha256.Sum256(buf)
	buf = buf[:0]
	for i := range key {
		buf = append(buf, key[i]^0x5c)
	}
	for i := 0; i < 32; i++ {
		buf = append(buf, 0x5c)
	}
	buf = append(buf, inner[:]...)
	outer := sha256.Sum256(buf)
	*bufp = buf
	macBufPool.Put(bufp)
	return outer
}

// MAC computes the HMAC-SHA256 tag of payload under key.
func MAC(key MACKey, payload []byte) []byte {
	sum := macSum(key, payload)
	return sum[:]
}

// --- Client command authentication ------------------------------------------
//
// Clients are first-class principals: each client shares a symmetric key
// with the cluster and MACs every command it issues over (client, seq,
// payload). Replicas verify that MAC at ingress, inside the batch choice
// rule and again at apply time, so a Byzantine proposer can neither
// fabricate commands no client issued nor strip another client's identity.
// Like the process keys above, client keys are seed-derived for
// reproducibility; distributing per-client keys out of band is the
// production follow-up tracked in ROADMAP.md.

// commandTag domain-separates command MACs from the pairwise channel MACs
// (both are HMAC-SHA256; without the tag a captured channel MAC could be
// cross-played as a command authenticator and vice versa).
const commandTag = "gc-client-cmd-v1"

// ClientKey derives client c's symmetric command key from the cluster seed.
func ClientKey(seed int64, client uint32) MACKey {
	var material [28]byte
	copy(material[0:], commandTag[:8])
	binary.BigEndian.PutUint64(material[8:16], uint64(seed))
	binary.BigEndian.PutUint32(material[16:20], client)
	binary.BigEndian.PutUint64(material[20:28], uint64(client)+1)
	return sha256.Sum256(material[:])
}

// commandKey is one client's command key with its HMAC key schedule: the
// SHA-256 midstates after the two pad blocks, hashed once per key instead
// of once per command (two of the ~five compressions an authenticator over
// a short payload costs). Read-only after construction.
type commandKey struct {
	key          MACKey
	inner, outer []byte
}

func newCommandKey(seed int64, client uint32) *commandKey {
	ck := &commandKey{key: ClientKey(seed, client)}
	ck.inner, ck.outer = keyMidstates(sha256.New(), ck.key)
	return ck
}

// commandHasher is the scratch one authenticator needs: a hash state to
// resume the midstates into, a buffer for the covered bytes and room for
// the sums, pooled together so signing and verifying allocate nothing.
type commandHasher struct {
	h   hash.Hash
	buf []byte
	sum [sha256.Size]byte
}

var commandHasherPool = sync.Pool{New: func() any {
	return &commandHasher{h: sha256.New()}
}}

// commandSum is the command authenticator: HMAC over the domain tag, the
// client id, the sequence number and the payload. Signer and verifier must
// agree on the covered bytes exactly. Generic over the payload so string
// payloads verify without a copy of their own. Bit-identical to crypto/hmac
// over the same bytes (TestCommandMACMatchesCryptoHMAC pins that).
func commandSum[P ~string | ~[]byte](ck *commandKey, client uint32, seq uint64, payload P) [sha256.Size]byte {
	ch := commandHasherPool.Get().(*commandHasher)
	buf := append(ch.buf[:0], commandTag...)
	buf = binary.BigEndian.AppendUint32(buf, client)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = append(buf, payload...)
	restore(ch.h, ck.inner)
	ch.h.Write(buf)
	inner := ch.h.Sum(ch.sum[:0])
	restore(ch.h, ck.outer)
	ch.h.Write(inner)
	ch.h.Sum(ch.sum[:0])
	sum := ch.sum
	ch.buf = buf
	commandHasherPool.Put(ch)
	return sum
}

// ClientSigner MACs commands for one client.
type ClientSigner struct {
	client uint32
	key    *commandKey
}

// NewClientSigner derives client's signer from the cluster seed.
func NewClientSigner(seed int64, client uint32) *ClientSigner {
	return &ClientSigner{client: client, key: newCommandKey(seed, client)}
}

// Client returns the signer's client id.
func (s *ClientSigner) Client() uint32 { return s.client }

// Sign returns the MAC over (client, seq, payload).
func (s *ClientSigner) Sign(seq uint64, payload []byte) []byte {
	sum := commandSum(s.key, s.client, seq, payload)
	return sum[:]
}

// ClientKeyring verifies command MACs for every provisioned client. It is
// safe for concurrent use (keys are materialized at construction and only
// read afterwards).
type ClientKeyring struct {
	keys map[uint32]*commandKey
}

// NewClientKeyring derives keys for clients 0..numClients-1 from the seed.
// Commands claiming a client id outside the keyring fail verification:
// the provisioned client space is the authorization boundary.
func NewClientKeyring(seed int64, numClients int) *ClientKeyring {
	kr := &ClientKeyring{keys: make(map[uint32]*commandKey, numClients)}
	for c := 0; c < numClients; c++ {
		kr.keys[uint32(c)] = newCommandKey(seed, uint32(c))
	}
	return kr
}

// NumClients reports the provisioned client count.
func (kr *ClientKeyring) NumClients() int { return len(kr.keys) }

// VerifyCommand checks mac over (client, seq, payload) in constant time.
// Unknown clients verify as false, never as an error: to a replica a forged
// client id and a forged MAC are the same attack.
func (kr *ClientKeyring) VerifyCommand(client uint32, seq uint64, payload, mac []byte) bool {
	key, ok := kr.keys[client]
	if !ok {
		return false
	}
	sum := commandSum(key, client, seq, payload)
	return hmac.Equal(sum[:], mac)
}

// VerifyCommandStr is VerifyCommand over string payload and MAC: the
// verdict-cache miss path holds both as substrings of the envelope value
// and must not copy them per verification.
func (kr *ClientKeyring) VerifyCommandStr(client uint32, seq uint64, payload, mac string) bool {
	key, ok := kr.keys[client]
	if !ok {
		return false
	}
	sum := commandSum(key, client, seq, payload)
	return hmac.Equal(sum[:], []byte(mac))
}

// Key returns the client's symmetric key (false for unprovisioned ids).
// Session handshakes need the raw key to verify HELLOs and derive session
// keys; within the symmetric-key model every replica holds it anyway.
func (kr *ClientKeyring) Key(client uint32) (MACKey, bool) {
	ck, ok := kr.keys[client]
	if !ok {
		return MACKey{}, false
	}
	return ck.key, true
}

// --- Connection sessions ------------------------------------------------------
//
// Peers and clients authenticate once per connection: a HELLO exchange
// under the long-lived key (the pairwise key for peers, the client key for
// clients) binds two fresh nonces, and both ends derive a per-connection
// session key from them. Every subsequent frame on the connection carries a
// truncated session MAC plus a strictly monotonic sequence number instead
// of a full per-frame, per-destination seal — authenticity is anchored in
// the handshake, per-frame cost drops to one short HMAC with a pre-derived
// key, and a replayed or reordered frame fails the sequence check.

const (
	// SessionNonceSize is the handshake nonce length.
	SessionNonceSize = 16
	// SessionMACSize is the truncated per-frame session tag length. 128
	// bits of HMAC-SHA256 output: forgery still needs 2^128 work, half the
	// per-frame authenticator bytes.
	SessionMACSize = 16
)

// Domain tags for the session key schedule. Each derived value gets its
// own tag so a transcript captured in one role can never be replayed in
// another.
const (
	peerSessionTag   = "gc-peer-session-v1"
	helloTag         = "gc-hello-v1"
	helloAckTag      = "gc-hello-ack-v1"
	clientHelloTag   = "gc-client-hello-v1"
	clientAckTag     = "gc-client-hello-ack-v1"
	clientSessionTag = "gc-client-session-v1"
)

// HelloMAC authenticates a peer HELLO: the dialer proves it holds the
// pairwise key and binds its fresh nonce.
func HelloMAC(pair MACKey, dialer model.PID, nonce []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(dialer))
	sum := macSum(pair, []byte(helloTag), hdr[:], nonce)
	return sum[:]
}

// CheckHelloMAC verifies a peer HELLO tag in constant time.
func CheckHelloMAC(pair MACKey, dialer model.PID, nonce, tag []byte) bool {
	return hmac.Equal(HelloMAC(pair, dialer, nonce), tag)
}

// HelloAckMAC authenticates the acceptor's reply, binding both nonces (so
// neither end can be replayed into a stale handshake).
func HelloAckMAC(pair MACKey, dialer model.PID, dialerNonce, acceptorNonce []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(dialer))
	sum := macSum(pair, []byte(helloAckTag), hdr[:], dialerNonce, acceptorNonce)
	return sum[:]
}

// CheckHelloAckMAC verifies a HELLO acknowledgement in constant time.
func CheckHelloAckMAC(pair MACKey, dialer model.PID, dialerNonce, acceptorNonce, tag []byte) bool {
	return hmac.Equal(HelloAckMAC(pair, dialer, dialerNonce, acceptorNonce), tag)
}

// SessionKey derives the per-connection peer session key from the pairwise
// key and both handshake nonces. The dialer id is mixed in so the two
// directions of a pair never share a key schedule.
func SessionKey(pair MACKey, dialer model.PID, dialerNonce, acceptorNonce []byte) MACKey {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(dialer))
	return MACKey(macSum(pair, []byte(peerSessionTag), hdr[:], dialerNonce, acceptorNonce))
}

// SessionMAC computes the truncated per-frame tag over (seq, payload)
// under a session key, appending it to dst.
func SessionMAC(dst []byte, key MACKey, seq uint64, payload []byte) []byte {
	var seqb [8]byte
	binary.BigEndian.PutUint64(seqb[:], seq)
	sum := macSum(key, seqb[:], payload)
	return append(dst, sum[:SessionMACSize]...)
}

// CheckSessionMAC verifies a truncated session tag in constant time.
func CheckSessionMAC(key MACKey, seq uint64, payload, tag []byte) bool {
	var seqb [8]byte
	binary.BigEndian.PutUint64(seqb[:], seq)
	sum := macSum(key, seqb[:], payload)
	return hmac.Equal(sum[:SessionMACSize], tag)
}

// ClientHelloMAC authenticates a client's session HELLO under its command
// key.
func ClientHelloMAC(key MACKey, client uint32, nonce []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], client)
	sum := macSum(key, []byte(clientHelloTag), hdr[:], nonce)
	return sum[:]
}

// CheckClientHelloMAC verifies a client HELLO tag in constant time.
func CheckClientHelloMAC(key MACKey, client uint32, nonce, tag []byte) bool {
	return hmac.Equal(ClientHelloMAC(key, client, nonce), tag)
}

// ClientHelloAckMAC authenticates the replica's reply to a client HELLO,
// binding both nonces — the client learns it is talking to a keyholder,
// not a spoofed endpoint.
func ClientHelloAckMAC(key MACKey, client uint32, clientNonce, serverNonce []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], client)
	sum := macSum(key, []byte(clientAckTag), hdr[:], clientNonce, serverNonce)
	return sum[:]
}

// CheckClientHelloAckMAC verifies a client HELLO acknowledgement.
func CheckClientHelloAckMAC(key MACKey, client uint32, clientNonce, serverNonce, tag []byte) bool {
	return hmac.Equal(ClientHelloAckMAC(key, client, clientNonce, serverNonce), tag)
}

// ClientSessionKey derives the per-connection client session key.
func ClientSessionKey(key MACKey, client uint32, clientNonce, serverNonce []byte) MACKey {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], client)
	return MACKey(macSum(key, []byte(clientSessionTag), hdr[:], clientNonce, serverNonce))
}
