package auth

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"
)

func TestSignVerify(t *testing.T) {
	kr, err := NewKeyring(4, 42)
	if err != nil {
		t.Fatal(err)
	}
	signer, err := kr.Signer(2)
	if err != nil {
		t.Fatal(err)
	}
	if signer.ID() != 2 {
		t.Errorf("signer ID = %d", signer.ID())
	}
	payload := []byte("selection round message")
	sig := signer.Sign(payload)
	if err := kr.Verifier().Verify(2, payload, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyRejectsForgery(t *testing.T) {
	kr, _ := NewKeyring(4, 42)
	signer, _ := kr.Signer(1)
	payload := []byte("msg")
	sig := signer.Sign(payload)

	// Wrong claimed signer.
	if err := kr.Verifier().Verify(2, payload, sig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("impersonation accepted: %v", err)
	}
	// Tampered payload.
	if err := kr.Verifier().Verify(1, []byte("msG"), sig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered payload accepted: %v", err)
	}
	// Tampered signature.
	bad := append([]byte(nil), sig...)
	bad[0] ^= 0xff
	if err := kr.Verifier().Verify(1, payload, bad); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered signature accepted: %v", err)
	}
	// Unknown signer.
	if err := kr.Verifier().Verify(9, payload, sig); !errors.Is(err, ErrUnknownSigner) {
		t.Errorf("unknown signer: %v", err)
	}
	if _, err := kr.Signer(9); !errors.Is(err, ErrUnknownSigner) {
		t.Errorf("Signer(9): %v", err)
	}
}

func TestKeyringDeterminism(t *testing.T) {
	kr1, _ := NewKeyring(3, 7)
	kr2, _ := NewKeyring(3, 7)
	s1, _ := kr1.Signer(0)
	s2, _ := kr2.Signer(0)
	payload := []byte("x")
	if string(s1.Sign(payload)) != string(s2.Sign(payload)) {
		t.Error("same seed must derive identical keys")
	}
	kr3, _ := NewKeyring(3, 8)
	s3, _ := kr3.Signer(0)
	if string(s1.Sign(payload)) == string(s3.Sign(payload)) {
		t.Error("different seeds must derive different keys")
	}
}

func TestPairKeySymmetry(t *testing.T) {
	if PairKey(1, 0, 3) != PairKey(1, 3, 0) {
		t.Error("PairKey must be symmetric")
	}
	if PairKey(1, 0, 3) == PairKey(1, 0, 2) {
		t.Error("distinct pairs must get distinct keys")
	}
	if PairKey(1, 0, 3) == PairKey(2, 0, 3) {
		t.Error("distinct seeds must get distinct keys")
	}
}

func TestMAC(t *testing.T) {
	key := PairKey(5, 0, 1)
	payload := []byte("round 3 vote")
	tag := MAC(key, payload)
	if !bytes.Equal(MAC(key, payload), tag) {
		t.Fatal("MAC is not deterministic")
	}
	if bytes.Equal(MAC(key, []byte("round 3 votE")), tag) {
		t.Error("tampered payload has the same tag")
	}
	other := PairKey(5, 0, 2)
	if bytes.Equal(MAC(other, payload), tag) {
		t.Error("another key gives the same tag")
	}
}

func TestClientSignerVerify(t *testing.T) {
	kr := NewClientKeyring(9, 4)
	if kr.NumClients() != 4 {
		t.Fatalf("NumClients = %d", kr.NumClients())
	}
	signer := NewClientSigner(9, 2)
	payload := []byte("c2.7|SET|color|green")
	mac := signer.Sign(7, payload)
	if !kr.VerifyCommand(2, 7, payload, mac) {
		t.Fatal("valid client MAC rejected")
	}
	if kr.VerifyCommand(2, 8, payload, mac) {
		t.Error("MAC verified under the wrong seq")
	}
	if kr.VerifyCommand(1, 7, payload, mac) {
		t.Error("MAC verified under the wrong client")
	}
	if kr.VerifyCommand(2, 7, []byte("c2.7|SET|color|red"), mac) {
		t.Error("MAC verified over a tampered payload")
	}
	// Unknown client ids (outside the provisioned keyring) never verify.
	if kr.VerifyCommand(99, 7, payload, NewClientSigner(9, 99).Sign(7, payload)) {
		t.Error("command from an unprovisioned client verified")
	}
	// A different cluster seed yields disjoint keys.
	if kr.VerifyCommand(2, 7, payload, NewClientSigner(10, 2).Sign(7, payload)) {
		t.Error("MAC from a foreign seed verified")
	}
}

func TestClientKeyDomainSeparation(t *testing.T) {
	if ClientKey(3, 0) == ClientKey(3, 1) {
		t.Error("distinct clients must get distinct keys")
	}
	if ClientKey(3, 0) == ClientKey(4, 0) {
		t.Error("distinct seeds must get distinct keys")
	}
	// Client keys must not collide with the pairwise channel keyspace: a
	// captured channel MAC must never verify as a command MAC.
	if ClientKey(3, 1) == PairKey(3, 0, 1) {
		t.Error("client key collides with a pairwise channel key")
	}
}

// TestMACMatchesCryptoHMAC pins the pooled-buffer HMAC implementation to
// crypto/hmac bit for bit: every frame seal, session tag and command
// authenticator in the system depends on this equivalence.
func TestMACMatchesCryptoHMAC(t *testing.T) {
	key := PairKey(99, 0, 1)
	for _, payload := range [][]byte{
		nil,
		{},
		[]byte("x"),
		[]byte("a longer payload spanning more than one sha256 block ---------------------------------"),
		bytes.Repeat([]byte{0xa5}, 4096),
	} {
		ref := hmac.New(sha256.New, key[:])
		ref.Write(payload)
		want := ref.Sum(nil)
		if got := MAC(key, payload); !bytes.Equal(got, want) {
			t.Fatalf("MAC mismatch for %d-byte payload:\n got %x\nwant %x", len(payload), got, want)
		}
	}
}

// The command authenticator resumes cached key midstates; its output must
// stay the plain HMAC-SHA256 of (tag, client, seq, payload) under the
// client key, for byte and string payloads alike.
func TestCommandMACMatchesCryptoHMAC(t *testing.T) {
	const seed, client = 99, 3
	signer := NewClientSigner(seed, client)
	kr := NewClientKeyring(seed, 4)
	key := ClientKey(seed, client)
	for _, payload := range [][]byte{
		nil,
		[]byte("x"),
		[]byte("c3.17|SET|key|value"),
		bytes.Repeat([]byte("block-boundary.."), 4),
		bytes.Repeat([]byte{0xa5}, 4096),
	} {
		for _, seq := range []uint64{0, 1, 1 << 40, 1<<64 - 1} {
			ref := hmac.New(sha256.New, key[:])
			ref.Write([]byte(commandTag))
			ref.Write(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(nil, client), seq))
			ref.Write(payload)
			want := ref.Sum(nil)
			if got := signer.Sign(seq, payload); !bytes.Equal(got, want) {
				t.Fatalf("Sign(%d, %d bytes):\n got %x\nwant %x", seq, len(payload), got, want)
			}
			if !kr.VerifyCommand(client, seq, payload, want) {
				t.Fatalf("VerifyCommand rejects the crypto/hmac tag (seq %d, %d bytes)", seq, len(payload))
			}
			if !kr.VerifyCommandStr(client, seq, string(payload), string(want)) {
				t.Fatalf("VerifyCommandStr rejects the crypto/hmac tag (seq %d, %d bytes)", seq, len(payload))
			}
			if kr.VerifyCommand(client+1, seq, payload, want) || kr.VerifyCommand(client, seq+1, payload, want) {
				t.Fatalf("tag accepted for another client or seq")
			}
		}
	}
	if key2, ok := kr.Key(client); !ok || key2 != key {
		t.Fatal("keyring does not return the client key")
	}
	if _, ok := kr.Key(4); ok {
		t.Fatal("keyring returns a key for an unprovisioned client")
	}
}

func TestSessionKeySchedule(t *testing.T) {
	pair := PairKey(7, 0, 1)
	nd := []byte("dialer-nonce-16b")
	na := []byte("accept-nonce-16b")
	k1 := SessionKey(pair, 0, nd, na)
	// Deterministic for both ends.
	if k2 := SessionKey(pair, 0, nd, na); k1 != k2 {
		t.Fatal("session key not deterministic")
	}
	// Direction, nonces and pair key all separate the schedule.
	if k1 == SessionKey(pair, 1, nd, na) {
		t.Error("dialer direction must change the session key")
	}
	if k1 == SessionKey(pair, 0, na, nd) {
		t.Error("nonce order must change the session key")
	}
	if k1 == SessionKey(PairKey(7, 0, 2), 0, nd, na) {
		t.Error("pair key must change the session key")
	}
	if k1 == pair {
		t.Error("session key must not equal the pairwise key")
	}
}

func TestSessionMACRoundTrip(t *testing.T) {
	key := SessionKey(PairKey(7, 0, 1), 0, []byte("dialer-nonce-16b"), []byte("accept-nonce-16b"))
	payload := []byte("frame payload")
	tag := SessionMAC(nil, key, 42, payload)
	if len(tag) != SessionMACSize {
		t.Fatalf("session tag length %d, want %d", len(tag), SessionMACSize)
	}
	if !CheckSessionMAC(key, 42, payload, tag) {
		t.Fatal("genuine session MAC rejected")
	}
	if CheckSessionMAC(key, 43, payload, tag) {
		t.Error("session MAC verified under the wrong sequence")
	}
	if CheckSessionMAC(key, 42, []byte("other payload"), tag) {
		t.Error("session MAC verified over different bytes")
	}
	other := SessionKey(PairKey(7, 0, 1), 1, []byte("dialer-nonce-16b"), []byte("accept-nonce-16b"))
	if CheckSessionMAC(other, 42, payload, tag) {
		t.Error("session MAC verified under a different session key")
	}
}

func TestHelloMACs(t *testing.T) {
	pair := PairKey(7, 2, 3)
	nonce := []byte("dialer-nonce-16b")
	tag := HelloMAC(pair, 2, nonce)
	if !CheckHelloMAC(pair, 2, nonce, tag) {
		t.Fatal("genuine HELLO tag rejected")
	}
	if CheckHelloMAC(pair, 3, nonce, tag) {
		t.Error("HELLO tag verified for the wrong dialer")
	}
	ack := HelloAckMAC(pair, 2, nonce, []byte("accept-nonce-16b"))
	if !CheckHelloAckMAC(pair, 2, nonce, []byte("accept-nonce-16b"), ack) {
		t.Fatal("genuine HELLO-ACK tag rejected")
	}
	if CheckHelloAckMAC(pair, 2, nonce, []byte("accept-nonce-16X"), ack) {
		t.Error("HELLO-ACK verified with a different acceptor nonce")
	}
	// HELLO and ACK tags are domain-separated even over identical fields.
	if bytes.Equal(tag, HelloAckMAC(pair, 2, nonce, nil)) {
		t.Error("HELLO and HELLO-ACK share a tag")
	}
}

func TestClientSessionSchedule(t *testing.T) {
	key := ClientKey(11, 5)
	cn := []byte("client-nonce-16b")
	sn := []byte("server-nonce-16b")
	tag := ClientHelloMAC(key, 5, cn)
	if !CheckClientHelloMAC(key, 5, cn, tag) {
		t.Fatal("genuine client HELLO rejected")
	}
	if CheckClientHelloMAC(key, 6, cn, tag) {
		t.Error("client HELLO verified for the wrong client id")
	}
	ack := ClientHelloAckMAC(key, 5, cn, sn)
	if !CheckClientHelloAckMAC(key, 5, cn, sn, ack) {
		t.Fatal("genuine client HELLO-ACK rejected")
	}
	sk := ClientSessionKey(key, 5, cn, sn)
	if sk == key {
		t.Error("client session key must not equal the client key")
	}
	if sk != ClientSessionKey(key, 5, cn, sn) {
		t.Error("client session key not deterministic")
	}
	if sk == ClientSessionKey(key, 5, sn, cn) {
		t.Error("client session key ignores nonce order")
	}
}
