package auth

import (
	"bytes"
	"fmt"
	"testing"
)

func TestSessionMACerMatchesSessionMAC(t *testing.T) {
	key := ClientSessionKey(ClientKey(7, 3), 3, []byte("client-nonce-16b"), []byte("server-nonce-16b"))
	m := NewSessionMACer(key)
	payloads := [][]byte{
		nil,
		[]byte(""),
		[]byte("x"),
		[]byte("3 17 SET user:123 some-value"),
		bytes.Repeat([]byte("block-boundary.."), 4),   // exactly 64 bytes
		bytes.Repeat([]byte("spanning-blocks!"), 100), // multi-block
	}
	for _, payload := range payloads {
		for _, seq := range []uint64{0, 1, 42, 1 << 40} {
			want := SessionMAC(nil, key, seq, payload)
			got := m.Append(nil, seq, payload)
			if !bytes.Equal(got, want) {
				t.Fatalf("seq %d payload %d bytes: macer %x, SessionMAC %x", seq, len(payload), got, want)
			}
			if !m.Check(seq, payload, want) {
				t.Fatalf("seq %d: macer rejects SessionMAC tag", seq)
			}
			if !CheckSessionMAC(key, seq, payload, got) {
				t.Fatalf("seq %d: CheckSessionMAC rejects macer tag", seq)
			}
			bad := append([]byte(nil), want...)
			bad[0] ^= 1
			if m.Check(seq, payload, bad) {
				t.Fatalf("seq %d: macer accepts corrupted tag", seq)
			}
		}
	}
	// Reuse across many tags must not leak state between calls.
	for i := 0; i < 100; i++ {
		payload := []byte(fmt.Sprintf("SCMD %d SET k-%d v-%d", i, i, i))
		if !bytes.Equal(m.Append(nil, uint64(i), payload), SessionMAC(nil, key, uint64(i), payload)) {
			t.Fatalf("iteration %d diverged", i)
		}
	}
}

func BenchmarkSessionMAC(b *testing.B) {
	key := ClientKey(7, 1)
	payload := []byte("1 12345 SET user:12345 value-12345")
	b.Run("plain", func(b *testing.B) {
		var dst []byte
		for i := 0; i < b.N; i++ {
			dst = SessionMAC(dst[:0], key, uint64(i), payload)
		}
	})
	b.Run("midstate", func(b *testing.B) {
		m := NewSessionMACer(key)
		var dst []byte
		for i := 0; i < b.N; i++ {
			dst = m.Append(dst[:0], uint64(i), payload)
		}
	})
}

// BenchmarkCommandMAC times the per-command authenticator on both sides:
// the signer (ingress mints one per session write) and the keyring (one per
// verdict-cache miss).
func BenchmarkCommandMAC(b *testing.B) {
	signer := NewClientSigner(7, 1)
	kr := NewClientKeyring(7, 4)
	payload := []byte("c1.12345|SET|key-0123|" + string(bytes.Repeat([]byte("v"), 64)))
	b.Run("sign", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			macSink = signer.Sign(uint64(i), payload)
		}
	})
	b.Run("verify", func(b *testing.B) {
		b.ReportAllocs()
		mac := signer.Sign(9, payload)
		for i := 0; i < b.N; i++ {
			if !kr.VerifyCommand(1, 9, payload, mac) {
				b.Fatal("genuine MAC rejected")
			}
		}
	})
}

var macSink []byte
