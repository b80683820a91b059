package transport

// Security tests for the connection-session protocol: every frame a
// correctly implemented peer never produces must drop the connection, and
// a dialer that has not completed a HELLO gets nothing but one MAC
// verification. The tests act as a raw dialer (or a raw acceptor) against
// a real node, driving the handshake and session framing by hand.

import (
	"crypto/rand"
	"encoding/binary"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/model"
	"genconsensus/internal/obs"
	"genconsensus/internal/wire"
)

// sessionEnv is the canonical test envelope from hostile-peer 1.
func sessionEnv(instance uint64) wire.Envelope {
	return wire.Envelope{
		Instance: instance, Round: 1, Sender: 1,
		Msg: model.Message{Kind: model.DecisionRound, Vote: "v"},
	}
}

// dialNode opens a raw TCP connection to the node's listener.
func dialNode(t *testing.T, n *Node) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// sendFrame writes payload to w as one length-prefixed frame.
func sendFrame(w io.Writer, payload []byte) error {
	frame, err := wire.FinishFrame(append(wire.BeginFrame(nil), payload...))
	if err == nil {
		_, err = w.Write(frame)
	}
	return err
}

// handshakeAs completes a dialer-side HELLO exchange with the node,
// claiming the given peer id, and returns the derived session key.
func handshakeAs(t *testing.T, conn net.Conn, n *Node, dialer model.PID) auth.MACKey {
	t.Helper()
	pair := auth.PairKey(n.cfg.AuthSeed, dialer, n.cfg.ID)
	h := wire.Hello{Kind: wire.HelloKindInit, Sender: uint32(dialer)}
	if _, err := rand.Read(h.Nonce[:]); err != nil {
		t.Fatal(err)
	}
	copy(h.MAC[:], auth.HelloMAC(pair, dialer, h.Nonce[:]))
	if err := sendFrame(conn, wire.AppendHello(nil, h)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("reading HELLO-ACK: %v", err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	ack, err := wire.DecodeHello(payload)
	if err != nil {
		t.Fatalf("decoding HELLO-ACK: %v", err)
	}
	if ack.Kind != wire.HelloKindAck || model.PID(ack.Sender) != n.cfg.ID {
		t.Fatalf("bad ACK: kind=%d sender=%d", ack.Kind, ack.Sender)
	}
	if !auth.CheckHelloAckMAC(pair, dialer, h.Nonce[:], ack.Nonce[:], ack.MAC[:]) {
		t.Fatal("HELLO-ACK MAC does not verify")
	}
	return auth.SessionKey(pair, dialer, h.Nonce[:], ack.Nonce[:])
}

// acceptHandshake runs the acceptor side of the HELLO exchange by hand, as
// member self of a cluster keyed by seed, and returns the session's MACer.
func acceptHandshake(conn net.Conn, self model.PID, seed int64) (*auth.SessionMACer, error) {
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	h, err := wire.DecodeHello(payload)
	if err != nil {
		return nil, err
	}
	dialer := model.PID(h.Sender)
	pair := auth.PairKey(seed, self, dialer)
	if !auth.CheckHelloMAC(pair, dialer, h.Nonce[:], h.MAC[:]) {
		return nil, errBadHandshake
	}
	ack := wire.Hello{Kind: wire.HelloKindAck, Sender: uint32(self)}
	if _, err := rand.Read(ack.Nonce[:]); err != nil {
		return nil, err
	}
	copy(ack.MAC[:], auth.HelloAckMAC(pair, dialer, h.Nonce[:], ack.Nonce[:]))
	if err := sendFrame(conn, wire.AppendHello(nil, ack)); err != nil {
		return nil, err
	}
	return auth.NewSessionMACer(auth.SessionKey(pair, dialer, h.Nonce[:], ack.Nonce[:])), nil
}

// fakePeer stands in for member id of requester's cluster until the test
// ends: it accepts one connection, completes the acceptor side of the
// HELLO, reads one session request and hands its inner payload to serve,
// which answers however the test likes. The requester's address book
// points id at it.
func fakePeer(t *testing.T, requester *Node, id model.PID, serve func(conn net.Conn, macer *auth.SessionMACer, req []byte)) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	requester.SetPeers(map[model.PID]string{requester.ID(): requester.Addr(), id: ln.Addr().String()})
	done := make(chan struct{})
	t.Cleanup(func() {
		_ = ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		macer, err := acceptHandshake(conn, id, requester.cfg.AuthSeed)
		if err != nil {
			t.Errorf("fake peer handshake: %v", err)
			return
		}
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Errorf("fake peer reading request: %v", err)
			return
		}
		seq, tag, inner, err := wire.SplitSessionFrame(payload)
		if err != nil || !macer.Check(seq, inner, tag) {
			t.Errorf("fake peer: request is not a valid session frame (%v)", err)
			return
		}
		serve(conn, macer, inner)
	}()
}

// replyAs writes inner to conn as the seq-th reply-direction session
// frame under macer.
func replyAs(t *testing.T, conn net.Conn, macer *auth.SessionMACer, seq uint64, inner []byte) {
	frame, err := sealSession(nil, macer, replyBit|seq, inner)
	if err == nil {
		_, err = conn.Write(frame)
	}
	if err != nil {
		t.Errorf("fake peer reply: %v", err)
	}
}

// sessionPayload wraps inner in one session frame payload under key.
func sessionPayload(key auth.MACKey, seq uint64, inner []byte) []byte {
	return wire.AppendSessionFrame(nil, seq, inner, func(seq uint64, inner []byte) [wire.SessionTagSize]byte {
		var tag [wire.SessionTagSize]byte
		copy(tag[:], auth.SessionMAC(nil, key, seq, inner))
		return tag
	})
}

// sessionFrame builds one session-wrapped envelope payload under key.
func sessionFrame(key auth.MACKey, seq uint64, env wire.Envelope) []byte {
	return sessionPayload(key, seq, wire.AppendEnvelope(nil, env))
}

// waitDelivered polls until the node has buffered the instance.
func waitDelivered(t *testing.T, n *Node, instance uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if n.HasInstance(instance) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("instance %d never delivered", instance)
}

// waitClosed asserts the node drops the connection: the next read must
// return EOF (or a reset) rather than time out.
func waitClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var b [1]byte
	_, err := conn.Read(b[:])
	if err == nil || errors_IsTimeout(err) {
		t.Fatalf("connection still open, read err = %v", err)
	}
}

func errors_IsTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// A correct handshake establishes a session that delivers envelopes, with
// sequence gaps allowed (only regressions are fatal).
func TestSessionHandshakeDelivers(t *testing.T) {
	nodes := startCluster(t, 2)
	conn := dialNode(t, nodes[0])
	key := handshakeAs(t, conn, nodes[0], 1)
	if err := sendFrame(conn, sessionFrame(key, 1, sessionEnv(1))); err != nil {
		t.Fatal(err)
	}
	waitDelivered(t, nodes[0], 1)
	// A gap (1 -> 5) is fine: frames may be dropped, never reordered.
	if err := sendFrame(conn, sessionFrame(key, 5, sessionEnv(2))); err != nil {
		t.Fatal(err)
	}
	waitDelivered(t, nodes[0], 2)
}

// A session frame MAC'd under the wrong key drops the connection before
// anything is delivered.
func TestSessionWrongKeyDropsConn(t *testing.T) {
	nodes := startCluster(t, 2)
	conn := dialNode(t, nodes[0])
	handshakeAs(t, conn, nodes[0], 1)
	var wrong auth.MACKey
	wrong[0] = 0xff
	if err := sendFrame(conn, sessionFrame(wrong, 1, sessionEnv(3))); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, conn)
	if nodes[0].HasInstance(3) {
		t.Fatal("forged session frame delivered")
	}
}

// A correctly tagged frame whose envelope names a sender other than the
// handshaken peer — another member's id or one out of range — drops the
// connection: a session authenticates its own peer only.
func TestSessionForeignSenderDropsConn(t *testing.T) {
	nodes := startCluster(t, 2)
	for _, sender := range []model.PID{0, 7} {
		conn := dialNode(t, nodes[0])
		key := handshakeAs(t, conn, nodes[0], 1)
		env := sessionEnv(3)
		env.Sender = sender
		if err := sendFrame(conn, sessionFrame(key, 1, env)); err != nil {
			t.Fatal(err)
		}
		waitClosed(t, conn)
	}
	if nodes[0].HasInstance(3) {
		t.Fatal("envelope under a foreign sender id delivered")
	}
}

// A replayed (non-increasing) session sequence drops the connection even
// though the tag itself verifies.
func TestSessionReplayDropsConn(t *testing.T) {
	nodes := startCluster(t, 2)
	conn := dialNode(t, nodes[0])
	key := handshakeAs(t, conn, nodes[0], 1)
	frame := sessionFrame(key, 7, sessionEnv(4))
	if err := sendFrame(conn, frame); err != nil {
		t.Fatal(err)
	}
	waitDelivered(t, nodes[0], 4)
	if err := sendFrame(conn, frame); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, conn)
}

// Requests travel only inside session frames: a bare state-transfer
// request after the handshake — the old unauthenticated fetch format — is
// refused and the connection dropped.
func TestSessionDowngradeDropsConn(t *testing.T) {
	nodes := startCluster(t, 2)
	conn := dialNode(t, nodes[0])
	handshakeAs(t, conn, nodes[0], 1)
	req := wire.AppendSnap(nil, wire.SnapEnvelope{Kind: wire.SnapRequest, Sender: 1})
	if err := sendFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, conn)
}

// Truncated, oversized and forged HELLOs all drop the connection outright.
func TestHelloMalformedDropsConn(t *testing.T) {
	nodes := startCluster(t, 2)

	truncated := make([]byte, wire.HelloFrameSize-5)
	truncated[0] = wire.HelloVersion
	oversized := make([]byte, wire.HelloFrameSize+5)
	oversized[0] = wire.HelloVersion
	forged := wire.AppendHello(nil, wire.Hello{Kind: wire.HelloKindInit, Sender: 1}) // zero MAC

	for name, payload := range map[string][]byte{
		"truncated": truncated, "oversized": oversized, "forged": forged,
	} {
		conn := dialNode(t, nodes[0])
		if err := sendFrame(conn, payload); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		waitClosed(t, conn)
	}
}

// Consensus envelopes travel only inside session frames: a bare envelope
// as a connection's first frame is a rejected handshake, counted as one,
// and the connection closes after it — the envelope behind it is never
// even read.
func TestBareEnvelopeRefusedAndCounted(t *testing.T) {
	reg := obs.NewRegistry()
	node, err := Listen(Config{
		ID: 0, N: 2,
		Peers:      map[model.PID]string{},
		ListenAddr: "127.0.0.1:0",
		AuthSeed:   42,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	bare := wire.AppendEnvelope(nil, sessionEnv(6))
	conn := dialNode(t, node)
	for i := 0; i < 2; i++ {
		if err := sendFrame(conn, bare); err != nil {
			break // the node already hung up
		}
	}
	waitClosed(t, conn)
	if node.HasInstance(6) {
		t.Fatal("bare envelope delivered")
	}
	if got := reg.CounterValue("transport.frames_in.envelope"); got != 1 {
		t.Fatalf("frames_in.envelope = %d, want 1: the frame after a refused one was read", got)
	}
	if got := reg.CounterValue("transport.handshake.rejected"); got != 1 {
		t.Fatalf("handshake.rejected = %d, want 1", got)
	}
}

// Before a HELLO only a HELLO is accepted. Whatever else opens a
// connection — garbage, a bare envelope, a session frame, an announce, a
// sealed request in the old format, a forged HELLO — closes it after that
// one frame: a valid HELLO right behind it gets no HELLO-ACK, and the
// connection has cost at most one MAC verification.
func TestFirstFrameNotHelloCloses(t *testing.T) {
	// The hook is set before the node starts and restored after it stops,
	// so no read loop sees it change.
	var macs atomic.Int64
	restore := checkHelloMAC
	checkHelloMAC = func(pair auth.MACKey, dialer model.PID, nonce, tag []byte) bool {
		macs.Add(1)
		return restore(pair, dialer, nonce, tag)
	}
	t.Cleanup(func() { checkHelloMAC = restore })
	node, err := Listen(Config{ID: 0, N: 2, ListenAddr: "127.0.0.1:0", AuthSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	valid := validHello(42, 1)
	for name, first := range preHandshakeFrames(42) {
		macs.Store(0)
		conn := dialNode(t, node)
		if err := sendFrame(conn, first); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_ = sendFrame(conn, valid) // may fail once the node hung up
		waitClosed(t, conn)
		if got := macs.Load(); got > 1 {
			t.Fatalf("%s: %d HELLO MACs computed, want at most 1", name, got)
		}
	}
}

// validHello builds a HELLO INIT from dialer under the pairwise key of a
// cluster keyed by seed, addressed to member 0.
func validHello(seed int64, dialer model.PID) []byte {
	h := wire.Hello{Kind: wire.HelloKindInit, Sender: uint32(dialer)}
	copy(h.Nonce[:], "fuzz-dial-nonce!")
	copy(h.MAC[:], auth.HelloMAC(auth.PairKey(seed, dialer, 0), dialer, h.Nonce[:]))
	return wire.AppendHello(nil, h)
}

// preHandshakeFrames are first frames a member-0 acceptor must refuse.
func preHandshakeFrames(seed int64) map[string][]byte {
	forged := wire.AppendHello(nil, wire.Hello{Kind: wire.HelloKindInit, Sender: 1}) // zero MAC
	sum, body := payloadBody("announced before any HELLO")
	// The pre-session fetch format: a snap request with a trailing
	// authLen(u16) and a full pairwise MAC.
	sealed := wire.AppendSnap(nil, wire.SnapEnvelope{Kind: wire.SnapRequest, Sender: 1})
	sealed = binary.BigEndian.AppendUint16(sealed, 32)
	sealed = append(sealed, auth.MAC(auth.PairKey(seed, 1, 0), sealed[:len(sealed)-2])...)
	return map[string][]byte{
		"garbage":        {0xde, 0xad, 0xbe, 0xef},
		"bare envelope":  wire.AppendEnvelope(nil, sessionEnv(1)),
		"session frame":  sessionFrame(auth.MACKey{}, 1, sessionEnv(1)),
		"announce":       wire.AppendPayloadValue(nil, wire.Payload{Kind: wire.PayloadAnnounce, Sender: 1, Instance: 1, Digest: sum}, body),
		"sealed request": sealed,
		"forged hello":   forged,
		"hello ack":      wire.AppendHello(nil, wire.Hello{Kind: wire.HelloKindAck, Sender: 1}),
	}
}

// The outbound path survives a peer restart: the first send after the old
// link dies redials and re-handshakes transparently.
func TestSendRedialsAfterPeerRestart(t *testing.T) {
	nodes := startCluster(t, 2)
	nodes[1].send(0, sessionEnv(1))
	waitDelivered(t, nodes[0], 1)

	// Restart node 0 on the same address.
	addr := nodes[0].Addr()
	_ = nodes[0].Close()
	restarted, err := Listen(Config{
		ID: 0, N: 2,
		Peers:      map[model.PID]string{1: nodes[1].Addr()},
		ListenAddr: addr,
		AuthSeed:   42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()

	// The stale link errors out on some send; a later send must land over a
	// fresh handshaken connection.
	deadline := time.Now().Add(5 * time.Second)
	for !restarted.HasInstance(2) && time.Now().Before(deadline) {
		nodes[1].send(0, sessionEnv(2))
		time.Sleep(10 * time.Millisecond)
	}
	if !restarted.HasInstance(2) {
		t.Fatal("send never recovered after peer restart")
	}
}

// Sequence order equals wire order even when many goroutines enqueue
// concurrently on the shared link — nothing is dropped by the monotonic
// sequence check on the receiver.
func TestConcurrentSendsKeepSequenceOrder(t *testing.T) {
	nodes := startCluster(t, 2)
	const total = 64
	done := make(chan struct{}, total)
	for i := 0; i < total; i++ {
		go func(i int) {
			nodes[1].send(0, sessionEnv(uint64(100+i)))
			done <- struct{}{}
		}(i)
	}
	for i := 0; i < total; i++ {
		<-done
	}
	deadline := time.Now().Add(2 * time.Second)
	for nodes[0].InstanceCount() < total && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := nodes[0].InstanceCount(); got != total {
		t.Fatalf("delivered %d of %d concurrent sends", got, total)
	}
}
