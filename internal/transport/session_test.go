package transport

// Security tests for the connection-session protocol: every frame a
// correctly implemented peer never produces must drop the connection, and
// a hostile dialer must be rate-limited before it can burn unbounded MAC
// work. The tests act as a raw dialer against a real node, driving the
// handshake and session framing by hand.

import (
	"crypto/rand"
	"io"
	"net"
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
	return writeFrame(w, append(wire.BeginFrame(nil), payload...))
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

// sessionFrame builds one session-wrapped envelope payload under key.
func sessionFrame(key auth.MACKey, seq uint64, env wire.Envelope) []byte {
	inner := wire.AppendEnvelope(nil, env)
	return wire.AppendSessionFrame(nil, seq, inner, func(seq uint64, inner []byte) [wire.SessionTagSize]byte {
		var tag [wire.SessionTagSize]byte
		copy(tag[:], auth.SessionMAC(nil, key, seq, inner))
		return tag
	})
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

// A sealed state-transfer request arriving after the handshake is a
// downgrade attempt: the connection is dropped before the seal is looked at.
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
// on a never-handshaken connection is refused even when its pairwise seal
// verifies, each one costs a strike, and spending the budget drops the
// connection — the rate limit on what a hostile dialer can extract.
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
	// Under the node lock, which the accept loop takes before it spawns the
	// read loop that consults the budget.
	node.mu.Lock()
	node.maxAuthFailures = 3
	node.mu.Unlock()

	sealed := wire.AppendSignedEnvelope(nil, sessionEnv(6), func(covered []byte) []byte {
		return auth.MAC(auth.PairKey(42, 1, 0), covered)
	})
	conn := dialNode(t, node)
	for i := 0; i < 4; i++ {
		if err := sendFrame(conn, sealed); err != nil {
			t.Fatal(err)
		}
	}
	waitClosed(t, conn)
	if node.HasInstance(6) {
		t.Fatal("bare sealed envelope delivered")
	}
	if got := reg.CounterValue("transport.frames_in.envelope"); got != 4 {
		t.Fatalf("frames_in.envelope = %d, want 4", got)
	}
	if strikes, trips := reg.CounterValue("transport.auth_strikes"), reg.CounterValue("transport.strike_trips"); strikes != 4 || trips != 1 {
		t.Fatalf("auth_strikes = %d, strike_trips = %d, want 4 and 1", strikes, trips)
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

// RegisterHandler extends the read loop with a new frame family, and
// removing the handler makes the family count against the strike budget.
func TestRegisterHandlerDispatch(t *testing.T) {
	nodes := startCluster(t, 2)
	const customVersion = 0x7f
	got := make(chan []byte, 1)
	nodes[0].RegisterHandler(customVersion, func(c *Conn, payload []byte) error {
		cp := append([]byte(nil), payload...)
		select {
		case got <- cp:
		default:
		}
		return nil
	})
	conn := dialNode(t, nodes[0])
	if err := sendFrame(conn, []byte{customVersion, 'h', 'i'}); err != nil {
		t.Fatal(err)
	}
	select {
	case payload := <-got:
		if string(payload[1:]) != "hi" {
			t.Fatalf("handler got %q", payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("custom handler never invoked")
	}
	nodes[0].RegisterHandler(customVersion, nil)
	if err := sendFrame(conn, []byte{customVersion}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
		t.Fatal("removed handler still invoked")
	case <-time.After(50 * time.Millisecond):
	}
}
