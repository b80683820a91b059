package transport

// Connection sessions, the frame-handler registry and the coalescing write
// path: the hot half of the transport.
//
// # Handler registry
//
// Every inbound frame is dispatched on its first payload byte (the wire
// frame-family version) through a registry installed with RegisterHandler.
// Listen registers the four built-in families: state transfer
// (wire.SnapVersion), handshakes (wire.HelloVersion), session frames
// (wire.SessionVersion) and payload exchange (wire.PayloadVersion). New
// frame families plug in without touching the read loop. A bare consensus
// envelope (wire.Version) has no handler: envelopes travel only inside
// session frames.
//
// # Session lifecycle
//
// Outbound peer connections handshake at dial time: the dialer sends a
// HELLO binding a fresh nonce under the pairwise key, the acceptor replies
// with a HELLO-ACK covering both nonces, and both ends derive the
// connection's session key (auth.SessionKey). From then on every consensus
// envelope travels as a session frame — a truncated MAC over (seq, inner)
// plus a strictly monotonic sequence. A sealed state-transfer or payload
// request arriving on a handshaken connection is a downgrade attempt and
// drops the connection, as does a bad tag, a replayed sequence or a
// malformed HELLO. The synchronous state-transfer and payload-fetch
// exchanges run on dedicated connections that never handshake and speak
// pairwise-sealed frames, throttled by a per-connection strike budget
// (maxAuthFailures); a frame of any other family on such a
// connection — a bare consensus envelope included — costs a strike.
//
// # Write coalescing and buffer ownership
//
// send encodes each envelope into a pooled frame buffer and appends it to
// the peer's pending queue; a per-connection flusher drains the queue with
// one vectored write (net.Buffers) per wakeup, so frames produced by
// concurrent pipelined instances in the same tick share a syscall instead
// of serializing one write each under a mutex. Ownership of a frame buffer
// transfers exactly once — producer → pending queue → flusher — and the
// flusher returns it to the pool after the write; nothing touches a buffer
// after wire.PutFrame.

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/model"
	"genconsensus/internal/wire"
)

// Session protocol violations. Any of them drops the connection: a
// correctly implemented peer never produces one, so they signal an attack,
// corruption or a broken build on the other end.
var (
	errDowngrade       = errors.New("transport: sealed frame on handshaken connection (downgrade attempt)")
	errBadHandshake    = errors.New("transport: handshake rejected")
	errRehandshake     = errors.New("transport: second HELLO on handshaken connection")
	errNoSession       = errors.New("transport: session frame before handshake")
	errBadSessionTag   = errors.New("transport: session tag verification failed")
	errSessionSender   = errors.New("transport: session envelope sender does not match handshaken peer")
	errTooManyFailures = errors.New("transport: auth-failure budget exhausted")
)

// FrameHandler consumes one inbound frame. payload aliases the
// connection's reusable read buffer and is only valid for the duration of
// the call — handlers must copy whatever outlives it (wire.Decode already
// copies every field it returns). A non-nil error drops the connection.
type FrameHandler func(c *Conn, payload []byte) error

// Conn is the receive state of one accepted connection. It is owned by the
// connection's read loop: handlers run on that goroutine and may use the
// fields without locking.
type Conn struct {
	node *Node
	conn net.Conn

	// sessioned is set once a HELLO exchange completed; from then on the
	// connection speaks session frames exclusively.
	sessioned bool
	// peer is the handshaken sender (valid only when sessioned).
	peer model.PID
	// key is the derived per-connection session key.
	key auth.MACKey
	// macer caches the session key's HMAC midstates; only the read loop
	// touches it.
	macer *auth.SessionMACer
	// recvSeq is the highest session sequence accepted so far.
	recvSeq uint64
	// authFails counts recoverable verification failures (see strike).
	authFails int
}

// RemoteAddr exposes the underlying connection's remote address.
func (c *Conn) RemoteAddr() net.Addr { return c.conn.RemoteAddr() }

// Peer returns the handshaken peer id, or false before any handshake.
func (c *Conn) Peer() (model.PID, bool) { return c.peer, c.sessioned }

// strike counts one recoverable protocol failure — a malformed or badly
// sealed frame, or one with no handler — and converts it into a fatal error
// once the budget is spent. It is the rate-limit hook for hostile or broken
// dialers: an unauthenticated client can make a node burn at most
// maxAuthFailures MAC verifications per connection before the connection is
// dropped.
func (c *Conn) strike() error {
	c.authFails++
	c.node.m.strikes.Inc()
	if c.authFails > c.node.maxAuthFailures {
		c.node.m.strikeTrips.Inc()
		c.node.events.Emit(-1, "auth.reject",
			"layer", "transport", "remote", c.conn.RemoteAddr().String(),
			"strikes", c.authFails)
		return errTooManyFailures
	}
	return nil
}

// RegisterHandler installs fn for inbound frames whose first payload byte
// is version, replacing any previous handler for that family. Passing nil
// removes the handler; frames with no handler count against the
// connection's strike budget and are otherwise dropped.
func (n *Node) RegisterHandler(version uint8, fn FrameHandler) {
	n.hmu.Lock()
	n.handlers[version] = fn
	n.hmu.Unlock()
}

func (n *Node) handler(version uint8) FrameHandler {
	n.hmu.RLock()
	fn := n.handlers[version]
	n.hmu.RUnlock()
	return fn
}

// registerBuiltins wires the four built-in frame families.
func (n *Node) registerBuiltins() {
	n.RegisterHandler(wire.SnapVersion, n.handleSnapRequest)
	n.RegisterHandler(wire.HelloVersion, n.handleHelloCounted)
	n.RegisterHandler(wire.SessionVersion, n.handleSessionFrame)
	n.RegisterHandler(wire.PayloadVersion, n.handlePayloadFrame)
}

// handleHelloCounted is handleHello plus outcome accounting: a rejected
// handshake is a security-relevant event, so it is both counted and
// logged. Success accounting lives in handleHello where the peer id is in
// scope.
func (n *Node) handleHelloCounted(c *Conn, payload []byte) error {
	err := n.handleHello(c, payload)
	if err != nil {
		n.m.handshakeReject.Inc()
		n.events.Emit(-1, "peer.handshake",
			"dir", "accept", "ok", false,
			"remote", c.conn.RemoteAddr().String(), "err", err)
	}
	return err
}

// handleSnapRequest serves a state-transfer request. The exchanges are
// synchronous request/response on dedicated dialed connections that never
// handshake; on a handshaken peer link a sealed snap frame is a downgrade.
func (n *Node) handleSnapRequest(c *Conn, payload []byte) error {
	if c.sessioned {
		return errDowngrade
	}
	n.handleSnapFrame(c.conn, payload)
	return nil
}

// handleHello runs the acceptor side of the session handshake.
func (n *Node) handleHello(c *Conn, payload []byte) error {
	h, err := wire.DecodeHello(payload)
	if err != nil {
		return err // truncated, padded or malformed HELLO: drop outright
	}
	if h.Kind != wire.HelloKindInit {
		return errBadHandshake // an ACK never arrives on an accepted conn
	}
	if c.sessioned {
		return errRehandshake
	}
	peer := model.PID(h.Sender)
	if int(peer) < 0 || int(peer) >= n.cfg.N || peer == n.cfg.ID {
		return errBadHandshake
	}
	pair := n.pairKey(peer)
	if !auth.CheckHelloMAC(pair, peer, h.Nonce[:], h.MAC[:]) {
		return errBadHandshake
	}
	ack := wire.Hello{Kind: wire.HelloKindAck, Sender: uint32(n.cfg.ID)}
	if _, err := rand.Read(ack.Nonce[:]); err != nil {
		return err
	}
	copy(ack.MAC[:], auth.HelloAckMAC(pair, peer, h.Nonce[:], ack.Nonce[:]))
	frame, err := wire.FinishFrame(wire.AppendHello(wire.BeginFrame(wire.GetFrame()), ack))
	if err != nil {
		return err
	}
	_, err = c.conn.Write(frame)
	wire.PutFrame(frame)
	if err != nil {
		return err
	}
	c.sessioned = true
	c.peer = peer
	c.key = auth.SessionKey(pair, peer, h.Nonce[:], ack.Nonce[:])
	c.macer = auth.NewSessionMACer(c.key)
	c.recvSeq = 0
	n.m.handshakeAccept.Inc()
	n.events.Emit(-1, "peer.handshake", "dir", "accept", "ok", true, "peer", int(peer))
	return nil
}

// handleSessionFrame verifies and delivers one session-wrapped envelope:
// monotonic sequence first (replay is cheap to reject), then the truncated
// session tag over every inner byte, then the decode. The inner envelope
// carries no seal — the session tag is its authenticity — but its Sender
// must still match the handshaken peer, or a Byzantine member could inject
// messages under another's id.
func (n *Node) handleSessionFrame(c *Conn, payload []byte) error {
	if !c.sessioned {
		return errNoSession
	}
	seq, tag, inner, err := wire.SplitSessionFrame(payload)
	if err != nil {
		return err
	}
	if seq <= c.recvSeq {
		return wire.ErrSessionReuse
	}
	// Pre-MAC drop: frames for instances the local commit already released
	// (mostly peers' helper-round blasts arriving late) cause no state
	// change, so they need no authentication — discarding them here skips
	// the session MAC and the decode. recvSeq does not advance: only
	// authenticated frames may move it, else a forged sequence could wedge
	// the link. An attacker gains nothing — naming an unreleased instance
	// just routes the frame into the MAC check below.
	if inst, ok := wire.PeekInstance(inner); ok && n.instanceReleased(inst) {
		return nil
	}
	if !c.macer.Check(seq, inner, tag) {
		return errBadSessionTag
	}
	c.recvSeq = seq
	env, err := wire.Decode(inner)
	if err != nil {
		return err
	}
	if env.Sender != c.peer {
		return errSessionSender
	}
	n.deliverLocal(env)
	return nil
}

// --- Outbound: dial-time handshake and the coalescing writer ----------------

// peerConn is one lazily-dialed, handshaken outbound peer link. Producers
// append encoded frames to pending under mu; the flusher goroutine drains
// the queue with vectored writes. The session sequence is allocated under
// the same mutex as the append, so wire order always equals sequence order.
type peerConn struct {
	node  *Node
	dst   model.PID
	conn  net.Conn
	key   auth.MACKey
	macer *auth.SessionMACer // guarded by mu, like the sequence it signs

	mu      sync.Mutex
	pending [][]byte // completed frames (owned until handed to the flusher)
	sendSeq uint64
	failed  bool

	signal chan struct{} // wakes the flusher, capacity 1
	vec    net.Buffers   // flusher scratch; WriteTo consumes it in place
}

// connTo returns the established peer link, dialing and handshaking if
// necessary. Dial and handshake run outside the node lock; a racing dial
// keeps the first registered connection. Returns nil when the peer is
// unreachable or rejects the handshake — in a partially synchronous system
// that is indistinguishable from slowness, so callers just drop the send.
func (n *Node) connTo(dst model.PID) *peerConn {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	pc, ok := n.conns[dst]
	addr := n.cfg.Peers[dst]
	n.mu.Unlock()
	if ok {
		return pc
	}
	c, err := net.DialTimeout("tcp", addr, n.cfg.BaseTimeout)
	if err != nil {
		n.m.dialFail.Inc()
		return nil
	}
	key, err := n.dialHandshake(c, dst)
	if err != nil {
		_ = c.Close()
		n.m.dialFail.Inc()
		n.events.Emit(-1, "peer.handshake", "dir", "dial", "ok", false, "peer", int(dst), "err", err)
		return nil
	}
	n.m.dialOK.Inc()
	n.events.Emit(-1, "peer.handshake", "dir", "dial", "ok", true, "peer", int(dst))
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		_ = c.Close()
		return nil
	}
	if existing, raced := n.conns[dst]; raced {
		n.mu.Unlock()
		_ = c.Close()
		return existing
	}
	pc = &peerConn{
		node:   n,
		dst:    dst,
		conn:   c,
		key:    key,
		macer:  auth.NewSessionMACer(key),
		signal: make(chan struct{}, 1),
	}
	n.conns[dst] = pc
	n.wg.Add(1)
	go pc.flushLoop()
	n.mu.Unlock()
	return pc
}

// dialHandshake runs the dialer side of the HELLO exchange on a fresh
// connection and returns the derived session key. The whole exchange is
// bounded by HandshakeTimeout; the deadline is cleared on success.
func (n *Node) dialHandshake(c net.Conn, dst model.PID) (auth.MACKey, error) {
	pair := n.pairKey(dst)
	h := wire.Hello{Kind: wire.HelloKindInit, Sender: uint32(n.cfg.ID)}
	if _, err := rand.Read(h.Nonce[:]); err != nil {
		return auth.MACKey{}, err
	}
	copy(h.MAC[:], auth.HelloMAC(pair, n.cfg.ID, h.Nonce[:]))
	frame, err := wire.FinishFrame(wire.AppendHello(wire.BeginFrame(wire.GetFrame()), h))
	if err != nil {
		return auth.MACKey{}, err
	}
	if err := c.SetDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		wire.PutFrame(frame)
		return auth.MACKey{}, err
	}
	_, err = c.Write(frame)
	wire.PutFrame(frame)
	if err != nil {
		return auth.MACKey{}, err
	}
	payload, err := wire.ReadFrame(c)
	if err != nil {
		return auth.MACKey{}, err
	}
	ack, err := wire.DecodeHello(payload)
	if err != nil {
		return auth.MACKey{}, err
	}
	if ack.Kind != wire.HelloKindAck || model.PID(ack.Sender) != dst {
		return auth.MACKey{}, errBadHandshake
	}
	if !auth.CheckHelloAckMAC(pair, n.cfg.ID, h.Nonce[:], ack.Nonce[:], ack.MAC[:]) {
		return auth.MACKey{}, errBadHandshake
	}
	if err := c.SetDeadline(time.Time{}); err != nil {
		return auth.MACKey{}, err
	}
	return auth.SessionKey(pair, n.cfg.ID, h.Nonce[:], ack.Nonce[:]), nil
}

// enqueue session-wraps one envelope into a pooled frame buffer and queues
// it. The envelope needs no seal: the session tag authenticates every
// inner byte (a caller-supplied Auth is carried but ignored on receive).
// Returns false when the connection has failed and should be forgotten. A
// full queue drops the frame instead of blocking — consensus tolerates
// message loss, and a peer that slow is effectively partitioned.
func (pc *peerConn) enqueue(env wire.Envelope) bool {
	inner := wire.AppendEnvelope(wire.GetFrame(), env)
	pc.mu.Lock()
	if pc.failed {
		pc.mu.Unlock()
		wire.PutFrame(inner)
		return false
	}
	if len(pc.pending) >= maxPendingFrames {
		pc.mu.Unlock()
		wire.PutFrame(inner)
		pc.node.m.framesDropped.Inc()
		return true
	}
	pc.sendSeq++
	seq := pc.sendSeq
	buf := wire.BeginFrame(wire.GetFrame())
	buf = append(buf, wire.SessionVersion)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = pc.macer.Append(buf, seq, inner)
	buf = append(buf, inner...)
	buf, err := wire.FinishFrame(buf)
	if err != nil {
		pc.mu.Unlock()
		wire.PutFrame(inner)
		wire.PutFrame(buf)
		return true // oversized envelope: drop the frame, keep the link
	}
	pc.pending = append(pc.pending, buf)
	pc.mu.Unlock()
	wire.PutFrame(inner)
	pc.node.m.framesOut.Inc()
	pc.node.m.bytesOut.Add(uint64(len(buf)))
	select {
	case pc.signal <- struct{}{}:
	default:
	}
	return true
}

// flushLoop drains the pending queue: each wakeup swaps the queue out
// under the lock and writes the whole batch with one vectored write, then
// recycles the frame buffers. It exits when the node stops or the
// connection errors.
func (pc *peerConn) flushLoop() {
	defer pc.node.wg.Done()
	for {
		select {
		case <-pc.signal:
		case <-pc.node.stop:
			pc.fail()
			return
		}
		for {
			pc.mu.Lock()
			batch := pc.pending
			pc.pending = nil
			pc.mu.Unlock()
			if len(batch) == 0 {
				break
			}
			pc.node.m.writeBatch.Observe(uint64(len(batch)))
			// WriteTo consumes its receiver (reslicing elements on short
			// writes), so it runs on a scratch copy and batch stays intact
			// for recycling.
			pc.vec = append(pc.vec[:0], batch...)
			_, err := pc.vec.WriteTo(pc.conn)
			for _, b := range batch {
				wire.PutFrame(b)
			}
			if err != nil {
				pc.fail()
				pc.node.forgetConn(pc)
				return
			}
		}
	}
}

// fail marks the link dead, closes it and recycles any queued frames.
func (pc *peerConn) fail() {
	pc.mu.Lock()
	pc.failed = true
	rest := pc.pending
	pc.pending = nil
	pc.mu.Unlock()
	_ = pc.conn.Close()
	for _, b := range rest {
		wire.PutFrame(b)
	}
}

// forgetConn unregisters a failed link so the next send redials.
func (n *Node) forgetConn(pc *peerConn) {
	n.mu.Lock()
	if n.conns[pc.dst] == pc {
		delete(n.conns, pc.dst)
	}
	n.mu.Unlock()
}
