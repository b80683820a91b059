package transport

// Connection sessions and the coalescing write path: the hot half of the
// transport.
//
// # Session lifecycle
//
// Every connection between members authenticates the same way, once, when
// it opens: the dialer sends a HELLO binding a fresh nonce under the
// pairwise key, the acceptor replies with a HELLO-ACK covering both
// nonces, and both ends derive the connection's session key
// (auth.SessionKey). From then on every frame that needs authenticating is
// a session frame — a truncated MAC over (seq, inner) plus a strictly
// monotonic sequence. Peer links and fetch exchanges differ only in what
// travels inside: consensus envelopes on a peer link, one request and its
// replies on a fetch connection (statetransfer.go, payload.go).
//
// The acceptor's read loop follows a fixed rule. Before the HELLO it takes
// a HELLO and nothing else: any other first frame, a malformed or forged
// HELLO included, closes the connection, so an unauthenticated dialer
// costs this node at most one MAC verification per connection. After it,
// it takes session frames and content-addressed payload announces; any
// other frame, and any frame that fails its check — bad tag, replayed
// sequence, foreign sender, malformed inner payload — closes the
// connection too, because a correct peer never produces one.
//
// Sequences are direction-bound: the frames an acceptor writes back carry
// replyBit, the frames it accepts must not. A request reflected back at its
// sender therefore never verifies as a reply, nor a reply as a request.
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

// replyBit marks the sequence numbers of session frames an acceptor writes
// back on a connection. A dialer's sequences count up from 1 and never
// reach it.
const replyBit = uint64(1) << 63

// Session protocol violations. Any of them drops the connection: a
// correctly implemented peer never produces one, so they signal an attack,
// corruption or a broken build on the other end.
var (
	errBadHandshake  = errors.New("transport: handshake failed")
	errFrameFamily   = errors.New("transport: frame family not accepted on this connection")
	errBadSessionTag = errors.New("transport: session tag verification failed")
	errReflected     = errors.New("transport: session frame sequenced for the other direction")
	errSessionSender = errors.New("transport: session envelope sender does not match handshaken peer")
	errMalformed     = errors.New("transport: malformed frame")
)

// checkHelloMAC verifies a HELLO: the one MAC an unauthenticated dialer can
// make an acceptor compute. It is a variable so tests can count those.
var checkHelloMAC = auth.CheckHelloMAC

// inConn is the receive state of one accepted connection, owned by the
// connection's read loop: the handlers run on that goroutine and use the
// fields without locking.
type inConn struct {
	conn net.Conn
	// peer is the handshaken dialer; valid once macer is set.
	peer model.PID
	// macer holds the session key's HMAC midstates. It is nil until the
	// HELLO exchange completes.
	macer *auth.SessionMACer
	// recvSeq is the highest session sequence accepted so far; sendSeq the
	// last one written back (without replyBit).
	recvSeq uint64
	sendSeq uint64
}

// write sends one frame back to the dialer under a deadline, so a dialer
// that stops reading frees the read loop — and whatever reply it was
// writing — within linkTimeout instead of pinning them until the node
// stops.
func (c *inConn) write(frame []byte) error {
	if err := c.conn.SetWriteDeadline(time.Now().Add(linkTimeout)); err != nil {
		return err
	}
	_, err := c.conn.Write(frame)
	return err
}

// reply writes inner back to the dialer as a session frame in the reply
// direction.
func (c *inConn) reply(inner []byte) error {
	c.sendSeq++
	frame, err := sealSession(wire.GetFrame(), c.macer, replyBit|c.sendSeq, inner)
	if err == nil {
		err = c.write(frame)
	}
	wire.PutFrame(frame)
	return err
}

// sealSession appends inner to dst as one complete session frame (length
// prefix included) under macer and seq.
func sealSession(dst []byte, macer *auth.SessionMACer, seq uint64, inner []byte) ([]byte, error) {
	dst = append(wire.BeginFrame(dst), wire.SessionVersion)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = macer.Append(dst, seq, inner)
	dst = append(dst, inner...)
	_, err := wire.FinishFrame(dst)
	return dst, err
}

// handleHello takes a connection's first frame, which must be a valid
// HELLO INIT. Anything else is a rejected handshake: counted, logged, and
// the connection closes.
func (n *Node) handleHello(c *inConn, payload []byte) error {
	if err := n.acceptHello(c, payload); err != nil {
		n.m.handshakeReject.Inc()
		n.events.Emit("peer.handshake",
			"dir", "accept", "ok", false,
			"remote", c.conn.RemoteAddr().String(), "err", err)
		return err
	}
	n.m.handshakeAccept.Inc()
	n.events.Emit("peer.handshake", "dir", "accept", "ok", true, "peer", int(c.peer))
	return nil
}

// acceptHello runs the acceptor side of the handshake: verify the HELLO
// under the pairwise key, answer with a HELLO-ACK, derive the session key.
func (n *Node) acceptHello(c *inConn, payload []byte) error {
	h, err := wire.DecodeHello(payload) // any other family fails here, before crypto
	if err != nil {
		return err
	}
	peer := model.PID(h.Sender)
	if h.Kind != wire.HelloKindInit || int(peer) < 0 || int(peer) >= n.cfg.N || peer == n.cfg.ID {
		return errBadHandshake
	}
	pair := n.pairKeys[peer]
	if !checkHelloMAC(pair, peer, h.Nonce[:], h.MAC[:]) {
		return errBadHandshake
	}
	ack := wire.Hello{Kind: wire.HelloKindAck, Sender: uint32(n.cfg.ID)}
	if _, err := rand.Read(ack.Nonce[:]); err != nil {
		return err
	}
	copy(ack.MAC[:], auth.HelloAckMAC(pair, peer, h.Nonce[:], ack.Nonce[:]))
	frame, err := wire.FinishFrame(wire.AppendHello(wire.BeginFrame(wire.GetFrame()), ack))
	if err == nil {
		err = c.write(frame)
	}
	wire.PutFrame(frame)
	if err != nil {
		return err
	}
	c.peer = peer
	c.macer = auth.NewSessionMACer(auth.SessionKey(pair, peer, h.Nonce[:], ack.Nonce[:]))
	return nil
}

// handleSessionFrame verifies one session frame and dispatches its inner
// payload: direction and monotonic sequence first (both cheap to reject),
// then the truncated session tag over every inner byte, then the inner
// family — a consensus envelope, whose Sender must be the handshaken peer
// or a Byzantine member could inject messages under another's id, or a
// state-transfer or payload-fetch request, answered on this connection.
func (n *Node) handleSessionFrame(c *inConn, payload []byte) error {
	seq, tag, inner, err := wire.SplitSessionFrame(payload)
	if err != nil {
		return err
	}
	if seq&replyBit != 0 {
		return errReflected
	}
	if seq <= c.recvSeq {
		return wire.ErrSessionReuse
	}
	// Pre-MAC drop: frames for instances the local commit already released
	// (mostly a slower peer's own protocol rounds arriving late) cause no
	// state change, so they need no authentication — discarding them here
	// skips the session MAC and the decode. recvSeq does not advance: only
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
	switch wire.FrameFamily(inner) {
	case wire.Version:
		env, err := wire.Decode(inner)
		if err != nil {
			return err
		}
		if env.Sender != c.peer {
			return errSessionSender
		}
		n.deliverLocal(env)
		return nil
	case wire.SnapVersion:
		return n.serveSnap(c, inner)
	case wire.PayloadVersion:
		return n.servePayloadFetch(c, inner)
	}
	return errFrameFamily
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
	key, err := n.dialHandshake(c, dst, time.Now().Add(linkTimeout))
	if err == nil {
		err = c.SetDeadline(time.Time{})
	}
	if err != nil {
		_ = c.Close()
		n.m.dialFail.Inc()
		n.events.Emit("peer.handshake", "dir", "dial", "ok", false, "peer", int(dst), "err", err)
		return nil
	}
	n.m.dialOK.Inc()
	n.events.Emit("peer.handshake", "dir", "dial", "ok", true, "peer", int(dst))
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
// connection and returns the derived session key. It sets the connection's
// deadline and leaves it set: a peer link clears it, a fetch keeps it for
// the rest of the exchange.
func (n *Node) dialHandshake(c net.Conn, dst model.PID, deadline time.Time) (auth.MACKey, error) {
	if err := c.SetDeadline(deadline); err != nil {
		return auth.MACKey{}, err
	}
	pair := n.pairKeys[dst]
	h := wire.Hello{Kind: wire.HelloKindInit, Sender: uint32(n.cfg.ID)}
	if _, err := rand.Read(h.Nonce[:]); err != nil {
		return auth.MACKey{}, err
	}
	copy(h.MAC[:], auth.HelloMAC(pair, n.cfg.ID, h.Nonce[:]))
	frame, err := wire.FinishFrame(wire.AppendHello(wire.BeginFrame(wire.GetFrame()), h))
	if err == nil {
		_, err = c.Write(frame)
	}
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
	if ack.Kind != wire.HelloKindAck || model.PID(ack.Sender) != dst ||
		!auth.CheckHelloAckMAC(pair, n.cfg.ID, h.Nonce[:], ack.Nonce[:], ack.MAC[:]) {
		return auth.MACKey{}, errBadHandshake
	}
	return auth.SessionKey(pair, n.cfg.ID, h.Nonce[:], ack.Nonce[:]), nil
}

// enqueue queues one frame on the peer link, taking ownership of the
// pooled buffer: with seal, an encoded envelope it session-wraps under the
// next sequence number; without, a completed frame that authenticates by
// content, as payload announces do. Returns false when the connection has
// failed and should be forgotten. A full queue drops the frame instead of
// blocking — consensus tolerates message loss, and a peer that slow is
// effectively partitioned.
func (pc *peerConn) enqueue(frame []byte, seal bool) bool {
	pc.mu.Lock()
	if failed := pc.failed; failed || len(pc.pending) >= maxPendingFrames {
		pc.mu.Unlock()
		wire.PutFrame(frame)
		if !failed {
			pc.node.m.framesDropped.Inc()
		}
		return !failed
	}
	if seal {
		pc.sendSeq++
		inner := frame
		var err error
		frame, err = sealSession(wire.GetFrame(), pc.macer, pc.sendSeq, inner)
		wire.PutFrame(inner)
		if err != nil {
			pc.mu.Unlock()
			wire.PutFrame(frame)
			return true // oversized envelope: drop the frame, keep the link
		}
	}
	pc.pending = append(pc.pending, frame)
	pc.mu.Unlock()
	pc.node.m.framesOut.Inc()
	pc.node.m.bytesOut.Add(uint64(len(frame)))
	select {
	case pc.signal <- struct{}{}:
	default:
	}
	return true
}

// flushLoop drains the pending queue: each wakeup swaps the queue out
// under the lock and writes the whole batch with one vectored write, then
// recycles the frame buffers and hands the cleared slice back as the next
// queue. It exits when the node stops or the connection errors.
func (pc *peerConn) flushLoop() {
	defer pc.node.wg.Done()
	var spare [][]byte
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
			pc.pending = spare
			pc.mu.Unlock()
			spare = batch[:0] // the next queue, once drained
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
			clear(batch)
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
