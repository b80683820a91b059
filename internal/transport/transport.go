// Package transport runs round-based consensus over real TCP connections:
// the production counterpart of the in-memory simulator. It realizes the
// partially synchronous system model the way [7] (Dwork, Lynch, Stockmeyer)
// prescribes: closed rounds driven by growing timeouts, so that once the
// network stabilizes every round satisfies Pgood.
//
// A Node owns a listener, lazily-dialed peer connections and per-(instance,
// round) receive buffers. RunProc drives a model.Proc over one consensus
// instance: each round it broadcasts the process's messages, collects the
// round's vector until complete or until the round deadline, and applies
// the transition.
//
// Message integrity and sender authenticity are anchored in a per-connection
// session, and there is one way to get one: every connection between
// members — a peer link or a state-transfer, decision or payload fetch —
// opens with a HELLO exchange under the pairwise key (internal/auth), and
// every frame after it carries a cheap truncated session MAC plus a
// monotonic sequence. Inbound frames follow one fixed rule (readLoop), and
// outbound frames are coalesced into vectored writes per peer. See
// session.go for the protocol and buffer-ownership rules.
//
// A node supports pipelined SMR: several RunProc calls for distinct
// instances may run concurrently (receive buffers are per-instance and
// concurrent sends coalesce on the shared peer link), and ReleaseInstance
// reclaims the buffers of committed instances so the instance map stays
// bounded.
//
// Lifecycle follows the style guide: Listen spawns the accept and read
// goroutines; Close signals them and waits for them to exit.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/model"
	"genconsensus/internal/obs"
	"genconsensus/internal/wire"
)

// Config assembles a node.
type Config struct {
	// ID is this node's process identifier.
	ID model.PID
	// N is the cluster size.
	N int
	// Peers maps every process (including self) to its address. The self
	// entry may be empty when ListenAddr is given.
	Peers map[model.PID]string
	// ListenAddr overrides the self entry ("127.0.0.1:0" for tests).
	ListenAddr string
	// AuthSeed derives the pairwise HMAC keys; all nodes must agree.
	AuthSeed int64
	// BaseTimeout is the round-1 collection deadline (default 20ms); each
	// later round adds timeoutGrowth.
	BaseTimeout time.Duration
	// DecisionCache bounds the recent-decision ring served to catching-up
	// peers (default 256 instances). It should exceed the snapshot
	// interval so a recovering replica can always bridge the gap between
	// the newest checkpoint and the cluster head.
	DecisionCache int
	// DecisionCacheBytes bounds the ring by decided-value bytes (default
	// 4 MiB). The entry count alone admits a ring × max-batch-bytes worst
	// case, so the byte budget is what actually caps memory: a burst of
	// maximum-size batches evicts proportionally more (older) entries,
	// adapting the effective ring depth to the decided values' size.
	DecisionCacheBytes int
	// Metrics, when non-nil, receives the transport's instrument set
	// (frames/bytes per family, write coalescing, handshake outcomes,
	// decision-ring hits). Nil disables metrics at the cost of one
	// predicted branch per update site.
	Metrics *obs.Registry
	// Events, when non-nil, receives structured transport events
	// (handshake outcomes). Nil drops them.
	Events *obs.EventLog
}

// The transport's fixed limits: no deployment sets a second value, so these
// are constants rather than Config fields.
const (
	// timeoutGrowth is added to the collection deadline per round: the
	// growing timeouts of the partially synchronous model.
	timeoutGrowth = 20 * time.Millisecond
	// windowRounds bounds how far ahead of the current round buffered
	// messages may be; protects against hostile floods.
	windowRounds = 4096
	// windowInstances bounds how far ahead of the release watermark an
	// instance id may be and still get a receive buffer. Without it an
	// authenticated Byzantine member could allocate one instanceBuf per
	// fabricated future instance id and run the node out of memory.
	windowInstances = 4096
	// snapChunkBytes sizes state-transfer chunks (≤ wire.MaxSnapDataBytes).
	snapChunkBytes = 64 << 10
	// linkTimeout bounds a peer link's dial-time HELLO exchange and each
	// frame an accepted connection writes back (HELLO-ACK, fetch replies).
	// It is deliberately looser than BaseTimeout: failing it tears a
	// connection down rather than a round.
	linkTimeout = time.Second
	// maxPendingFrames bounds each peer's outbound coalescing queue. When a
	// peer stalls long enough to fill it, new frames are dropped instead of
	// blocking the pipeline — loss to a peer that slow is indistinguishable
	// from a partition.
	maxPendingFrames = 4096
	// payloadFetchInflight bounds concurrent digest pulls.
	payloadFetchInflight = 4
)

// Errors returned by the transport.
var (
	ErrClosed = errors.New("transport: node closed")
	// ErrInstanceReleased aborts a RunProc whose instance this node has
	// already released: the instance is finished business cluster-wide
	// (committed locally, or covered by an installed snapshot), so running
	// rounds for it only burns a pipeline slot.
	ErrInstanceReleased = errors.New("transport: instance already released")
)

// Node is one cluster member's transport endpoint.
type Node struct {
	cfg      Config
	ln       net.Listener
	pairKeys []auth.MACKey // pairwise keys, precomputed per peer id
	m        metrics       // resolved at Listen; zero value = disabled
	events   *obs.EventLog // nil drops events

	// snapChunkBytes starts at the package constant; tests lower it to
	// exercise multi-chunk reassembly.
	snapChunkBytes int

	mu        sync.Mutex
	conns     map[model.PID]*peerConn
	inbound   map[net.Conn]struct{}
	instances map[uint64]*instanceBuf
	closed    bool

	released    uint64           // high-watermark of released instance ids
	hasReleased bool             // distinguishes "nothing released" from watermark 0
	provider    SnapshotProvider // serves checkpoints to recovering peers; nil: none

	// The recent-decision ring served to catching-up peers.
	decisions     map[uint64]model.Value // recent decided values by instance
	decisionLog   []uint64               // ring order for eviction
	decisionBytes int                    // decided-value bytes held by the ring

	// observed is the highest instance id this node has seen evidence of —
	// a buffered peer frame, a release, a recorded decision. It feeds
	// read-index captures: a lagging replica that has heard of a newer
	// instance must not serve reads from before it. Frames only move it
	// within the release window (the same bound deliverLocal enforces), so
	// a fabricated far-future id cannot park reads forever. Written under
	// mu.
	observed atomic.Uint64

	stop      chan struct{}
	wg        sync.WaitGroup
	instAdded chan struct{} // pulsed when a new instance buffer appears

	store       *payloadStore // the value plane: proposal bodies by digest
	payloadWant chan struct{} // pulsed when a digest miss needs fetching
}

// observeLocked lifts the observed-instance high watermark. Callers hold
// n.mu, which serializes the writers; readers load it without.
func (n *Node) observeLocked(instance uint64) {
	if instance > n.observed.Load() {
		n.observed.Store(instance)
	}
}

type instanceBuf struct {
	rounds  map[model.Round]model.Received
	current model.Round
	signal  chan struct{}
}

func newInstanceBuf() *instanceBuf {
	return &instanceBuf{
		rounds:  make(map[model.Round]model.Received),
		current: 1,
		signal:  make(chan struct{}, 1),
	}
}

// Listen binds the node and starts its accept loop.
func Listen(cfg Config) (*Node, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("transport: bad cluster size %d", cfg.N)
	}
	if cfg.BaseTimeout == 0 {
		cfg.BaseTimeout = 20 * time.Millisecond
	}
	if cfg.DecisionCache <= 0 {
		cfg.DecisionCache = 256
	}
	if cfg.DecisionCacheBytes <= 0 {
		cfg.DecisionCacheBytes = 4 << 20
	}
	addr := cfg.ListenAddr
	if addr == "" {
		addr = cfg.Peers[cfg.ID]
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n := &Node{
		cfg:       cfg,
		ln:        ln,
		pairKeys:  make([]auth.MACKey, cfg.N),
		conns:     make(map[model.PID]*peerConn),
		inbound:   make(map[net.Conn]struct{}),
		instances: make(map[uint64]*instanceBuf),
		decisions: make(map[uint64]model.Value),
		stop:      make(chan struct{}),
		instAdded: make(chan struct{}, 1),
		m:         resolveMetrics(cfg.Metrics),
		events:    cfg.Events,

		snapChunkBytes: snapChunkBytes,

		store:       newPayloadStore(cfg.ID, cfg.N),
		payloadWant: make(chan struct{}, 1),
	}
	if cfg.Metrics != nil {
		cfg.Metrics.GaugeFunc(payloadMetricPrefix+"payload_store_bytes", func() int64 {
			bytes, _ := n.store.stats()
			return int64(bytes)
		})
		cfg.Metrics.GaugeFunc(payloadMetricPrefix+"payload_store_entries", func() int64 {
			_, entries := n.store.stats()
			return int64(entries)
		})
	}
	// Pairwise keys are fixed for the node's lifetime; deriving them per
	// frame (a SHA-256 each) was pure waste on the hot path.
	for p := range n.pairKeys {
		n.pairKeys[p] = auth.PairKey(cfg.AuthSeed, cfg.ID, model.PID(p))
	}
	n.wg.Add(2)
	go n.acceptLoop()
	go n.payloadFetchLoop()
	return n, nil
}

// Addr returns the bound listen address (useful with ":0").
func (n *Node) Addr() string { return n.ln.Addr().String() }

// ID returns the node's process id.
func (n *Node) ID() model.PID { return n.cfg.ID }

// Close stops the node: the listener and all connections are closed and all
// background goroutines are joined.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.stop)
	err := n.ln.Close()
	for _, c := range n.conns {
		_ = c.conn.Close()
	}
	for c := range n.inbound {
		_ = c.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
	return err
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.stop:
				return
			default:
			}
			// Transient accept errors: keep serving until closed.
			select {
			case <-n.stop:
				return
			case <-time.After(time.Millisecond):
				continue
			}
		}
		if !n.serve(conn) {
			return
		}
	}
}

// serve registers an accepted connection and starts its read loop. It
// reports false, closing conn, once the node is closed.
func (n *Node) serve(conn net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		_ = conn.Close()
		return false
	}
	n.inbound[conn] = struct{}{}
	n.wg.Add(1)
	go n.readLoop(conn)
	return true
}

// readLoop drains one accepted connection under the fixed rule of
// session.go: a HELLO first, then session frames and payload announces
// only. Any other frame, or one that fails its check, ends the loop and
// closes the connection. Frames are read into one reusable buffer per
// connection (wire.ReadFrameInto); handlers must not retain the payload
// past the call.
func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		_ = conn.Close()
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
	}()
	c := &inConn{conn: conn}
	// Peers coalesce frames into vectored writes, so one inbound TCP
	// segment usually carries many frames; reading through a buffer turns
	// the two read syscalls per frame into two per segment.
	br := bufio.NewReaderSize(conn, 64<<10)
	var buf []byte
	for {
		select {
		case <-n.stop:
			return
		default:
		}
		payload, nbuf, err := wire.ReadFrameInto(br, buf)
		if err != nil {
			return
		}
		buf = nbuf
		v := wire.FrameFamily(payload)
		n.m.framesIn[v].Inc()
		n.m.bytesIn[v].Add(uint64(len(payload)))
		switch {
		case c.macer == nil:
			err = n.handleHello(c, payload)
		case v == wire.SessionVersion:
			err = n.handleSessionFrame(c, payload)
		case v == wire.PayloadVersion:
			err = n.handleAnnounce(c, payload)
		default:
			err = errFrameFamily
		}
		if err != nil {
			return
		}
	}
}

// admitsLocked reports whether the node keeps per-instance state — a
// receive buffer, a pinned payload — for the instance: only above the
// release watermark and within windowInstances of it. Callers hold n.mu.
//
// Released instances are finished business: buffering for one would
// resurrect the map entry and leak it. Far-future instances are hostile or
// confused — without the upper bound, each fabricated id would allocate
// state the release watermark never reaches.
func (n *Node) admitsLocked(instance uint64) bool {
	if n.closed || n.releasedLocked(instance) {
		return false
	}
	return instance <= n.released+windowInstances
}

// instanceBufLocked returns the receive buffer of the instance, creating it
// when admitsLocked allows; nil otherwise. Callers hold n.mu.
func (n *Node) instanceBufLocked(instance uint64) (buf *instanceBuf, created bool) {
	if !n.admitsLocked(instance) {
		return nil, false
	}
	n.observeLocked(instance)
	buf, ok := n.instances[instance]
	if !ok {
		buf = newInstanceBuf()
		n.instances[instance] = buf
	}
	return buf, !ok
}

// deliverLocal buffers a verified envelope.
func (n *Node) deliverLocal(env wire.Envelope) {
	n.mu.Lock()
	defer n.mu.Unlock()
	buf, created := n.instanceBufLocked(env.Instance)
	if buf == nil {
		return
	}
	if created {
		// Pulse dispatchers waiting to join instances started by peers —
		// polling HasInstance added milliseconds of join latency per
		// instance, which dominated pipelined throughput.
		select {
		case n.instAdded <- struct{}{}:
		default:
		}
	}
	// Closed rounds: late messages are useless; far-future rounds are
	// hostile or confused.
	if env.Round < buf.current || env.Round > buf.current+windowRounds {
		return
	}
	mu, ok := buf.rounds[env.Round]
	if !ok {
		mu = model.Received{}
		buf.rounds[env.Round] = mu
	}
	if _, dup := mu[env.Sender]; dup {
		return // first message per (round, sender) wins
	}
	mu[env.Sender] = env.Msg
	select {
	case buf.signal <- struct{}{}:
	default:
	}
}

// envelopeDrop, when non-nil, suppresses the round envelopes it reports
// true for: a lossy link for exactly the voting plane. A test hook, set
// only through export_test.go before any node listens.
var envelopeDrop func(from, to model.PID, instance uint64, r model.Round) bool

// send transmits one envelope to dst over the peer's session link, dialing
// and handshaking lazily. The envelope needs no per-destination seal — the
// connection's session MAC authenticates it. Failures are swallowed: an
// unreachable peer is indistinguishable from a slow one in a partially
// synchronous system.
func (n *Node) send(dst model.PID, env wire.Envelope) {
	if dst == n.cfg.ID {
		n.deliverLocal(env)
		return
	}
	if drop := envelopeDrop; drop != nil && drop(n.cfg.ID, dst, env.Instance, env.Round) {
		return
	}
	pc := n.connTo(dst)
	if pc == nil {
		return
	}
	if !pc.enqueue(wire.AppendEnvelope(wire.GetFrame(), env), true) {
		n.forgetConn(pc)
	}
}

// collect waits for round r of the instance to be complete (n messages) or
// for the deadline, and returns the vector collected so far. The round is
// then closed: later arrivals are discarded. It creates the instance's
// buffer if no frame has yet, so the only waits are the buffer's signal,
// the round timer and stop; a released instance returns empty at once
// (RunProc aborts it on its next round), and one beyond the window — which
// no frame could be buffered for either — just waits the round out.
func (n *Node) collect(instance uint64, r model.Round, deadline time.Time) model.Received {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		n.mu.Lock()
		buf, _ := n.instanceBufLocked(instance)
		var have int
		var signal chan struct{}
		if buf != nil {
			have = len(buf.rounds[r])
			signal = buf.signal // nil otherwise: blocks forever in the select
		}
		released := n.releasedLocked(instance)
		n.mu.Unlock()
		if have >= n.cfg.N || released {
			break
		}
		select {
		case <-signal:
			continue
		case <-timer.C:
		case <-n.stop:
		}
		break
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	buf := n.instances[instance]
	if buf == nil {
		return model.Received{}
	}
	// No copy: with current past r, deliverLocal drops every later frame
	// for the round, so nothing else holds its vector.
	mu := buf.rounds[r]
	delete(buf.rounds, r)
	buf.current = r + 1
	if mu == nil {
		return model.Received{}
	}
	return mu
}

// RunProc drives proc over the given instance for the instance's whole
// life: rounds with ever longer deadlines until the process decides, the
// instance is released (ErrInstanceReleased: a catch-up committed it) or
// the node closes (ErrClosed). As in the paper's model there is no round
// budget: liveness comes from an eventually good round.
func (n *Node) RunProc(instance uint64, proc model.Proc) (model.Value, error) {
	for r := model.Round(1); ; r++ {
		select {
		case <-n.stop:
			return model.NoValue, ErrClosed
		default:
		}
		if n.instanceReleased(instance) {
			return model.NoValue, ErrInstanceReleased
		}
		out := proc.Send(r)
		for dst, msg := range out {
			// No per-destination seal: the session link MACs the frame.
			n.send(dst, wire.Envelope{Instance: instance, Round: r, Sender: n.cfg.ID, Msg: msg})
		}
		deadline := time.Now().Add(n.cfg.BaseTimeout + time.Duration(r)*timeoutGrowth)
		mu := n.collect(instance, r, deadline)
		proc.Transition(r, mu)
		if v, ok := proc.Decided(); ok {
			return v, nil
		}
	}
}

// instanceReleased reports whether the instance is at or below the release
// watermark.
func (n *Node) instanceReleased(instance uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.releasedLocked(instance)
}

func (n *Node) releasedLocked(instance uint64) bool {
	return n.hasReleased && instance <= n.released
}

// HasInstance reports whether any message for the instance has been
// buffered — used by SMR dispatchers to join instances started by peers.
// Released instances report false.
func (n *Node) HasInstance(instance uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.instances[instance]
	return ok
}

// ReleaseInstance frees the receive buffers of the given instance and every
// earlier one — and the proposal bodies the payload plane pinned for them —
// and refuses future messages for them; without it the instance map grows
// one entry per consensus instance forever. SMR dispatchers call it after
// committing an instance (and after RecordDecision, so the decided body is
// in the ring before the store lets go); since commits are strictly in
// instance order, the high-watermark semantics match exactly and bound
// both by the pipeline depth.
func (n *Node) ReleaseInstance(instance uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.hasReleased || instance > n.released {
		n.released = instance
	}
	n.hasReleased = true
	n.observeLocked(instance)
	for id := range n.instances {
		if id <= n.released {
			delete(n.instances, id)
		}
	}
	n.store.release(n.released)
}

// InstanceNotify returns a channel pulsed whenever a message for a
// previously unseen instance is buffered. SMR dispatchers select on it to
// join peer-started instances immediately instead of polling HasInstance.
// The channel has capacity 1 and is never closed; a pulse may cover
// several new instances, so consumers re-scan after each receive.
func (n *Node) InstanceNotify() <-chan struct{} { return n.instAdded }

// InstanceCount reports how many instances currently hold receive buffers
// (monitoring and leak tests).
func (n *Node) InstanceCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.instances)
}

// InstanceHigh reports the highest instance id this node has seen any
// evidence of: a buffered peer frame, a released (committed) instance, or a
// decision recorded in the catch-up ring. It is the transport half of a
// read-index capture — under concurrent writes a lagging replica hears peer
// frames for head instances and must wait for them before serving a READ.
// Zero means no instance has been observed. It takes no lock.
func (n *Node) InstanceHigh() uint64 { return n.observed.Load() }
