package transport

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"genconsensus/internal/model"
	"genconsensus/internal/wire"
)

// The payload plane — the value plane of the shipped node: every proposed
// batch is announced once, by content address, and the voting plane carries
// only its 32-byte digest. A proposer announces its encoded batch (PAYLOAD
// frames on the established session links, to every peer) naming the
// instance it proposes it for; receivers resolve digests against the local
// store and pull misses by digest over dedicated, handshaken connections
// (FETCH/FETCH-REPLY inside session frames, the state-transfer shape).
//
// Each instance has one designated proposer, its Owner, and the owner's
// proposal is its round-1 vote: AwaitOwner lets the other members wait for
// that vote, whose digest they resolve against the store like any other.
// The store itself only holds bytes by digest; it knows no owners.
//
// Lifetime: a payload is pinned while an unreleased instance can still
// reference it and dropped when ReleaseInstance passes that instance — by
// then the decided value is in the decision ring (RecordDecision precedes
// ReleaseInstance), which is also what a fetch falls back to when the
// store has already let go. Announces naming a released or far-future
// instance are refused by the rule that refuses such envelopes
// (admitsLocked).
//
// Everything a hostile peer can send here is bounded: each sender may pin
// at most payloadSenderCap bytes and past it evicts its own
// oldest pins, never another member's; announce and reply bodies are
// verified against their digest before a byte is kept (a forged announce
// closes the link); fetch requests are served only inside a session; and
// unresolvable digests are retried a fixed number of times and then
// banned, so they can neither pin memory nor stall the fetch worker.

// Payload-plane limits.
const (
	// payloadSenderCap bounds the bytes one peer can pin in the store: 16
	// maximum-size payloads, several times what an honest proposer has in
	// flight, so only a flood ever reaches it.
	payloadSenderCap = 1 << 20
	// payloadPinOverhead is charged per pin on top of the body, so a flood
	// of tiny bodies cannot buy an unbounded number of entries.
	payloadPinOverhead = 128
	// payloadWantTries is how many fetch rounds (each trying several
	// peers) a missing digest gets before it is written off as hostile.
	payloadWantTries = 2
	// payloadFetchPeers bounds the peers tried per fetch round.
	payloadFetchPeers = 3
	// payloadPerPeerInflight caps concurrent fetches against one peer, so
	// a burst of misses cannot dogpile a single member.
	payloadPerPeerInflight = 2
	// payloadMaxWants bounds the missing-digest queue; beyond it new
	// misses are dropped (the chooser re-registers on real demand).
	payloadMaxWants = 512
	// payloadMaxStrikes bounds the abandoned-digest ban list.
	payloadMaxStrikes = 4096
)

// Test hooks, set only through export_test.go before any node listens.
var (
	// payloadSenderCapOverride, when positive, replaces payloadSenderCap
	// (clamped to one maximum-size payload, below which a legal announce
	// would evict itself).
	payloadSenderCapOverride int
	// payloadAnnounceDrop, when non-nil, suppresses the announces it
	// reports true for: a lossy link for exactly the payload plane.
	payloadAnnounceDrop func(from, to model.PID) bool
)

// Errors returned by the payload plane.
var (
	ErrPayloadNotCached = errors.New("transport: payload not cached at peer")
	ErrPayloadForged    = errors.New("transport: payload digest mismatch")
)

// payloadEntry is one stored body. It is held once, as an immutable value
// the chooser, the commit path and the WAL all share, and lives until its
// last pin goes.
type payloadEntry struct {
	val  model.Value
	pins int
}

// payloadPin is one sender's claim on a body for one instance.
type payloadPin struct {
	sum      [sha256.Size]byte
	instance uint64 // the pin goes when this instance is released
	size     int    // bytes charged to the sender
}

// payloadAccount is what one sender has pinned, oldest first.
type payloadAccount struct {
	fifo  []payloadPin
	bytes int
}

// payloadStore is the sha256-keyed store behind the payload plane, plus
// the want/strike bookkeeping of the fetch path.
type payloadStore struct {
	mu        sync.Mutex
	self      model.PID
	senderCap int
	entries   map[[sha256.Size]byte]*payloadEntry
	accounts  []payloadAccount // by sender
	bytes     int              // stored body bytes (gauge source)

	// waiting holds one channel per digest somebody is blocked on; put
	// closes it.
	waiting map[[sha256.Size]byte]chan struct{}

	// wants are digests the voting plane missed and the fetch worker
	// should pull, with the instance that needs them; inflight marks
	// those a fetch round is working on.
	wants    map[[sha256.Size]byte]uint64
	inflight map[[sha256.Size]byte]bool
	tries    map[[sha256.Size]byte]int
	// strikes bans digests that exhausted their fetch budget: almost
	// certainly Byzantine references to bytes nobody ever published.
	strikes map[[sha256.Size]byte]bool
}

func newPayloadStore(self model.PID, members int) *payloadStore {
	senderCap := payloadSenderCap
	if payloadSenderCapOverride > 0 {
		senderCap = max(payloadSenderCapOverride, wire.MaxPayloadDataBytes+payloadPinOverhead)
	}
	return &payloadStore{
		self:      self,
		senderCap: senderCap,
		entries:   make(map[[sha256.Size]byte]*payloadEntry),
		accounts:  make([]payloadAccount, members),
		waiting:   make(map[[sha256.Size]byte]chan struct{}),
		wants:     make(map[[sha256.Size]byte]uint64),
		inflight:  make(map[[sha256.Size]byte]bool),
		tries:     make(map[[sha256.Size]byte]int),
		strikes:   make(map[[sha256.Size]byte]bool),
	}
}

// put pins val (digest-verified by the caller) for the instance —
// which the caller has checked is unreleased and inside the window
// (Node.pinPayload) — on sender's account, and reports how many of the
// sender's older pins its cap evicted. This node's own announces are
// exempt from the cap: they are bounded by its own pipeline, and keeping
// them is what lets any peer fetch an undecided proposal from its
// proposer.
func (s *payloadStore) put(instance uint64, sender model.PID, sum [sha256.Size]byte, val model.Value) (evicted int) {
	if int(sender) >= len(s.accounts) {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[sum]
	if e == nil {
		e = &payloadEntry{val: val}
		s.entries[sum] = e
		s.bytes += len(val)
		delete(s.wants, sum)   // arrived by push while we were about to pull
		delete(s.strikes, sum) // somebody did publish it after all
		if ch, ok := s.waiting[sum]; ok {
			close(ch)
			delete(s.waiting, sum)
		}
	}
	e.pins++
	acct := &s.accounts[sender]
	size := len(e.val) + payloadPinOverhead
	acct.fifo = append(acct.fifo, payloadPin{sum: sum, instance: instance, size: size})
	acct.bytes += size
	if sender != s.self {
		for acct.bytes > s.senderCap && evicted < len(acct.fifo)-1 {
			acct.bytes -= acct.fifo[evicted].size
			s.unpin(acct.fifo[evicted].sum)
			evicted++
		}
		if evicted > 0 {
			acct.fifo = acct.fifo[:copy(acct.fifo, acct.fifo[evicted:])]
		}
	}
	return evicted
}

// unpin drops one claim on sum and the entry with its last. Callers hold
// s.mu.
func (s *payloadStore) unpin(sum [sha256.Size]byte) {
	e := s.entries[sum]
	if e.pins--; e.pins > 0 {
		return
	}
	delete(s.entries, sum)
	s.bytes -= len(e.val)
}

// release drops every pin at or below instance upTo.
func (s *payloadStore) release(upTo uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.accounts {
		acct := &s.accounts[i]
		kept := acct.fifo[:0]
		for _, pin := range acct.fifo {
			if pin.instance > upTo {
				kept = append(kept, pin)
				continue
			}
			acct.bytes -= pin.size
			s.unpin(pin.sum)
		}
		acct.fifo = kept
	}
}

// get returns the stored payload for sum.
func (s *payloadStore) get(sum [sha256.Size]byte) (model.Value, bool) {
	s.mu.Lock()
	e := s.entries[sum]
	s.mu.Unlock()
	if e == nil {
		return model.NoValue, false
	}
	return e.val, true
}

// arrival returns sum's value when it is stored, and otherwise a channel
// that put closes when it arrives. A waiter that gives up hands the channel
// back to cancelArrival.
func (s *payloadStore) arrival(sum [sha256.Size]byte) (model.Value, chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[sum]; e != nil {
		return e.val, nil
	}
	ch := s.waiting[sum]
	if ch == nil {
		ch = make(chan struct{})
		s.waiting[sum] = ch
	}
	return model.NoValue, ch
}

// cancelArrival retires a channel arrival handed out, waking any other
// waiter sharing it (they re-check and wait again), so a digest that never
// arrives leaves nothing behind.
func (s *payloadStore) cancelArrival(sum [sha256.Size]byte, ch chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.waiting[sum] == ch {
		delete(s.waiting, sum)
		close(ch)
	}
}

// want registers a miss for the fetch worker — sum, needed by the
// instance — unless the digest is banned, already wanted, or the want
// queue is full. Reports whether the worker should be woken.
func (s *payloadStore) want(instance uint64, sum [sha256.Size]byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.strikes[sum] {
		return false
	}
	if _, ok := s.wants[sum]; ok {
		return false
	}
	if len(s.wants) >= payloadMaxWants {
		return false
	}
	s.wants[sum] = instance
	return true
}

// nextWant hands the fetch worker one want not already in flight.
func (s *payloadStore) nextWant() (uint64, [sha256.Size]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for sum, instance := range s.wants {
		if s.inflight[sum] {
			continue
		}
		s.inflight[sum] = true
		return instance, sum, true
	}
	return 0, [sha256.Size]byte{}, false
}

// fetchDone records a fetch round's outcome for sum. A failed round
// beyond the try budget bans the digest (strike accounting); reports
// whether the digest was abandoned.
func (s *payloadStore) fetchDone(sum [sha256.Size]byte, ok bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.inflight, sum)
	if ok {
		delete(s.wants, sum)
		delete(s.tries, sum)
		return false
	}
	s.tries[sum]++
	if s.tries[sum] < payloadWantTries {
		return false
	}
	delete(s.wants, sum)
	delete(s.tries, sum)
	if len(s.strikes) >= payloadMaxStrikes {
		// Crude but bounded: forget old bans rather than grow without
		// limit. A re-offending digest just earns its strikes again.
		s.strikes = make(map[[sha256.Size]byte]bool)
	}
	s.strikes[sum] = true
	return true
}

func (s *payloadStore) stats() (bytes int, entries int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes, len(s.entries)
}

// PayloadStoreStats reports the store's current footprint.
func (n *Node) PayloadStoreStats() (bytes, entries int) {
	return n.store.stats()
}

// pinPayload admits val to the store for the instance on sender's
// account, under the rule receive buffers obey (admitsLocked): released
// and far-future instances are refused. It holds n.mu across the put, as
// ReleaseInstance does across the release, so a pin can never slip in
// behind the release that should have dropped it.
func (n *Node) pinPayload(instance uint64, sender model.PID, sum [sha256.Size]byte, val model.Value) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.admitsLocked(instance) {
		return false
	}
	if evicted := n.store.put(instance, sender, sum, val); evicted > 0 {
		n.m.payloadEvictions.Add(uint64(evicted))
	}
	return true
}

// Owner is the designated proposer of an instance in an n-member cluster:
// member instance mod n. Its round-1 vote is the one AwaitOwner waits for.
func Owner(instance uint64, n int) model.PID {
	return model.PID(instance % uint64(n))
}

// AwaitOwner waits up to wait for the instance owner's proposal: its
// round-1 vote, as it arrived — the first one, since a round keeps the
// first message per sender. It reports false when none arrives in time,
// the instance is released or the node closes.
func (n *Node) AwaitOwner(instance uint64, wait time.Duration) (model.Value, bool) {
	owner := Owner(instance, n.cfg.N)
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		n.mu.Lock()
		buf, _ := n.instanceBufLocked(instance)
		if buf == nil {
			n.mu.Unlock()
			return model.NoValue, false
		}
		if m, ok := buf.rounds[1][owner]; ok && m.Vote != model.NoValue {
			n.mu.Unlock()
			return m.Vote, true
		}
		signal := buf.signal
		n.mu.Unlock()
		select {
		case <-signal:
		case <-timer.C:
			return model.NoValue, false
		case <-n.stop:
			return model.NoValue, false
		}
	}
}

// AnnouncePayload publishes one content-addressed proposal body for the
// instance it is proposed in: it lands in the local store (so this
// node can serve fetches and resolve its own vote) and is pushed once to
// every configured peer. val is shared, not copied, apart from the one copy
// into each peer's frame.
func (n *Node) AnnouncePayload(instance uint64, sum [sha256.Size]byte, val model.Value) {
	if len(val) == 0 || len(val) > wire.MaxPayloadDataBytes {
		return
	}
	if !n.pinPayload(instance, n.cfg.ID, sum, val) {
		return // released under the caller: nobody will vote on it
	}
	header := wire.Payload{
		Kind:     wire.PayloadAnnounce,
		Sender:   n.cfg.ID,
		Instance: instance,
		Digest:   sum,
	}
	for _, p := range n.otherPeers() {
		if drop := payloadAnnounceDrop; drop != nil && drop(n.cfg.ID, p) {
			continue
		}
		pc := n.connTo(p)
		if pc == nil {
			continue
		}
		frame := wire.AppendPayloadValue(wire.BeginFrame(wire.GetFrame()), header, val)
		frame, err := wire.FinishFrame(frame)
		if err != nil {
			wire.PutFrame(frame)
			continue
		}
		if !pc.enqueue(frame, false) {
			n.forgetConn(pc)
		}
	}
}

// otherPeers lists every configured peer but this node.
func (n *Node) otherPeers() []model.PID {
	n.mu.Lock()
	defer n.mu.Unlock()
	peers := make([]model.PID, 0, len(n.cfg.Peers))
	for p, addr := range n.cfg.Peers {
		if p != n.cfg.ID && addr != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// ResolvePayload answers the voting plane's resolve-before-weigh lookup
// for a digest voted in the instance: the stored body on a hit —
// the store's own value, shared, never copied; on a miss it registers the
// digest with the asynchronous fetch worker and reports failure now (an
// unresolved digest weighs zero this round and resolves by push or pull
// before a later one). Never blocks.
func (n *Node) ResolvePayload(instance uint64, sum [sha256.Size]byte) (model.Value, bool) {
	if val, ok := n.store.get(sum); ok {
		n.m.payloadHits.Inc()
		if saved := len(val) - (len(sum) + 8); saved > 0 {
			n.m.payloadBytesSaved.Add(uint64(saved))
		}
		return val, true
	}
	n.m.payloadMisses.Inc()
	if n.store.want(instance, sum) {
		select {
		case n.payloadWant <- struct{}{}:
		default:
		}
	}
	return model.NoValue, false
}

// AwaitPayload is ResolvePayload for a caller that owns a decided digest
// and can do nothing until it resolves: on a miss it blocks until the body
// arrives (push or pull), wait passes or the node closes. A false return
// is a cue to re-check whether the instance still needs resolving and call
// again, which re-arms the fetch.
func (n *Node) AwaitPayload(instance uint64, sum [sha256.Size]byte, wait time.Duration) (model.Value, bool) {
	if val, ok := n.ResolvePayload(instance, sum); ok {
		return val, true
	}
	val, arrived := n.store.arrival(sum)
	if arrived == nil {
		return val, true
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-arrived:
		return n.store.get(sum)
	case <-timer.C:
	case <-n.stop:
	}
	n.store.cancelArrival(sum, arrived)
	return model.NoValue, false
}

// payloadFetchLoop is the pull half of the dissemination protocol: it
// drains the want queue, fetching each missing digest from a few peers in
// random order with a small global concurrency budget and a per-peer
// inflight cap.
func (n *Node) payloadFetchLoop() {
	defer n.wg.Done()
	sem := make(chan struct{}, payloadFetchInflight)
	var inflightMu sync.Mutex
	perPeer := make(map[model.PID]int)
	for {
		select {
		case <-n.stop:
			return
		case <-n.payloadWant:
		}
		for {
			instance, sum, ok := n.store.nextWant()
			if !ok {
				break
			}
			select {
			case sem <- struct{}{}:
			case <-n.stop:
				return
			}
			n.wg.Add(1)
			go func(instance uint64, sum [sha256.Size]byte) {
				defer n.wg.Done()
				defer func() { <-sem }()
				fetched := false
				for _, p := range n.fetchOrder() {
					inflightMu.Lock()
					busy := perPeer[p] >= payloadPerPeerInflight
					if !busy {
						perPeer[p]++
					}
					inflightMu.Unlock()
					if busy {
						continue
					}
					val, err := n.fetchPayload(p, instance, sum, n.cfg.BaseTimeout*4)
					inflightMu.Lock()
					perPeer[p]--
					inflightMu.Unlock()
					if err == nil {
						// Pinned on the serving peer's account: a member
						// feeding us bodies for its own junk votes fills
						// its own cap. A refusal means the instance was
						// released meanwhile and nobody needs the body.
						n.pinPayload(instance, p, sum, val)
						fetched = true
						break
					}
				}
				if !fetched {
					n.m.payloadFetchFails.Inc()
				}
				if n.store.fetchDone(sum, fetched) {
					n.m.payloadAbandoned.Inc()
					n.events.Emit("payload.abandoned", "digest", fmt.Sprintf("%x", sum[:8]))
				}
				// Self-pump: a failed round leaves the want queued for its
				// next try; re-wake the drain loop so retries don't have to
				// wait for an unrelated miss. The try budget guarantees this
				// terminates.
				select {
				case n.payloadWant <- struct{}{}:
				default:
				}
			}(instance, sum)
		}
	}
}

// fetchOrder returns up to payloadFetchPeers live-configured peers in
// random order.
func (n *Node) fetchOrder() []model.PID {
	peers := n.otherPeers()
	rand.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	if len(peers) > payloadFetchPeers {
		peers = peers[:payloadFetchPeers]
	}
	return peers
}

// fetchPayload pulls one payload by digest from a peer (the fetchDecision
// shape), naming the instance it is wanted for so the peer can fall
// back to its decision ring. The reply authenticates its content too:
// sha256(data) must equal the requested digest, so a forged body is
// rejected — and counted — for the price of one hash.
func (n *Node) fetchPayload(from model.PID, instance uint64, sum [sha256.Size]byte, timeout time.Duration) (model.Value, error) {
	n.m.payloadFetches.Inc()
	var val model.Value
	req := wire.AppendPayload(nil, wire.Payload{Kind: wire.PayloadFetch, Sender: n.cfg.ID, Instance: instance, Digest: sum})
	err := n.fetch(from, timeout, req, func(inner []byte) (bool, error) {
		reply, err := wire.DecodePayload(inner)
		switch {
		case err != nil:
			return false, fmt.Errorf("transport: peer %d: %w", from, err)
		case reply.Kind == wire.PayloadFetchNone:
			return false, fmt.Errorf("%w: peer %d digest %x", ErrPayloadNotCached, from, sum[:8])
		case reply.Kind != wire.PayloadFetchReply:
			return false, fmt.Errorf("transport: peer %d: unexpected payload kind %d", from, reply.Kind)
		case reply.Digest != sum || sha256.Sum256(reply.Data) != sum:
			n.m.payloadForged.Inc()
			return false, fmt.Errorf("%w: peer %d", ErrPayloadForged, from)
		}
		val = model.Value(reply.Data)
		return true, nil
	})
	return val, err
}

// handleAnnounce admits one content-addressed payload pushed on a session
// link. The handshake pins the pusher's identity, so an unauthenticated
// dialer cannot fill the store (its contents steer the chooser's weights)
// and the pin lands on the account of whoever really sent it; the digest
// authenticates the body. A malformed or forged announce closes the link —
// an honest peer never sends one.
func (n *Node) handleAnnounce(c *inConn, payload []byte) error {
	p, err := wire.DecodePayload(payload)
	if err != nil {
		return fmt.Errorf("%w: %w", errMalformed, err)
	}
	if p.Kind != wire.PayloadAnnounce || len(p.Data) == 0 {
		return errMalformed
	}
	if sha256.Sum256(p.Data) != p.Digest {
		// Forged body under a true digest or vice versa; either way the
		// frame lies about its content address.
		n.m.payloadForged.Inc()
		return ErrPayloadForged
	}
	// The one copy a received body ever gets: off the read buffer, into the
	// value everything downstream shares. An announce outside the release
	// window is dropped and the link kept — an honest one can lose the race
	// with a catch-up.
	n.pinPayload(p.Instance, c.peer, p.Digest, model.Value(p.Data))
	return nil
}

// servePayloadFetch answers one pull that arrived in a session frame: from
// the store while the instance is live here, and from the decision ring
// once it is released — the store has let go by then, but if the digest is
// what the instance decided the ring still holds the body. A miss is
// answered FETCH-NONE, not refused: an honest laggard may ask for a
// proposal that lost.
func (n *Node) servePayloadFetch(c *inConn, inner []byte) error {
	p, err := wire.DecodePayload(inner)
	if err != nil {
		return fmt.Errorf("%w: %w", errMalformed, err)
	}
	if p.Kind != wire.PayloadFetch {
		return errMalformed
	}
	reply := wire.Payload{Kind: wire.PayloadFetchNone, Sender: n.cfg.ID, Instance: p.Instance, Digest: p.Digest}
	val, found := n.store.get(p.Digest)
	if !found {
		val, found = n.decidedPayload(p.Instance, p.Digest)
	}
	if found {
		reply.Kind = wire.PayloadFetchReply
		n.m.payloadFetchServed.Inc()
	} else {
		n.m.payloadFetchUnknown.Inc()
	}
	return c.reply(wire.AppendPayloadValue(nil, reply, val))
}

// decidedPayload looks the digest up in the decision ring: the decided
// value of the instance, if the ring still holds it and it hashes
// to sum.
func (n *Node) decidedPayload(instance uint64, sum [sha256.Size]byte) (model.Value, bool) {
	decided, ok := n.cachedDecision(instance)
	if !ok || sha256.Sum256([]byte(decided)) != sum {
		return model.NoValue, false
	}
	return decided, true
}
