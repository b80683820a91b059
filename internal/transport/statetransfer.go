package transport

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/model"
	"genconsensus/internal/snapshot"
	"genconsensus/internal/wire"
)

// State transfer: the crash-recovery exchange. A recovering node dials a
// peer on its consensus address, handshakes like any peer link and sends a
// snapshot request in a session frame; the peer's read loop answers on the
// same connection with the latest checkpoint, chunked into reply-direction
// session frames. The session rules out third-party tampering, but the
// serving peer itself may be Byzantine — so a joiner calls
// FetchVerifiedSnapshot, which accepts a snapshot only when b+1 peers
// present the same digest: under the Byzantine budget at least one of them
// is honest, and honest replicas checkpoint deterministically, so a
// matching digest pins the true state.

// SnapshotProvider serves the node's latest checkpoint and the digest of
// its transfer encoding (snapshot.Digest), which the provider already
// holds, so a request costs the donor no hash. Implementations must be
// safe for concurrent use (the read loops call it).
type SnapshotProvider func() (*snapshot.Snapshot, [32]byte, bool)

// Errors returned by state transfer.
var (
	ErrNoSnapshot     = errors.New("transport: peer has no snapshot")
	ErrSnapshotQuorum = errors.New("transport: no snapshot digest matched by the required quorum")
	ErrBadSnapshot    = errors.New("transport: snapshot transfer failed verification")
	ErrUnknownPeer    = errors.New("transport: no address for peer")
	ErrNotCached      = errors.New("transport: decision not in the peer's cache")
	ErrDecisionQuorum = errors.New("transport: no decided value matched by the required quorum")
)

// SetSnapshotProvider installs the checkpoint source served to recovering
// peers.
func (n *Node) SetSnapshotProvider(p SnapshotProvider) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.provider = p
}

// SetPeers replaces the peer address map — used when addresses are known
// only after every node has bound (":0" clusters). Call before consensus
// traffic starts.
func (n *Node) SetPeers(peers map[model.PID]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.Peers = peers
}

// RecordDecision caches one committed instance's decided value so that
// catching-up peers can fetch it (DecisionRequest) after the instance's
// consensus buffers are released. The ring is bounded two ways, oldest
// evicted first: by entry count (Config.DecisionCache) and by decided-value
// bytes (Config.DecisionCacheBytes). The byte budget is the binding one
// under batched load — ring × max-batch-bytes dwarfs any sensible memory
// target — so the effective ring depth adapts to the decided values: deep
// for small decisions, shallow for bursts of maximum-size batches. The
// newest decision is always retained, even if it alone exceeds the budget.
func (n *Node) RecordDecision(instance uint64, decided model.Value) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.observeLocked(instance)
	if _, ok := n.decisions[instance]; ok {
		return
	}
	n.decisions[instance] = decided
	n.decisionLog = append(n.decisionLog, instance)
	n.decisionBytes += len(decided)
	for len(n.decisionLog) > 1 &&
		(len(n.decisionLog) > n.cfg.DecisionCache || n.decisionBytes > n.cfg.DecisionCacheBytes) {
		oldest := n.decisionLog[0]
		n.decisionBytes -= len(n.decisions[oldest])
		delete(n.decisions, oldest)
		n.decisionLog = n.decisionLog[1:]
	}
}

// cachedDecision returns the instance's decided value while the ring still
// holds it.
func (n *Node) cachedDecision(instance uint64) (model.Value, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	decided, ok := n.decisions[instance]
	return decided, ok
}

// DecisionCacheStats reports the ring's current entry count and decided-
// value bytes (budget tests and metrics).
func (n *Node) DecisionCacheStats() (entries, bytes int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.decisionLog), n.decisionBytes
}

// serveSnap answers one state-transfer request that arrived in a session
// frame — the latest checkpoint, or one cached decision — with
// reply-direction session frames on the same connection. The requester
// reads them synchronously, so the exchange never touches the consensus
// instance buffers.
func (n *Node) serveSnap(c *inConn, inner []byte) error {
	env, err := wire.DecodeSnap(inner)
	if err != nil {
		return err
	}
	if env.Kind == wire.DecisionRequest {
		return n.serveDecision(c, env.LastInstance)
	}
	// A snapshot request's LastInstance is reserved as zero.
	if env.Kind != wire.SnapRequest || env.LastInstance != 0 {
		return errMalformed // chunks and replies flow the other way only
	}
	n.mu.Lock()
	provider := n.provider
	n.mu.Unlock()
	var snap *snapshot.Snapshot
	var digest [32]byte
	ok := false
	if provider != nil {
		snap, digest, ok = provider()
	}
	if !ok || snap == nil {
		return c.reply(wire.AppendSnap(nil, wire.SnapEnvelope{Kind: wire.SnapNone, Sender: n.cfg.ID}))
	}
	data := snapshot.AppendSnapshot(nil, snap)
	chunkBytes := n.snapChunkBytes
	count := max((len(data)+chunkBytes-1)/chunkBytes, 1) // an empty state still travels as one empty chunk
	for i := 0; i < count; i++ {
		lo := i * chunkBytes
		hi := min(lo+chunkBytes, len(data))
		chunk := wire.SnapEnvelope{
			Kind:         wire.SnapChunk,
			Sender:       n.cfg.ID,
			LastInstance: snap.LastInstance,
			LogIndex:     snap.LogIndex,
			Digest:       digest[:],
			ChunkIndex:   uint32(i),
			ChunkCount:   uint32(count),
			Data:         data[lo:hi],
		}
		if err := c.reply(wire.AppendSnap(nil, chunk)); err != nil {
			return err
		}
	}
	return nil
}

// serveDecision answers one DecisionRequest from the decision ring
// (SnapNone when evicted or never seen). The reply echoes the instance id
// the requester asked for.
func (n *Node) serveDecision(c *inConn, instance uint64) error {
	decided, ok := n.cachedDecision(instance)
	reply := wire.SnapEnvelope{Kind: wire.SnapNone, Sender: n.cfg.ID, LastInstance: instance}
	if ok {
		n.m.ringHits.Inc()
		reply.Kind = wire.DecisionReply
		reply.Data = []byte(decided)
	} else {
		n.m.ringMisses.Inc()
	}
	return c.reply(wire.AppendSnap(nil, reply))
}

// fetch runs one request/reply exchange with peer from on a dedicated
// connection: dial, HELLO handshake, one session-framed request, then the
// peer's session-framed replies handed to onReply until it reports done —
// all under one deadline. A reply must be sequenced in the reply direction,
// rise, and verify under the session key, so a request reflected back
// never passes for a reply.
func (n *Node) fetch(from model.PID, timeout time.Duration, req []byte, onReply func(inner []byte) (done bool, err error)) error {
	n.mu.Lock()
	addr, ok := n.cfg.Peers[from]
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if !ok || addr == "" || from == n.cfg.ID {
		return fmt.Errorf("%w: %d", ErrUnknownPeer, from)
	}
	deadline := time.Now().Add(timeout)
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return fmt.Errorf("transport: dialing %d: %w", from, err)
	}
	defer conn.Close()
	key, err := n.dialHandshake(conn, from, deadline)
	if err != nil {
		return fmt.Errorf("%w with %d: %w", errBadHandshake, from, err)
	}
	macer := auth.NewSessionMACer(key)
	frame, err := sealSession(nil, macer, 1, req)
	if err == nil {
		_, err = conn.Write(frame)
	}
	if err != nil {
		return fmt.Errorf("transport: requesting from %d: %w", from, err)
	}
	for last := replyBit; ; {
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			return fmt.Errorf("transport: reading reply from %d: %w", from, err)
		}
		seq, tag, inner, err := wire.SplitSessionFrame(payload)
		switch {
		case err != nil:
		case seq&replyBit == 0:
			err = errReflected
		case seq <= last:
			err = wire.ErrSessionReuse
		case !macer.Check(seq, inner, tag):
			err = errBadSessionTag
		}
		if err != nil {
			return fmt.Errorf("transport: reply from %d: %w", from, err)
		}
		last = seq
		if done, err := onReply(inner); done || err != nil {
			return err
		}
	}
}

// fetchDecision retrieves one peer's cached decided value for an instance.
func (n *Node) fetchDecision(from model.PID, instance uint64, timeout time.Duration) (model.Value, error) {
	var decided model.Value
	req := wire.AppendSnap(nil, wire.SnapEnvelope{Kind: wire.DecisionRequest, Sender: n.cfg.ID, LastInstance: instance})
	err := n.fetch(from, timeout, req, func(inner []byte) (bool, error) {
		env, err := wire.DecodeSnap(inner)
		switch {
		case err != nil:
			return false, fmt.Errorf("%w: peer %d: %v", ErrBadSnapshot, from, err)
		case env.LastInstance != instance:
			return false, fmt.Errorf("%w: peer %d: reply for instance %d", ErrBadSnapshot, from, env.LastInstance)
		case env.Kind == wire.SnapNone:
			return false, fmt.Errorf("%w: peer %d instance %d", ErrNotCached, from, instance)
		case env.Kind != wire.DecisionReply:
			return false, fmt.Errorf("%w: peer %d: kind %d", ErrBadSnapshot, from, env.Kind)
		}
		decided = model.Value(env.Data)
		return true, nil
	})
	return decided, err
}

// FetchVerifiedDecision fetches an instance's decided value from the given
// peers and returns it once at least `quorum` of them report the identical
// value. With quorum b+1 at least one attester is honest, and honest nodes
// cache only genuinely decided values, so agreement pins the answer — a
// Byzantine minority cannot feed a laggard a forged decision. An instance
// has one decided value, so the first value quorum peers match is the
// answer: the fetch returns then, without waiting for slower or silent
// peers. It is the catch-up path for instances between a transferred
// checkpoint and the cluster head, which the peers have committed,
// released and will never run again.
func (n *Node) FetchVerifiedDecision(peers []model.PID, instance uint64, quorum int, timeout time.Duration) (model.Value, error) {
	agreed, err := quorumFetch(n.cfg.ID, peers, quorum, true, func(p model.PID) (model.Value, model.Value, error) {
		v, err := n.fetchDecision(p, instance, timeout)
		return v, v, err
	})
	if len(agreed) == 0 {
		return model.NoValue, fmt.Errorf("%w: instance %d (quorum %d, %d peers, errors: %v)",
			ErrDecisionQuorum, instance, quorum, len(peers), err)
	}
	return agreed[0], nil
}

// FetchSnapshot retrieves one peer's latest checkpoint: request, chunked
// response, per-chunk metadata check, digest check over the reassembled
// encoding. The returned digest is what FetchVerifiedSnapshot compares
// across peers.
func (n *Node) FetchSnapshot(from model.PID, timeout time.Duration) (*snapshot.Snapshot, [32]byte, error) {
	var (
		assembled, digest      []byte
		lastInstance, logIndex uint64
		seen, total            uint32
	)
	req := wire.AppendSnap(nil, wire.SnapEnvelope{Kind: wire.SnapRequest, Sender: n.cfg.ID})
	err := n.fetch(from, timeout, req, func(inner []byte) (bool, error) {
		env, err := wire.DecodeSnap(inner)
		switch {
		case err != nil:
			return false, fmt.Errorf("%w: peer %d: %v", ErrBadSnapshot, from, err)
		case env.Kind == wire.SnapNone:
			return false, fmt.Errorf("%w: %d", ErrNoSnapshot, from)
		case env.Kind != wire.SnapChunk:
			return false, fmt.Errorf("%w: peer %d: kind %d", ErrBadSnapshot, from, env.Kind)
		}
		if seen == 0 {
			total = env.ChunkCount
			digest = env.Digest
			lastInstance, logIndex = env.LastInstance, env.LogIndex
			if total == 0 || total > 1<<20 || len(digest) != sha256.Size {
				return false, fmt.Errorf("%w: peer %d: bad transfer header", ErrBadSnapshot, from)
			}
		} else if env.ChunkCount != total || !bytes.Equal(env.Digest, digest) ||
			env.LastInstance != lastInstance || env.LogIndex != logIndex {
			return false, fmt.Errorf("%w: peer %d: mixed transfer", ErrBadSnapshot, from)
		}
		if env.ChunkIndex != seen {
			return false, fmt.Errorf("%w: peer %d: chunk %d, want %d", ErrBadSnapshot, from, env.ChunkIndex, seen)
		}
		// Bound what a (possibly Byzantine) peer can make us buffer: the
		// accumulated payload, not the claimed chunk count, is what costs
		// memory.
		if len(assembled)+len(env.Data) > snapshot.MaxStateBytes+1024 {
			return false, fmt.Errorf("%w: peer %d: oversized transfer", ErrBadSnapshot, from)
		}
		assembled = append(assembled, env.Data...)
		seen++
		return seen == total, nil
	})
	var zero [32]byte
	if err != nil {
		return nil, zero, err
	}
	sum := sha256.Sum256(assembled)
	if !bytes.Equal(sum[:], digest) {
		return nil, zero, fmt.Errorf("%w: peer %d: digest mismatch", ErrBadSnapshot, from)
	}
	snap, err := snapshot.Decode(assembled)
	if err != nil {
		return nil, zero, fmt.Errorf("%w: peer %d: %v", ErrBadSnapshot, from, err)
	}
	if snap.LastInstance != lastInstance || snap.LogIndex != logIndex {
		return nil, zero, fmt.Errorf("%w: peer %d: metadata mismatch", ErrBadSnapshot, from)
	}
	return snap, sum, nil
}

// FetchVerifiedSnapshot fetches checkpoints from the given peers in
// parallel and returns the newest snapshot whose digest at least
// `quorum` of them agree on. With quorum b+1 a Byzantine minority can
// neither forge a snapshot (an honest peer must match it) nor poison the
// fetch (honest majorities still reach quorum among themselves). Peers
// that are down, have no checkpoint yet or fail verification simply don't
// vote.
func (n *Node) FetchVerifiedSnapshot(peers []model.PID, quorum int, timeout time.Duration) (*snapshot.Snapshot, error) {
	agreed, err := quorumFetch(n.cfg.ID, peers, quorum, false, func(p model.PID) ([32]byte, *snapshot.Snapshot, error) {
		snap, digest, err := n.FetchSnapshot(p, timeout)
		return digest, snap, err
	})
	if len(agreed) == 0 {
		return nil, fmt.Errorf("%w (quorum %d, %d peers, errors: %v)",
			ErrSnapshotQuorum, quorum, len(peers), err)
	}
	best := agreed[0]
	for _, snap := range agreed[1:] {
		if snap.LastInstance > best.LastInstance {
			best = snap
		}
	}
	return best, nil
}

// quorumFetch asks every listed peer but self in parallel and returns one
// answer per key that at least quorum of them reported (quorum below 1
// counts as 1), in the order the keys reached quorum, with the errors of
// the peers that did not answer. With first set it returns at the first
// key to reach quorum instead of waiting for every peer, so a silent peer
// does not hold the caller for the whole timeout; its fetch runs on to
// that timeout unread.
func quorumFetch[K comparable, T any](self model.PID, peers []model.PID, quorum int, first bool, get func(model.PID) (K, T, error)) ([]T, error) {
	type answer struct {
		key K
		val T
		err error
	}
	// One slot per peer: a fetch still running after an early return
	// finishes without blocking.
	answers := make(chan answer, len(peers))
	for _, p := range peers {
		if p == self {
			answers <- answer{err: ErrUnknownPeer}
			continue
		}
		go func() {
			var a answer
			a.key, a.val, a.err = get(p)
			answers <- a
		}()
	}
	counts := make(map[K]int)
	var agreed []T
	var errs []error
	for range peers {
		a := <-answers
		if a.err != nil {
			errs = append(errs, a.err)
			continue
		}
		if counts[a.key]++; counts[a.key] == max(quorum, 1) {
			agreed = append(agreed, a.val)
			if first {
				break
			}
		}
	}
	return agreed, errors.Join(errs...)
}
