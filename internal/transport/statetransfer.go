package transport

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/model"
	"genconsensus/internal/snapshot"
	"genconsensus/internal/wire"
)

// State transfer: the crash-recovery exchange. A recovering node dials a
// peer on its consensus address and sends a snapshot request; the peer's
// read loop answers on the same connection with the latest checkpoint,
// chunked into MAC-protected frames. Pairwise MACs rule out third-party
// tampering, but the serving peer itself may be Byzantine — so a joiner
// calls FetchVerifiedSnapshot, which accepts a snapshot only when b+1
// peers present the same digest: under the Byzantine budget at least one
// of them is honest, and honest replicas checkpoint deterministically, so
// a matching digest pins the true state.

// SnapshotProvider serves the node's latest checkpoint. Implementations
// must be safe for concurrent use (the read loops call it).
type SnapshotProvider func() (*snapshot.Snapshot, bool)

// Errors returned by state transfer.
var (
	ErrNoSnapshot     = errors.New("transport: peer has no snapshot")
	ErrSnapshotQuorum = errors.New("transport: no snapshot digest matched by the required quorum")
	ErrBadSnapshot    = errors.New("transport: snapshot transfer failed verification")
	ErrUnknownPeer    = errors.New("transport: no address for peer")
	ErrNotCached      = errors.New("transport: decision not in the peer's cache")
	ErrDecisionQuorum = errors.New("transport: no decided value matched by the required quorum")
)

// SetSnapshotProvider installs group 0's checkpoint source — the whole
// node's source in an unsharded deployment.
func (n *Node) SetSnapshotProvider(p SnapshotProvider) {
	n.SetGroupSnapshotProvider(0, p)
}

// SetGroupSnapshotProvider installs the checkpoint source served to peers
// recovering group g. Each group checkpoints its own state machine, so a
// sharded node registers one provider per group.
func (n *Node) SetGroupSnapshotProvider(g wire.GroupID, p SnapshotProvider) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.group(g).provider = p
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
// Rings are per group: the instance id is a packed (group, instance) pair,
// and each group gets the full entry and byte budget, so one group's burst
// of maximum-size batches cannot evict another group's catch-up window.
func (n *Node) RecordDecision(instance uint64, decided model.Value) {
	g, local := wire.SplitGID(instance)
	n.mu.Lock()
	defer n.mu.Unlock()
	gs := n.group(g)
	n.observeLocked(g, local)
	if _, ok := gs.decisions[local]; ok {
		return
	}
	gs.decisions[local] = decided
	gs.decisionLog = append(gs.decisionLog, local)
	gs.decisionBytes += len(decided)
	for len(gs.decisionLog) > 1 &&
		(len(gs.decisionLog) > n.cfg.DecisionCache || gs.decisionBytes > n.cfg.DecisionCacheBytes) {
		oldest := gs.decisionLog[0]
		gs.decisionBytes -= len(gs.decisions[oldest])
		delete(gs.decisions, oldest)
		gs.decisionLog = gs.decisionLog[1:]
	}
}

// cachedDecision returns the packed instance's decided value while its
// group's ring still holds it.
func (n *Node) cachedDecision(instance uint64) (model.Value, bool) {
	g, local := wire.SplitGID(instance)
	n.mu.Lock()
	defer n.mu.Unlock()
	gs, ok := n.groups[g]
	if !ok {
		return model.NoValue, false
	}
	decided, ok := gs.decisions[local]
	return decided, ok
}

// DecisionCacheStats reports the rings' current entry count and decided-
// value bytes, summed across groups (budget tests and metrics).
func (n *Node) DecisionCacheStats() (entries, bytes int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, gs := range n.groups {
		entries += len(gs.decisionLog)
		bytes += gs.decisionBytes
	}
	return entries, bytes
}

// handleSnapFrame serves one authenticated state-transfer request
// (snapshot or cached decision) on the inbound connection it arrived on.
// Responses are written directly to that connection: the requester reads
// them synchronously, so the exchange never touches the consensus
// instance buffers.
func (n *Node) handleSnapFrame(conn net.Conn, payload []byte) {
	env, err := wire.DecodeSnap(payload)
	if err != nil {
		return
	}
	if int(env.Sender) < 0 || int(env.Sender) >= n.cfg.N || env.Sender == n.cfg.ID {
		return
	}
	key := auth.PairKey(n.cfg.AuthSeed, env.Sender, n.cfg.ID)
	if !auth.CheckMAC(key, wire.SnapVerifyPayload(env), env.Auth) {
		return
	}
	if env.Kind == wire.DecisionRequest {
		n.serveDecision(conn, key, env.LastInstance)
		return
	}
	if env.Kind != wire.SnapRequest {
		return // chunks flow request→response only; anything else is noise
	}
	// A snapshot request names its group in the otherwise-unused
	// LastInstance field (packed, instance part zero): group-0 requests
	// stay byte-identical to the pre-shard format.
	g, _ := wire.SplitGID(env.LastInstance)
	if int(g) >= n.cfg.Groups {
		return
	}
	n.mu.Lock()
	provider := n.group(g).provider
	n.mu.Unlock()
	var snap *snapshot.Snapshot
	ok := false
	if provider != nil {
		snap, ok = provider()
	}
	if !ok || snap == nil {
		_ = writeSnap(conn, key, wire.SnapEnvelope{Kind: wire.SnapNone, Sender: n.cfg.ID})
		return
	}
	data := snapshot.AppendSnapshot(nil, snap)
	digest := sha256.Sum256(data)
	chunkBytes := n.snapChunkBytes
	count := (len(data) + chunkBytes - 1) / chunkBytes
	if count == 0 {
		count = 1 // an empty state still travels as one empty chunk
	}
	for i := 0; i < count; i++ {
		lo := i * chunkBytes
		hi := lo + chunkBytes
		if hi > len(data) {
			hi = len(data)
		}
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
		if err := writeSnap(conn, key, chunk); err != nil {
			return
		}
	}
}

// serveDecision answers one DecisionRequest from the requested group's
// cache (SnapNone when evicted or never seen). The reply echoes the packed
// (group, instance) id the requester asked for.
func (n *Node) serveDecision(conn net.Conn, key auth.MACKey, instance uint64) {
	decided, ok := n.cachedDecision(instance)
	reply := wire.SnapEnvelope{Kind: wire.SnapNone, Sender: n.cfg.ID, LastInstance: instance}
	if ok {
		n.m.ringHits.Inc()
		reply.Kind = wire.DecisionReply
		reply.Data = []byte(decided)
	} else {
		n.m.ringMisses.Inc()
	}
	_ = writeSnap(conn, key, reply)
}

// writeSnap seals env under key — the MAC covers exactly the encoded
// bytes — and writes it as one frame.
func writeSnap(w io.Writer, key auth.MACKey, env wire.SnapEnvelope) error {
	return writeFrame(w, wire.AppendSignedSnap(wire.BeginFrame(make([]byte, 0, 128+len(env.Data))), env, func(covered []byte) []byte {
		return auth.MAC(key, covered)
	}))
}

// writeFrame fills in the length prefix BeginFrame reserved at the head of
// frame and writes the frame in one Write: a header written apart from its
// payload can reach the peer as a segment of its own.
func writeFrame(w io.Writer, frame []byte) error {
	frame, err := wire.FinishFrame(frame)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// FetchDecision retrieves one peer's cached decided value for an instance
// over a dedicated connection.
func (n *Node) FetchDecision(from model.PID, instance uint64, timeout time.Duration) (model.Value, error) {
	n.mu.Lock()
	addr, ok := n.cfg.Peers[from]
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return model.NoValue, ErrClosed
	}
	if !ok || addr == "" || from == n.cfg.ID {
		return model.NoValue, fmt.Errorf("%w: %d", ErrUnknownPeer, from)
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return model.NoValue, fmt.Errorf("transport: dialing %d: %w", from, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))

	key := auth.PairKey(n.cfg.AuthSeed, n.cfg.ID, from)
	req := wire.SnapEnvelope{Kind: wire.DecisionRequest, Sender: n.cfg.ID, LastInstance: instance}
	if err := writeSnap(conn, key, req); err != nil {
		return model.NoValue, fmt.Errorf("transport: requesting decision from %d: %w", from, err)
	}
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		return model.NoValue, fmt.Errorf("transport: reading decision from %d: %w", from, err)
	}
	env, err := wire.DecodeSnap(payload)
	if err != nil {
		return model.NoValue, fmt.Errorf("%w: peer %d: %v", ErrBadSnapshot, from, err)
	}
	if env.Sender != from || !auth.CheckMAC(key, wire.SnapVerifyPayload(env), env.Auth) ||
		env.LastInstance != instance {
		return model.NoValue, fmt.Errorf("%w: peer %d: bad decision reply", ErrBadSnapshot, from)
	}
	switch env.Kind {
	case wire.SnapNone:
		return model.NoValue, fmt.Errorf("%w: peer %d instance %d", ErrNotCached, from, instance)
	case wire.DecisionReply:
		return model.Value(env.Data), nil
	default:
		return model.NoValue, fmt.Errorf("%w: peer %d: kind %d", ErrBadSnapshot, from, env.Kind)
	}
}

// FetchVerifiedDecision fetches an instance's decided value from the given
// peers and returns it once at least `quorum` of them report the identical
// value. With quorum b+1 at least one attester is honest, and honest nodes
// cache only genuinely decided values, so agreement pins the answer — a
// Byzantine minority cannot feed a laggard a forged decision. It is the
// catch-up path for instances between a transferred checkpoint and the
// cluster head, which the peers have committed, released and will never
// run again.
func (n *Node) FetchVerifiedDecision(peers []model.PID, instance uint64, quorum int, timeout time.Duration) (model.Value, error) {
	if quorum < 1 {
		quorum = 1
	}
	values := make([]model.Value, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		if p == n.cfg.ID {
			errs[i] = ErrUnknownPeer
			continue
		}
		wg.Add(1)
		go func(i int, p model.PID) {
			defer wg.Done()
			values[i], errs[i] = n.FetchDecision(p, instance, timeout)
		}(i, p)
	}
	wg.Wait()
	counts := make(map[model.Value]int)
	var fetchErrs []error
	for i := range values {
		if errs[i] != nil {
			fetchErrs = append(fetchErrs, errs[i])
			continue
		}
		counts[values[i]]++
		if counts[values[i]] >= quorum {
			return values[i], nil
		}
	}
	return model.NoValue, fmt.Errorf("%w: instance %d (quorum %d, %d peers, errors: %v)",
		ErrDecisionQuorum, instance, quorum, len(peers), errors.Join(fetchErrs...))
}

// FetchSnapshot retrieves one peer's latest group-0 checkpoint.
func (n *Node) FetchSnapshot(from model.PID, timeout time.Duration) (*snapshot.Snapshot, [32]byte, error) {
	return n.FetchGroupSnapshot(from, 0, timeout)
}

// FetchGroupSnapshot retrieves one peer's latest checkpoint for group g
// over a dedicated connection: request, chunked response, MAC check per
// frame, digest check over the reassembled encoding. The returned digest
// is what FetchVerifiedGroupSnapshot compares across peers.
func (n *Node) FetchGroupSnapshot(from model.PID, g wire.GroupID, timeout time.Duration) (*snapshot.Snapshot, [32]byte, error) {
	var zero [32]byte
	n.mu.Lock()
	addr, ok := n.cfg.Peers[from]
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return nil, zero, ErrClosed
	}
	if !ok || addr == "" || from == n.cfg.ID {
		return nil, zero, fmt.Errorf("%w: %d", ErrUnknownPeer, from)
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, zero, fmt.Errorf("transport: dialing %d: %w", from, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))

	key := auth.PairKey(n.cfg.AuthSeed, n.cfg.ID, from)
	req := wire.SnapEnvelope{Kind: wire.SnapRequest, Sender: n.cfg.ID, LastInstance: wire.PackGID(g, 0)}
	if err := writeSnap(conn, key, req); err != nil {
		return nil, zero, fmt.Errorf("transport: requesting snapshot from %d: %w", from, err)
	}

	var assembled []byte
	var digest []byte
	var lastInstance, logIndex uint64
	seen := uint32(0)
	total := uint32(0)
	for {
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			return nil, zero, fmt.Errorf("transport: reading snapshot from %d: %w", from, err)
		}
		env, err := wire.DecodeSnap(payload)
		if err != nil {
			return nil, zero, fmt.Errorf("%w: peer %d: %v", ErrBadSnapshot, from, err)
		}
		if env.Sender != from ||
			!auth.CheckMAC(key, wire.SnapVerifyPayload(env), env.Auth) {
			return nil, zero, fmt.Errorf("%w: peer %d: bad authenticator", ErrBadSnapshot, from)
		}
		if env.Kind == wire.SnapNone {
			return nil, zero, fmt.Errorf("%w: %d", ErrNoSnapshot, from)
		}
		if env.Kind != wire.SnapChunk {
			return nil, zero, fmt.Errorf("%w: peer %d: kind %d", ErrBadSnapshot, from, env.Kind)
		}
		if seen == 0 {
			total = env.ChunkCount
			digest = env.Digest
			lastInstance, logIndex = env.LastInstance, env.LogIndex
			if total == 0 || total > 1<<20 || len(digest) != sha256.Size {
				return nil, zero, fmt.Errorf("%w: peer %d: bad transfer header", ErrBadSnapshot, from)
			}
		} else if env.ChunkCount != total || !bytes.Equal(env.Digest, digest) ||
			env.LastInstance != lastInstance || env.LogIndex != logIndex {
			return nil, zero, fmt.Errorf("%w: peer %d: mixed transfer", ErrBadSnapshot, from)
		}
		if env.ChunkIndex != seen {
			return nil, zero, fmt.Errorf("%w: peer %d: chunk %d, want %d", ErrBadSnapshot, from, env.ChunkIndex, seen)
		}
		// Bound what a (possibly Byzantine) peer can make us buffer: the
		// accumulated payload, not the claimed chunk count, is what costs
		// memory.
		if len(assembled)+len(env.Data) > snapshot.MaxStateBytes+1024 {
			return nil, zero, fmt.Errorf("%w: peer %d: oversized transfer", ErrBadSnapshot, from)
		}
		assembled = append(assembled, env.Data...)
		seen++
		if seen == total {
			break
		}
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

// FetchVerifiedSnapshot fetches group-0 checkpoints with quorum
// verification — the whole recovery path in an unsharded deployment.
func (n *Node) FetchVerifiedSnapshot(peers []model.PID, quorum int, timeout time.Duration) (*snapshot.Snapshot, error) {
	return n.FetchVerifiedGroupSnapshot(peers, 0, quorum, timeout)
}

// FetchVerifiedGroupSnapshot fetches group g's checkpoints from the given
// peers in parallel and returns the newest snapshot whose digest at least
// `quorum` of them agree on. With quorum b+1 a Byzantine minority can
// neither forge a snapshot (an honest peer must match it) nor poison the
// fetch (honest majorities still reach quorum among themselves). Peers
// that are down, have no checkpoint yet or fail verification simply don't
// vote.
func (n *Node) FetchVerifiedGroupSnapshot(peers []model.PID, g wire.GroupID, quorum int, timeout time.Duration) (*snapshot.Snapshot, error) {
	if quorum < 1 {
		quorum = 1
	}
	type vote struct {
		snap   *snapshot.Snapshot
		digest [32]byte
		err    error
	}
	votes := make([]vote, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		if p == n.cfg.ID {
			votes[i].err = ErrUnknownPeer
			continue
		}
		wg.Add(1)
		go func(i int, p model.PID) {
			defer wg.Done()
			votes[i].snap, votes[i].digest, votes[i].err = n.FetchGroupSnapshot(p, g, timeout)
		}(i, p)
	}
	wg.Wait()
	counts := make(map[[32]byte]int)
	bySum := make(map[[32]byte]*snapshot.Snapshot)
	var errs []error
	for i := range votes {
		if votes[i].err != nil {
			errs = append(errs, votes[i].err)
			continue
		}
		counts[votes[i].digest]++
		bySum[votes[i].digest] = votes[i].snap
	}
	var best *snapshot.Snapshot
	for d, c := range counts {
		if c < quorum {
			continue
		}
		if best == nil || bySum[d].LastInstance > best.LastInstance {
			best = bySum[d]
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w (quorum %d, %d peers, errors: %v)",
			ErrSnapshotQuorum, quorum, len(peers), errors.Join(errs...))
	}
	return best, nil
}
