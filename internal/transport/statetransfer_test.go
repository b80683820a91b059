package transport

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"net"
	"testing"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/model"
	"genconsensus/internal/obs"
	"genconsensus/internal/snapshot"
	"genconsensus/internal/wire"
)

func provide(snap *snapshot.Snapshot) SnapshotProvider {
	return func() (*snapshot.Snapshot, [32]byte, bool) {
		if snap == nil {
			return nil, [32]byte{}, false
		}
		return snap, snapshot.Digest(snap), true
	}
}

func peerIDs(ids ...model.PID) []model.PID { return ids }

func TestFetchSnapshotSingleChunk(t *testing.T) {
	nodes := startCluster(t, 2)
	want := &snapshot.Snapshot{LastInstance: 12, LogIndex: 40, State: []byte("kv state")}
	nodes[1].SetSnapshotProvider(provide(want))

	got, digest, err := nodes[0].FetchSnapshot(1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.LastInstance != want.LastInstance || got.LogIndex != want.LogIndex ||
		!bytes.Equal(got.State, want.State) {
		t.Fatalf("fetched %+v, want %+v", got, want)
	}
	if digest != snapshot.Digest(want) {
		t.Error("digest mismatch")
	}
}

func TestFetchSnapshotMultiChunk(t *testing.T) {
	nodes := startCluster(t, 2)
	// Force many chunks: 1 KiB chunk size against a 10 KiB state.
	nodes[0].snapChunkBytes = 1024
	nodes[1].snapChunkBytes = 1024
	want := &snapshot.Snapshot{LastInstance: 3, LogIndex: 9, State: bytes.Repeat([]byte{0x5A}, 10*1024)}
	nodes[1].SetSnapshotProvider(provide(want))

	got, _, err := nodes[0].FetchSnapshot(1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.State, want.State) {
		t.Fatal("multi-chunk state corrupted")
	}
}

// The donor sends the digest its provider holds and hashes nothing itself:
// a digest that does not match the snapshot fails the joiner's check, and
// a true one is what the joiner gets back.
func TestServeSnapshotSendsProviderDigest(t *testing.T) {
	nodes := startCluster(t, 2)
	snap := &snapshot.Snapshot{LastInstance: 7, LogIndex: 21, State: []byte("kv state")}
	nodes[1].SetSnapshotProvider(func() (*snapshot.Snapshot, [32]byte, bool) {
		return snap, sha256.Sum256([]byte("another snapshot")), true
	})
	if _, _, err := nodes[0].FetchSnapshot(1, time.Second); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("wrong provider digest: err = %v, want ErrBadSnapshot", err)
	}
	nodes[1].SetSnapshotProvider(provide(snap))
	if _, digest, err := nodes[0].FetchSnapshot(1, time.Second); err != nil || digest != snapshot.Digest(snap) {
		t.Fatalf("FetchSnapshot = %x, %v; want the snapshot's digest", digest[:4], err)
	}
}

func TestFetchSnapshotNone(t *testing.T) {
	nodes := startCluster(t, 2)
	// Node 1 has a provider with nothing yet; node 0's request must get an
	// explicit SnapNone, not a timeout.
	nodes[1].SetSnapshotProvider(provide(nil))
	start := time.Now()
	_, _, err := nodes[0].FetchSnapshot(1, 5*time.Second)
	if !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
	if time.Since(start) > time.Second {
		t.Error("SnapNone waited for the timeout")
	}
}

// FetchVerifiedSnapshot requires b+1 matching digests: a single lying peer
// can neither impose its forged snapshot nor block the honest quorum.
func TestFetchVerifiedSnapshotOutvotesForgery(t *testing.T) {
	nodes := startCluster(t, 4)
	honest := &snapshot.Snapshot{LastInstance: 20, LogIndex: 60, State: []byte("honest state")}
	forged := &snapshot.Snapshot{LastInstance: 99, LogIndex: 999, State: []byte("forged state")}
	nodes[1].SetSnapshotProvider(provide(honest))
	nodes[2].SetSnapshotProvider(provide(honest))
	nodes[3].SetSnapshotProvider(provide(forged)) // Byzantine: b=1

	if got, err := nodes[0].FetchVerifiedSnapshot(nil, 2, time.Second); err == nil {
		t.Fatalf("empty peer set produced %+v", got)
	}

	got, err := nodes[0].FetchVerifiedSnapshot(peerIDs(1, 2, 3), 2, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.State, honest.State) || got.LastInstance != honest.LastInstance {
		t.Fatalf("verified snapshot is not the honest one: %+v", got)
	}
}

// A forged snapshot backed by fewer than quorum peers fails entirely
// rather than installing junk.
func TestFetchVerifiedSnapshotQuorumFailure(t *testing.T) {
	nodes := startCluster(t, 4)
	nodes[1].SetSnapshotProvider(provide(&snapshot.Snapshot{LastInstance: 1, State: []byte("a")}))
	nodes[2].SetSnapshotProvider(provide(&snapshot.Snapshot{LastInstance: 2, State: []byte("b")}))
	nodes[3].SetSnapshotProvider(provide(&snapshot.Snapshot{LastInstance: 3, State: []byte("c")}))
	_, err := nodes[0].FetchVerifiedSnapshot(peerIDs(1, 2, 3), 2, 2*time.Second)
	if !errors.Is(err, ErrSnapshotQuorum) {
		t.Fatalf("err = %v, want ErrSnapshotQuorum", err)
	}
}

// Among multiple quorum-backed digests the newest watermark wins.
func TestFetchVerifiedSnapshotPrefersNewest(t *testing.T) {
	nodes := startCluster(t, 5)
	old := &snapshot.Snapshot{LastInstance: 4, LogIndex: 10, State: []byte("old")}
	newer := &snapshot.Snapshot{LastInstance: 8, LogIndex: 22, State: []byte("new")}
	nodes[1].SetSnapshotProvider(provide(old))
	nodes[2].SetSnapshotProvider(provide(old))
	nodes[3].SetSnapshotProvider(provide(newer))
	nodes[4].SetSnapshotProvider(provide(newer))
	got, err := nodes[0].FetchVerifiedSnapshot(peerIDs(1, 2, 3, 4), 2, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.LastInstance != newer.LastInstance {
		t.Fatalf("picked watermark %d, want %d", got.LastInstance, newer.LastInstance)
	}
}

func TestFetchDecision(t *testing.T) {
	nodes := startCluster(t, 2)
	nodes[1].RecordDecision(7, "decided-value")
	got, err := nodes[0].fetchDecision(1, 7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != "decided-value" {
		t.Fatalf("decision = %q", got)
	}
	if _, err := nodes[0].fetchDecision(1, 8, time.Second); !errors.Is(err, ErrNotCached) {
		t.Fatalf("uncached instance: err = %v, want ErrNotCached", err)
	}
}

func TestDecisionCacheEviction(t *testing.T) {
	nodes := startCluster(t, 2)
	nodes[1].cfg.DecisionCache = 4
	for i := uint64(1); i <= 10; i++ {
		nodes[1].RecordDecision(i, model.Value(fmt.Sprintf("v%d", i)))
	}
	if _, err := nodes[0].fetchDecision(1, 2, time.Second); !errors.Is(err, ErrNotCached) {
		t.Fatalf("evicted instance still served: %v", err)
	}
	if got, err := nodes[0].fetchDecision(1, 10, time.Second); err != nil || got != "v10" {
		t.Fatalf("recent instance: %q, %v", got, err)
	}
}

// A lying peer cannot feed a laggard a forged decision: b+1 matching
// values are required, and the honest majority outvotes it.
func TestFetchVerifiedDecisionOutvotesForgery(t *testing.T) {
	nodes := startCluster(t, 4)
	nodes[1].RecordDecision(3, "honest")
	nodes[2].RecordDecision(3, "honest")
	nodes[3].RecordDecision(3, "forged")
	got, err := nodes[0].FetchVerifiedDecision(peerIDs(1, 2, 3), 3, 2, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != "honest" {
		t.Fatalf("verified decision = %q", got)
	}
	// Without an honest quorum the fetch fails outright.
	nodes[1].RecordDecision(9, "a")
	nodes[2].RecordDecision(9, "b")
	nodes[3].RecordDecision(9, "c")
	if _, err := nodes[0].FetchVerifiedDecision(peerIDs(1, 2, 3), 9, 2, 2*time.Second); !errors.Is(err, ErrDecisionQuorum) {
		t.Fatalf("split votes: err = %v, want ErrDecisionQuorum", err)
	}
}

// A silent peer does not hold a decision fetch for its whole timeout: an
// instance has one decided value, so the fetch returns at the first value
// quorum peers match. Peer 3 accepts connections and never answers (a
// stopped peer on loopback refuses at once, which would not show it).
func TestFetchVerifiedDecisionIgnoresSilentPeer(t *testing.T) {
	nodes := startCluster(t, 4)
	nodes[1].RecordDecision(3, "honest")
	nodes[2].RecordDecision(3, "honest")
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			conn, err := silent.Accept()
			if err != nil {
				return
			}
			held = append(held, conn)
		}
	}()
	t.Cleanup(func() {
		_ = silent.Close()
		<-accepted
		for _, conn := range held {
			_ = conn.Close()
		}
	})
	peers := maps.Clone(nodes[0].cfg.Peers)
	peers[3] = silent.Addr().String()
	nodes[0].mu.Lock()
	nodes[0].cfg.Peers = peers
	nodes[0].mu.Unlock()

	start := time.Now()
	got, err := nodes[0].FetchVerifiedDecision(peerIDs(1, 2, 3), 3, 2, 2*time.Second)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if got != "honest" {
		t.Fatalf("verified decision = %q", got)
	}
	if took > 500*time.Millisecond {
		t.Fatalf("fetch took %v behind a silent peer, want under 500ms", took)
	}
}

// A peer that is down just doesn't vote; the survivors still reach quorum.
func TestFetchVerifiedSnapshotSurvivesDownPeer(t *testing.T) {
	nodes := startCluster(t, 4)
	honest := &snapshot.Snapshot{LastInstance: 5, LogIndex: 17, State: []byte("state")}
	nodes[1].SetSnapshotProvider(provide(honest))
	nodes[2].SetSnapshotProvider(provide(honest))
	if err := nodes[3].Close(); err != nil {
		t.Fatal(err)
	}
	got, err := nodes[0].FetchVerifiedSnapshot(peerIDs(1, 2, 3), 2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.LastInstance != honest.LastInstance {
		t.Fatalf("got watermark %d", got.LastInstance)
	}
}

// TestDecisionCacheByteBudget is the ROADMAP-flagged worst case: a burst of
// maximum-size decided batches must stay under the configured byte budget —
// the entry bound alone would admit ring × batch-bytes of memory — with the
// effective ring depth adapting to the decided values' size, and the newest
// decisions always fetchable.
func TestDecisionCacheByteBudget(t *testing.T) {
	nodes := startCluster(t, 2)
	const budget = 256 << 10 // 256 KiB, far below 1024 entries × 32 KiB
	nodes[1].cfg.DecisionCache = 1024
	nodes[1].cfg.DecisionCacheBytes = budget

	maxBatch := model.Value(bytes.Repeat([]byte{'x'}, 32<<10)) // MaxBatchBytes-sized value
	for i := uint64(1); i <= 1024; i++ {
		nodes[1].RecordDecision(i, maxBatch)
	}
	entries, used := nodes[1].DecisionCacheStats()
	if used > budget {
		t.Fatalf("ring holds %d bytes, budget %d", used, budget)
	}
	wantEntries := budget / (32 << 10)
	if entries > wantEntries {
		t.Fatalf("ring holds %d entries, want <= %d under the byte budget", entries, wantEntries)
	}
	// The newest decision survived the burst and is still served.
	if got, err := nodes[0].fetchDecision(1, 1024, time.Second); err != nil || got != maxBatch {
		t.Fatalf("newest decision: %q, %v", got[:8], err)
	}
	// The oldest was evicted by bytes long before the entry bound.
	if _, err := nodes[0].fetchDecision(1, 1, time.Second); !errors.Is(err, ErrNotCached) {
		t.Fatalf("oldest decision: err = %v, want ErrNotCached", err)
	}

	// Small decisions fill the ring to its entry bound instead: the depth
	// adapts to value size.
	nodes[1].cfg.DecisionCache = 64
	for i := uint64(2000); i < 2200; i++ {
		nodes[1].RecordDecision(i, "tiny")
	}
	if entries, used := nodes[1].DecisionCacheStats(); entries != 64 || used > budget {
		t.Fatalf("small-value ring: %d entries, %d bytes", entries, used)
	}
}

// TestDecisionCacheOversizedSingle: one decided value larger than the whole
// budget is still cached (the newest decision must always be available to
// laggards) but alone.
func TestDecisionCacheOversizedSingle(t *testing.T) {
	nodes := startCluster(t, 2)
	nodes[1].cfg.DecisionCacheBytes = 1024
	nodes[1].RecordDecision(1, "small")
	nodes[1].RecordDecision(2, model.Value(bytes.Repeat([]byte{'y'}, 4096)))
	entries, used := nodes[1].DecisionCacheStats()
	if entries != 1 || used != 4096 {
		t.Fatalf("ring: %d entries, %d bytes; want the oversized newcomer alone", entries, used)
	}
}

// A peer that answers a fetch by reflecting the request back is refused:
// the request's sequence is in the dialer's direction, so even though its
// tag verifies under the session key it never passes for a reply.
func TestFetchRefusesReflectedRequest(t *testing.T) {
	nodes := startCluster(t, 2)
	fakePeer(t, nodes[0], 1, func(conn net.Conn, macer *auth.SessionMACer, req []byte) {
		frame, err := sealSession(nil, macer, 1, req) // the request, byte for byte
		if err == nil {
			_, err = conn.Write(frame)
		}
		if err != nil {
			t.Errorf("reflector: %v", err)
		}
	})
	if _, err := nodes[0].fetchDecision(1, 7, time.Second); !errors.Is(err, errReflected) {
		t.Fatalf("reflected request: err = %v, want errReflected", err)
	}
}

// A fetch to a member keyed with a different AuthSeed fails at the
// handshake: the peer rejects the HELLO, and no request is ever served.
func TestFetchWrongAuthSeedFailsHandshake(t *testing.T) {
	reg := obs.NewRegistry()
	server, err := Listen(Config{ID: 1, N: 2, ListenAddr: "127.0.0.1:0", AuthSeed: 7, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := Listen(Config{ID: 0, N: 2, ListenAddr: "127.0.0.1:0", AuthSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetPeers(map[model.PID]string{0: client.Addr(), 1: server.Addr()})
	server.RecordDecision(1, "decided")
	if _, err := client.fetchDecision(1, 1, time.Second); !errors.Is(err, errBadHandshake) {
		t.Fatalf("err = %v, want a handshake failure", err)
	}
	if got := reg.CounterValue("transport.handshake.rejected"); got != 1 {
		t.Fatalf("handshake.rejected = %d, want 1", got)
	}
	if served := reg.CounterValue("transport.decision_ring.hits") + reg.CounterValue("transport.decision_ring.misses"); served != 0 {
		t.Fatalf("%d decision request(s) served to a member that never handshook", served)
	}
}

// A requester that asks for a snapshot and never reads the reply does not
// pin the serving read loop: the reply write has a deadline, the loop
// exits and the connection is released. (Over a pipe nothing is buffered,
// so the first reply frame is enough to block.)
func TestFetchReplyWriteDeadline(t *testing.T) {
	node, err := Listen(Config{ID: 0, N: 2, ListenAddr: "127.0.0.1:0", AuthSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	node.SetSnapshotProvider(provide(&snapshot.Snapshot{LastInstance: 3, LogIndex: 9, State: []byte("state")}))
	before := inboundCount(node)
	srv, cli := net.Pipe()
	defer cli.Close()
	if !node.serve(srv) {
		t.Fatal("node refused the connection")
	}
	key := handshakeAs(t, cli, node, 1)
	req := wire.AppendSnap(nil, wire.SnapEnvelope{Kind: wire.SnapRequest, Sender: 1})
	if err := sendFrame(cli, sessionPayload(key, 1, req)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * linkTimeout)
	for inboundCount(node) != before {
		if time.Now().After(deadline) {
			t.Fatalf("read loop still pinned %v after a requester stopped reading", 3*linkTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func inboundCount(n *Node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.inbound)
}

// A snapshot transfer whose chunks do not belong together — a second chunk
// from another snapshot, or bytes that do not hash to the announced digest
// — is rejected, never installed.
func TestFetchSnapshotRejectsMixedChunks(t *testing.T) {
	a := snapshot.AppendSnapshot(nil, &snapshot.Snapshot{LastInstance: 4, LogIndex: 8, State: []byte("state a")})
	b := snapshot.AppendSnapshot(nil, &snapshot.Snapshot{LastInstance: 4, LogIndex: 8, State: []byte("state b")})
	sumA, sumB := sha256.Sum256(a), sha256.Sum256(b)
	chunk := func(data []byte, sum [32]byte, i int) []byte {
		half := len(data) / 2
		return wire.AppendSnap(nil, wire.SnapEnvelope{
			Kind: wire.SnapChunk, Sender: 1, LastInstance: 4, LogIndex: 8,
			Digest: sum[:], ChunkIndex: uint32(i), ChunkCount: 2,
			Data: [][]byte{data[:half], data[half:]}[i],
		})
	}
	for name, replies := range map[string][][]byte{
		"mixed":  {chunk(a, sumA, 0), chunk(b, sumB, 1)},
		"forged": {chunk(a, sumA, 0), chunk(b, sumA, 1)},
	} {
		nodes := startCluster(t, 2)
		fakePeer(t, nodes[0], 1, func(conn net.Conn, macer *auth.SessionMACer, _ []byte) {
			for i, r := range replies {
				replyAs(t, conn, macer, uint64(i+1), r)
			}
		})
		_, _, err := nodes[0].FetchSnapshot(1, time.Second)
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("%s transfer: err = %v, want ErrBadSnapshot", name, err)
		}
	}
}
