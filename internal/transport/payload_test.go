package transport

// The payload plane's lifetime rule (pinned while an unreleased instance
// can reference it, dropped on release, one sender never evicts another)
// and its hostile-digest corpus: forged announces, forged fetch replies,
// oversized frames, unresolvable-digest floods and eviction under the
// per-sender cap. The invariants under attack: no sender pins more than
// its cap, the store never keeps bytes that don't hash to their claimed
// digest, bounds the state a flood of junk digests can pin, and the fetch
// worker always terminates (strike accounting) instead of retrying hostile
// references forever.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/model"
	"genconsensus/internal/obs"
	"genconsensus/internal/wire"
)

func payloadBody(s string) ([sha256.Size]byte, model.Value) {
	return sha256.Sum256([]byte(s)), model.Value(s)
}

// waitResolved polls until the node's store resolves sum.
func waitResolved(t *testing.T, n *Node, sum [sha256.Size]byte, want model.Value) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if val, ok := n.store.get(sum); ok {
			if val != want {
				t.Fatalf("resolved %q, want %q", val, want)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("digest %x never resolved", sum[:8])
}

// An announce lands in the local store and is pushed to every peer, and a
// release of its instance drops it everywhere.
func TestPayloadAnnounceDelivers(t *testing.T) {
	nodes := startCluster(t, 3)
	sum, val := payloadBody("announced once, voted by digest")
	nodes[1].AnnouncePayload(1, sum, val)
	for i, n := range nodes {
		waitResolved(t, n, sum, val)
		if got, ok := n.ResolvePayload(1, sum); !ok || got != val {
			t.Fatalf("node %d: ResolvePayload miss after announce", i)
		}
		n.ReleaseInstance(1)
		if _, entries := n.PayloadStoreStats(); entries != 0 {
			t.Fatalf("node %d: %d entries survive the release of their instance", i, entries)
		}
	}
	// Released is refused: a late announce must not resurrect the entry.
	nodes[1].AnnouncePayload(1, sum, val)
	if _, ok := nodes[1].store.get(sum); ok {
		t.Fatal("announce for a released instance was stored")
	}
}

// Announces naming an instance beyond the release window are refused,
// exactly as deliverLocal refuses far-future envelopes; a frame whose
// reserved group field is set closes the link.
func TestPayloadAnnounceWindow(t *testing.T) {
	nodes := startCluster(t, 2)
	far := uint64(windowInstances) + 1
	sum, val := payloadBody("from the far future")
	nodes[1].AnnouncePayload(far, sum, val) // sender pins its own; the receiver must not
	edgeSum, edge := payloadBody("last instance inside the window")
	nodes[1].AnnouncePayload(far-1, edgeSum, edge)
	waitResolved(t, nodes[0], edgeSum, edge) // same link, FIFO: far was handled first
	if _, ok := nodes[0].store.get(sum); ok {
		t.Fatal("far-future announce stored")
	}
	conn := dialNode(t, nodes[0])
	handshakeAs(t, conn, nodes[0], 1)
	groupedSum, grouped := payloadBody("reserved group slot set")
	frame := withGroup(wire.AppendPayloadValue(nil, wire.Payload{
		Kind: wire.PayloadAnnounce, Sender: 1, Instance: 1, Digest: groupedSum,
	}, grouped), 1)
	if err := sendFrame(conn, frame); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, conn)
}

// Pinned under pressure: one peer flooding past its cap evicts its own
// oldest pins and nothing else — the payload of an instance in flight,
// announced by another member, still resolves — and releasing returns the
// store and the instance map to zero.
func TestPayloadPinnedUnderPressure(t *testing.T) {
	nodes := startCluster(t, 3)
	victim := nodes[0]
	// Instance 1 is in flight at the victim: a buffered frame and peer 1's
	// proposal for it.
	nodes[1].send(0, wire.Envelope{Instance: 1, Round: 1, Sender: 1, Msg: model.Message{Vote: "v"}})
	inflightSum, inflight := payloadBody("the in-flight instance's batch")
	nodes[1].AnnouncePayload(1, inflightSum, inflight)
	waitResolved(t, victim, inflightSum, inflight)

	// Peer 2 floods: maximum-size bodies for instances across the window,
	// twice its cap's worth.
	body := bytes.Repeat([]byte("f"), wire.MaxPayloadDataBytes-8)
	flood := 2 * payloadSenderCap / len(body)
	var sums [][sha256.Size]byte
	for i := 0; i < flood; i++ {
		val := model.Value(fmt.Sprintf("%08d", i)) + model.Value(body)
		sum := sha256.Sum256([]byte(val))
		sums = append(sums, sum)
		nodes[2].AnnouncePayload(uint64(2+i), sum, val)
	}
	waitResolved(t, victim, sums[flood-1], model.Value(fmt.Sprintf("%08d", flood-1))+model.Value(body))

	if got, ok := victim.ResolvePayload(1, inflightSum); !ok || got != inflight {
		t.Fatal("a flood from peer 2 evicted peer 1's in-flight payload")
	}
	if _, ok := victim.store.get(sums[0]); ok {
		t.Fatal("the flooder's oldest pin survived its own flood")
	}
	victim.store.mu.Lock()
	pinned := victim.store.accounts[2].bytes
	victim.store.mu.Unlock()
	if pinned > payloadSenderCap {
		t.Fatalf("peer 2 pins %d bytes, cap %d", pinned, payloadSenderCap)
	}

	victim.ReleaseInstance(uint64(1 + flood))
	if held, entries := victim.PayloadStoreStats(); held != 0 || entries != 0 {
		t.Fatalf("after release: %d bytes, %d entries", held, entries)
	}
	if got := victim.InstanceCount(); got != 0 {
		t.Fatalf("InstanceCount after release = %d", got)
	}
}

// A resolve miss registers a want and the fetch worker pulls the payload
// from a peer that holds it — the pull-on-miss path for a lost announce.
func TestPayloadMissPullsFromPeer(t *testing.T) {
	nodes := startCluster(t, 2)
	sum, val := payloadBody("held by peer 1 only")
	nodes[1].store.put(1, 1, sum, val)
	if _, ok := nodes[0].ResolvePayload(1, sum); ok {
		t.Fatal("resolved before any dissemination")
	}
	waitResolved(t, nodes[0], sum, val)
}

// fetchPayload pulls by digest over a dedicated connection; a digest the
// peer doesn't hold answers PayloadFetchNone, which is an error to the
// requester but costs it nothing (honest laggards ask for proposals that
// lost). Once the peer has
// released the instance the store no longer holds the body, and the fetch
// is served from the decision ring if that is what the instance decided.
func TestPayloadFetchDirect(t *testing.T) {
	nodes := startCluster(t, 2)
	sum, val := payloadBody("direct pull")
	nodes[1].store.put(1, 1, sum, val)
	got, err := nodes[0].fetchPayload(1, 1, sum, time.Second)
	if err != nil || got != val {
		t.Fatalf("fetchPayload = %q, %v", got, err)
	}
	missing := sha256.Sum256([]byte("never announced"))
	if _, err := nodes[0].fetchPayload(1, 1, missing, time.Second); err == nil {
		t.Fatal("fetch of unknown digest succeeded")
	}
	nodes[1].RecordDecision(1, val)
	nodes[1].ReleaseInstance(1)
	if _, ok := nodes[1].store.get(sum); ok {
		t.Fatal("release left the body in the store")
	}
	if got, err := nodes[0].fetchPayload(1, 1, sum, time.Second); err != nil || got != val {
		t.Fatalf("fetchPayload after release = %q, %v: want the decision ring's body", got, err)
	}
	if _, err := nodes[0].fetchPayload(1, 1, missing, time.Second); err == nil {
		t.Fatal("ring fallback served a digest the instance did not decide")
	}
}

// AwaitOwner answers with the first announce of the instance's owner —
// not another member's, not the owner's second — and, failing an
// announce, with the owner's round-1 vote; it wakes on arrival, and a
// released instance has no owner left to wait for.
func TestPayloadAwaitOwner(t *testing.T) {
	nodes := startCluster(t, 3) // owners: instance 1 -> 1, 2 -> 2
	otherSum, other := payloadBody("a non-owner's batch for instance 1")
	nodes[2].AnnouncePayload(1, otherSum, other)
	waitResolved(t, nodes[0], otherSum, other)
	if p, ok := nodes[0].AwaitOwner(1, 10*time.Millisecond); ok {
		t.Fatalf("a non-owner's announce was taken for the owner's: %+v", p)
	}

	sum, val := payloadBody("the owner's batch for instance 1")
	go func() {
		time.Sleep(time.Millisecond)
		nodes[1].AnnouncePayload(1, sum, val)
	}()
	start := time.Now()
	p, ok := nodes[0].AwaitOwner(1, 2*time.Second)
	if !ok || p.Sum != sum || p.Body != val {
		t.Fatalf("AwaitOwner = %+v, %v; want the owner's announce", p, ok)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("woke after %v: by the timeout, not the arrival", took)
	}
	secondSum, second := payloadBody("the owner's equivocating second batch")
	nodes[1].AnnouncePayload(1, secondSum, second)
	waitResolved(t, nodes[0], secondSum, second)
	if p, _ := nodes[0].AwaitOwner(1, time.Millisecond); p.Sum != sum {
		t.Fatal("a second announce replaced the owner's first")
	}

	vote := model.Value("the owner's round-1 vote")
	nodes[2].send(0, wire.Envelope{Instance: 2, Round: 1, Sender: 2,
		Msg: model.Message{Kind: model.ValidationRound, Vote: vote}})
	if p, ok := nodes[0].AwaitOwner(2, 2*time.Second); !ok || p.Vote != vote || p.Body != model.NoValue {
		t.Fatalf("AwaitOwner = %+v, %v; want the owner's vote alone", p, ok)
	}

	nodes[0].ReleaseInstance(1)
	if _, ok := nodes[0].AwaitOwner(1, 2*time.Second); ok {
		t.Fatal("AwaitOwner answered for a released instance")
	}
	nodes[0].store.mu.Lock()
	owned := len(nodes[0].store.owned)
	nodes[0].store.mu.Unlock()
	if owned != 0 {
		t.Fatalf("%d owner announces survive the release of their instance", owned)
	}
}

// A decided digest whose payload is still on its way is delivered by its
// arrival, not by a poll: AwaitPayload returns as soon as the body lands.
func TestPayloadAwaitWakesOnArrival(t *testing.T) {
	nodes := startCluster(t, 2)
	sum, val := payloadBody("arrives a moment after the decision")
	go func() {
		time.Sleep(time.Millisecond)
		nodes[1].AnnouncePayload(1, sum, val)
	}()
	start := time.Now()
	got, ok := nodes[0].AwaitPayload(1, sum, 2*time.Second)
	if !ok || got != val {
		t.Fatalf("AwaitPayload = %q, %v", got, ok)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("woke after %v: by the timeout, not the arrival", took)
	}
	// Giving up leaves nothing behind.
	never := sha256.Sum256([]byte("never arrives"))
	if _, ok := nodes[0].AwaitPayload(1, never, time.Millisecond); ok {
		t.Fatal("resolved a digest of nothing")
	}
	nodes[0].store.mu.Lock()
	waiting := len(nodes[0].store.waiting)
	nodes[0].store.mu.Unlock()
	if waiting != 0 {
		t.Fatalf("%d abandoned waiters left in the store", waiting)
	}
}

// A forged announce — body that doesn't hash to the claimed digest —
// never enters the store and drops the connection.
func TestPayloadForgedAnnounceStrikes(t *testing.T) {
	nodes := startCluster(t, 2)
	conn := dialNode(t, nodes[0])
	handshakeAs(t, conn, nodes[0], 1)
	sum, _ := payloadBody("the real body")
	forged := wire.AppendPayload(nil, wire.Payload{
		Kind: wire.PayloadAnnounce, Sender: 1, Instance: 1,
		Digest: sum, Data: []byte("not the real body"),
	})
	if err := sendFrame(conn, forged); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, conn)
	if _, ok := nodes[0].store.get(sum); ok {
		t.Fatal("forged body entered the store")
	}
}

// An oversized payload frame is malformed on arrival: never stored, and
// the connection dropped.
func TestPayloadOversizedFrameStrikes(t *testing.T) {
	nodes := startCluster(t, 2)
	conn := dialNode(t, nodes[0])
	handshakeAs(t, conn, nodes[0], 1)
	data := bytes.Repeat([]byte("x"), wire.MaxPayloadDataBytes+1)
	frame := wire.AppendPayload(nil, wire.Payload{
		Kind: wire.PayloadAnnounce, Sender: 1, Instance: 1,
		Digest: sha256.Sum256(data), Data: data,
	})
	if err := sendFrame(conn, frame); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, conn)
	if bytesHeld, entries := nodes[0].PayloadStoreStats(); entries != 0 || bytesHeld != 0 {
		t.Fatalf("oversized payload stored: %d bytes, %d entries", bytesHeld, entries)
	}
}

// A fetch request travels only inside a session frame: a bare one on a
// handshaken link drops the connection.
func TestPayloadFetchOnSessionLinkDropsConn(t *testing.T) {
	nodes := startCluster(t, 2)
	conn := dialNode(t, nodes[0])
	handshakeAs(t, conn, nodes[0], 1)
	sum, _ := payloadBody("whatever")
	req := wire.AppendPayload(nil, wire.Payload{Kind: wire.PayloadFetch, Sender: 1, Digest: sum})
	if err := sendFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, conn)
}

// A peer answering a fetch with a body that doesn't hash to the requested
// digest is caught by the content check: the reply is rejected and
// counted, never trusted.
func TestPayloadForgedFetchReply(t *testing.T) {
	reg := obs.NewRegistry()
	requester, err := Listen(Config{ID: 0, N: 2, ListenAddr: "127.0.0.1:0", AuthSeed: 42, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer requester.Close()
	sum, _ := payloadBody("the honest payload")
	fakePeer(t, requester, 1, func(conn net.Conn, macer *auth.SessionMACer, req []byte) {
		p, err := wire.DecodePayload(req)
		if err != nil {
			t.Errorf("forger: %v", err)
			return
		}
		replyAs(t, conn, macer, 1, wire.AppendPayload(nil, wire.Payload{
			Kind: wire.PayloadFetchReply, Sender: 1,
			Instance: p.Instance, Digest: p.Digest, Data: []byte("poison"),
		}))
	})
	if _, err := requester.fetchPayload(1, 1, sum, time.Second); !errors.Is(err, ErrPayloadForged) {
		t.Fatalf("forged fetch reply: err = %v, want ErrPayloadForged", err)
	}
	if got := reg.CounterValue("g0.transport.payload_forged"); got != 1 {
		t.Fatalf("payload_forged = %d, want 1", got)
	}
	if _, ok := requester.store.get(sum); ok {
		t.Fatal("forged body entered the store")
	}
}

// No sender pins more than its cap: eviction is that sender's oldest
// first, the newest pin always survives, another sender's pins and this
// node's own are never touched, and a body two senders pinned outlives the
// eviction of either pin.
func TestPayloadStoreEvictionUnderBudget(t *testing.T) {
	s := newPayloadStore(0, 3)
	body := model.Value(bytes.Repeat([]byte("e"), 60<<10))
	sharedSum, shared := payloadBody("proposed by peers 1 and 2 alike")
	s.put(1, 1, sharedSum, shared)
	s.put(1, 2, sharedSum, shared)
	var sums [][sha256.Size]byte
	for i := 0; i < 40; i++ {
		val := model.Value(fmt.Sprintf("%02d", i)) + body
		sum := sha256.Sum256([]byte(val))
		sums = append(sums, sum)
		s.put(uint64(2+i), 1, sum, val) // peer 1 floods
		s.put(uint64(2+i), 0, sum, val) // and this node proposes as much itself
		if got := s.accounts[1].bytes; got > payloadSenderCap {
			t.Fatalf("peer 1 pins %d bytes, cap %d", got, payloadSenderCap)
		}
	}
	if got := len(s.accounts[1].fifo); got >= 40 {
		t.Fatalf("no eviction: peer 1 holds %d pins", got)
	}
	if got := len(s.accounts[0].fifo); got != 40 {
		t.Fatalf("this node's own pins were capped: %d of 40 left", got)
	}
	if _, ok := s.get(sharedSum); !ok {
		t.Fatal("peer 1's eviction dropped a body peer 2 still pins")
	}
	if _, ok := s.get(sums[len(sums)-1]); !ok {
		t.Fatal("newest entry evicted")
	}
	s.release(41)
	if held, entries := s.stats(); held != 0 || entries != 0 {
		t.Fatalf("after release: %d bytes, %d entries", held, entries)
	}
	for p := range s.accounts {
		if a := s.accounts[p]; a.bytes != 0 || len(a.fifo) != 0 {
			t.Fatalf("sender %d still charged %d bytes, %d pins after release", p, a.bytes, len(a.fifo))
		}
	}
}

// The hot path of every instance — pin the announced body, resolve it for
// each vote that names it, release it on commit — shares one value:
// resolving allocates nothing.
func TestPayloadResolveAllocatesNothing(t *testing.T) {
	s := newPayloadStore(0, 4)
	val := model.Value(bytes.Repeat([]byte("b"), 10<<10))
	sum := sha256.Sum256([]byte(val))
	s.put(1, 1, sum, val)
	var got model.Value
	if allocs := testing.AllocsPerRun(100, func() { got, _ = s.get(sum) }); allocs != 0 {
		t.Fatalf("resolve allocates %.0f times per call", allocs)
	}
	if got != val {
		t.Fatal("resolved a different value")
	}
	// The whole cycle costs the entry and its pin, never a copy of the body.
	instance := uint64(1)
	cycle := testing.AllocsPerRun(100, func() {
		instance++
		s.put(instance, 1, sum, val)
		got, _ = s.get(sum)
		s.release(instance)
	})
	if cycle > 2 {
		t.Fatalf("put, resolve, release allocates %.0f times per instance", cycle)
	}
}

// A flood of unresolvable digests pins only bounded state: the want queue
// caps out, every fetch round fails fast, and each digest is abandoned
// (banned) after its try budget — re-resolving a banned digest registers
// nothing.
func TestPayloadHostileDigestFloodBounded(t *testing.T) {
	nodes := startCluster(t, 2)
	n := nodes[0]
	hostile := sha256.Sum256([]byte("digest of nothing"))
	if _, ok := n.ResolvePayload(1, hostile); ok {
		t.Fatal("resolved a digest of nothing")
	}
	// The fetch worker must give up on it: tries exhausted, digest banned.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n.store.mu.Lock()
		banned := n.store.strikes[hostile]
		n.store.mu.Unlock()
		if banned {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hostile digest never abandoned")
		}
		// Keep demand up, as the chooser would on every weigh.
		n.ResolvePayload(1, hostile)
		time.Sleep(5 * time.Millisecond)
	}
	if n.store.want(1, hostile) {
		t.Fatal("banned digest re-registered a want")
	}
	// Flood: the want queue must stay bounded no matter how many junk
	// digests arrive.
	for i := 0; i < payloadMaxWants+200; i++ {
		junk := sha256.Sum256([]byte(fmt.Sprintf("junk-%d", i)))
		n.ResolvePayload(1, junk)
	}
	n.store.mu.Lock()
	wants := len(n.store.wants)
	n.store.mu.Unlock()
	if wants > payloadMaxWants {
		t.Fatalf("want queue unbounded: %d > %d", wants, payloadMaxWants)
	}
}

// BenchmarkPayloadAnnounceResolve is the payload plane's per-instance cost
// at bench/'s batch size: announce a 10 KB body to a loopback peer, resolve
// it on the receiver, release the instance on both ends.
func BenchmarkPayloadAnnounceResolve(b *testing.B) {
	nodes := make([]*Node, 2)
	peers := map[model.PID]string{}
	for i := range nodes {
		n, err := Listen(Config{ID: model.PID(i), N: 2, ListenAddr: "127.0.0.1:0", AuthSeed: 42})
		if err != nil {
			b.Fatal(err)
		}
		defer n.Close()
		nodes[i] = n
		peers[model.PID(i)] = n.Addr()
	}
	for _, n := range nodes {
		n.SetPeers(peers)
	}
	body := bytes.Repeat([]byte("p"), 10<<10)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		instance := uint64(i)
		binary.BigEndian.PutUint64(body, instance) // a fresh digest per instance
		val := model.Value(body)
		sum := sha256.Sum256(body)
		nodes[0].AnnouncePayload(instance, sum, val)
		// Wait on the arrival alone: a resolve before it would arm a fetch,
		// which in a running cluster the announce's head start makes rare.
		if _, arrived := nodes[1].store.arrival(sum); arrived != nil {
			select {
			case <-arrived:
			case <-time.After(5 * time.Second):
				b.Fatalf("instance %d: announce never arrived", instance)
			}
		}
		if got, ok := nodes[1].ResolvePayload(instance, sum); !ok || len(got) != len(val) {
			b.Fatalf("instance %d did not resolve on the receiver", instance)
		}
		nodes[0].ReleaseInstance(instance)
		nodes[1].ReleaseInstance(instance)
	}
}
