package transport

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/model"
	"genconsensus/internal/wire"
)

func TestListenValidation(t *testing.T) {
	if _, err := Listen(Config{N: 0}); err == nil {
		t.Error("zero cluster size accepted")
	}
	if _, err := Listen(Config{N: 3, ListenAddr: "256.0.0.1:0"}); err == nil {
		t.Error("unbindable address accepted")
	}
}

func TestListenDefaults(t *testing.T) {
	node, err := Listen(Config{ID: 0, N: 2, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if node.cfg.BaseTimeout == 0 {
		t.Error("defaults not applied")
	}
	if node.ID() != 0 {
		t.Errorf("ID = %d", node.ID())
	}
	if node.Addr() == "" {
		t.Error("Addr empty")
	}
}

// Peers address from the Peers map when ListenAddr is empty.
func TestListenPeerAddr(t *testing.T) {
	node, err := Listen(Config{
		ID: 1, N: 2,
		Peers: map[model.PID]string{1: "127.0.0.1:0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
}

// Garbage on an inbound connection costs that connection and nothing
// else: the node hangs up on it, and a fresh connection still handshakes
// and delivers.
func TestReadLoopSurvivesGarbage(t *testing.T) {
	nodes := startCluster(t, 2)
	garbled := dialNode(t, nodes[0])
	// Garbage payload inside a valid frame.
	if err := sendFrame(garbled, []byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, garbled)
	// Then a valid, authenticated envelope.
	conn := dialNode(t, nodes[0])
	key := handshakeAs(t, conn, nodes[0], 1)
	if err := sendFrame(conn, sessionFrame(key, 1, sessionEnv(9))); err != nil {
		t.Fatal(err)
	}
	waitDelivered(t, nodes[0], 9)
}

// Sends to unreachable peers are swallowed (indistinguishable from slowness
// in the partially synchronous model) and do not wedge the node.
func TestSendToUnreachablePeer(t *testing.T) {
	node, err := Listen(Config{
		ID: 0, N: 2,
		Peers:       map[model.PID]string{0: "", 1: "127.0.0.1:1"}, // port 1: refused
		ListenAddr:  "127.0.0.1:0",
		AuthSeed:    1,
		BaseTimeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	env := wire.Envelope{Round: 1, Sender: 0, Msg: model.Message{Vote: "v"}}
	node.send(1, env) // must not panic or block
	// Self-send still delivers.
	node.send(0, env)
	if !node.HasInstance(0) {
		t.Error("self-send not delivered")
	}
}

// Sends after Close are dropped cleanly.
func TestSendAfterClose(t *testing.T) {
	nodes := startCluster(t, 2)
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	env := wire.Envelope{Round: 1, Sender: 0, Msg: model.Message{Vote: "v"}}
	nodes[0].send(1, env)
	nodes[0].send(0, env)
	nodes[0].deliverLocal(env)
}

// withGroup sets the reserved group slot (bytes 2-3) of an encoded
// payload-plane frame, which AppendPayload always writes as zero.
func withGroup(payload []byte, g uint16) []byte {
	binary.BigEndian.PutUint16(payload[2:4], g)
	return payload
}

// Traffic that names a consensus group other than 0 — an instance id with
// high bits set, a nonzero payload group, a nonzero snapshot-request
// instance — is refused before any state is allocated: no receive buffer,
// no pinned payload, no move of the observed-instance high. The envelope
// falls outside the instance window and is dropped with the link kept; the
// payload-plane and snapshot frames are malformed and cost the link.
func TestForeignGroupTrafficRefused(t *testing.T) {
	key := auth.MACKey{1}
	sum := sha256.Sum256([]byte("body"))
	cases := []struct {
		name    string
		handle  func(n *Node, c *inConn) error
		wantErr error
	}{
		{"envelope", func(n *Node, c *inConn) error {
			return n.handleSessionFrame(c, sessionFrame(key, 1, sessionEnv(1<<48|1)))
		}, nil},
		{"announce", func(n *Node, c *inConn) error {
			return n.handleAnnounce(c, withGroup(wire.AppendPayload(nil, wire.Payload{
				Kind: wire.PayloadAnnounce, Sender: 1, Instance: 1, Digest: sum, Data: []byte("body"),
			}), 1))
		}, errMalformed},
		{"fetch", func(n *Node, c *inConn) error {
			return n.handleSessionFrame(c, sessionPayload(key, 1, withGroup(wire.AppendPayload(nil, wire.Payload{
				Kind: wire.PayloadFetch, Sender: 1, Instance: 1, Digest: sum,
			}), 1)))
		}, errMalformed},
		{"snap request", func(n *Node, c *inConn) error {
			return n.handleSessionFrame(c, sessionPayload(key, 1, wire.AppendSnap(nil, wire.SnapEnvelope{
				Kind: wire.SnapRequest, Sender: 1, LastInstance: 1 << 48,
			})))
		}, errMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := Listen(Config{ID: 0, N: 2, ListenAddr: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			c := &inConn{peer: 1, macer: auth.NewSessionMACer(key)}
			if err := tc.handle(n, c); !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if got := n.InstanceCount(); got != 0 {
				t.Errorf("%d instance buffers allocated", got)
			}
			if bytes, entries := n.PayloadStoreStats(); bytes != 0 || entries != 0 {
				t.Errorf("%d bytes in %d entries pinned", bytes, entries)
			}
			if got := n.InstanceHigh(); got != 0 {
				t.Errorf("InstanceHigh = %d, want 0", got)
			}
		})
	}
}
