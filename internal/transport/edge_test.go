package transport

import (
	"testing"
	"time"

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
	if node.cfg.BaseTimeout == 0 || node.cfg.TimeoutGrowth == 0 {
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

// Malformed frames on an inbound connection are dropped without killing the
// connection; a subsequent handshake and session frame still arrive.
func TestReadLoopSurvivesGarbage(t *testing.T) {
	nodes := startCluster(t, 2)
	conn := dialNode(t, nodes[0])
	// Garbage payload inside a valid frame.
	if err := sendFrame(conn, []byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	// Then a valid, authenticated envelope.
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
