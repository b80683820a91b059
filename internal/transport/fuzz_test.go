package transport

import (
	"encoding/binary"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/model"
	"genconsensus/internal/obs"
	"genconsensus/internal/wire"
)

// FuzzPreHandshake feeds arbitrary bytes as the opening stream of an
// accepted connection (a pipe straight into the read loop) and holds the
// acceptor to the HELLO-first rule. Whatever arrives, the connection
// closes once the stream ends, at most one HELLO MAC is verified, and
// nothing is written back but a HELLO-ACK to a valid HELLO. Unless the
// stream opens with that valid HELLO, nothing reaches node state either:
// no instance buffer, no payload pin, no decision-ring read. (Behind a
// valid HELLO the dialer is an authenticated member, whose announces may
// pin bodies; that surface has its own tests.)
func FuzzPreHandshake(f *testing.F) {
	const seed = 42
	opening := preHandshakeFrames(seed)
	frame := func(payload []byte) []byte {
		framed, err := wire.FinishFrame(append(wire.BeginFrame(nil), payload...))
		if err != nil {
			f.Fatal(err)
		}
		return framed
	}
	f.Add(frame(validHello(seed, 1)))
	f.Add(frame(opening["sealed request"]))
	f.Add(frame(opening["session frame"]))
	f.Add(frame(opening["announce"]))
	// A valid HELLO behind a refused first frame must go unanswered.
	f.Add(append(frame(opening["forged hello"]), frame(validHello(seed, 1))...))

	var macs atomic.Int64
	restore := checkHelloMAC
	checkHelloMAC = func(pair auth.MACKey, dialer model.PID, nonce, tag []byte) bool {
		macs.Add(1)
		return restore(pair, dialer, nonce, tag)
	}
	f.Cleanup(func() { checkHelloMAC = restore })

	f.Fuzz(func(t *testing.T, stream []byte) {
		reg := obs.NewRegistry()
		node, err := Listen(Config{ID: 0, N: 2, ListenAddr: "127.0.0.1:0", AuthSeed: seed, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		node.RecordDecision(1, "decided") // something a stray read could find
		macs.Store(0)

		srv, cli := net.Pipe()
		defer cli.Close()
		if !node.serve(srv) {
			t.Fatal("node refused the connection")
		}
		// Room for more frames than the one HELLO-ACK a connection may get,
		// so the reader never blocks on a reply the test then reports.
		replies := make(chan []byte, 4)
		go func() {
			defer close(replies)
			for {
				payload, err := wire.ReadFrame(cli)
				if err != nil {
					return
				}
				replies <- payload
			}
		}()
		_, _ = cli.Write(stream) // fails once the node has hung up
		opensWithHello := validFirstHello(stream, seed)
		if opensWithHello {
			select {
			case payload := <-replies:
				if ack, err := wire.DecodeHello(payload); err != nil || ack.Kind != wire.HelloKindAck {
					t.Fatalf("valid HELLO answered with %x", payload)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("valid HELLO got no HELLO-ACK")
			}
		}
		_ = cli.Close()
		for deadline := time.Now().Add(2 * time.Second); inboundCount(node) != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("connection still open after its stream ended")
			}
		}
		for payload := range replies {
			t.Fatalf("node wrote back %x", payload)
		}
		if got := macs.Load(); got > 1 {
			t.Fatalf("%d HELLO MACs verified on one connection", got)
		}
		if opensWithHello {
			return
		}
		if got := node.InstanceCount(); got != 0 {
			t.Fatalf("%d instance buffer(s) created before a handshake", got)
		}
		if _, entries := node.PayloadStoreStats(); entries != 0 {
			t.Fatalf("%d payload(s) pinned before a handshake", entries)
		}
		for _, name := range []string{
			"transport.decision_ring.hits", "transport.decision_ring.misses",
			"g0.transport.payload_fetch_served", "g0.transport.payload_fetch_unknown",
			"transport.handshake.accepted",
		} {
			if got := reg.CounterValue(name); got != 0 {
				t.Fatalf("%s = %d before a handshake", name, got)
			}
		}
	})
}

// validFirstHello reports whether stream opens with a HELLO from member 1
// that member 0 of a cluster keyed by seed accepts.
func validFirstHello(stream []byte, seed int64) bool {
	if len(stream) < wire.FrameHeaderSize+wire.HelloFrameSize ||
		binary.BigEndian.Uint32(stream) != wire.HelloFrameSize {
		return false
	}
	h, err := wire.DecodeHello(stream[wire.FrameHeaderSize : wire.FrameHeaderSize+wire.HelloFrameSize])
	return err == nil && h.Kind == wire.HelloKindInit && h.Sender == 1 &&
		auth.CheckHelloMAC(auth.PairKey(seed, 0, 1), 1, h.Nonce[:], h.MAC[:])
}
