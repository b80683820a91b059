package main

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/node"
)

// A write is confirmed by b+1 replicas, not by whichever endpoint is
// listed first: a forging first endpoint that answers every read with the
// value the client hopes for cannot make an uncommitted write look
// applied, and cannot keep a committed one from being confirmed.
func TestConfirmNeedsCertificate(t *testing.T) {
	const n = 4
	nodes := make([]*node.Node, n)
	peers := make(map[model.PID]string, n)
	for i := range nodes {
		nd, err := node.New(node.Config{
			ID: model.PID(i), N: n, B: 1,
			ListenAddr:  "127.0.0.1:0",
			ClientAddr:  "127.0.0.1:0",
			AuthSeed:    42,
			BaseTimeout: 40 * time.Millisecond,
		}, kv.NewStore())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Stop)
		nodes[i] = nd
		peers[model.PID(i)] = nd.Addr()
	}
	for _, nd := range nodes {
		nd.SetPeers(peers)
	}
	for _, nd := range nodes {
		nd.Start()
	}

	// The forger queues nothing and vouches for everything: "v" is the
	// value of any key, by GET and by a READ stamped above every honest
	// instance.
	forger, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { forger.Close() })
	go func() {
		for {
			conn, err := forger.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				sc := bufio.NewScanner(conn)
				for sc.Scan() {
					switch strings.Fields(sc.Text())[0] {
					case "READ":
						fmt.Fprintln(conn, "VAL 0 999999 v")
					case "GET":
						fmt.Fprintln(conn, "v")
					default:
						fmt.Fprintln(conn, "QUEUED")
					}
				}
			}(conn)
		}
	}()
	addrs := []string{forger.Addr().String()}
	for _, nd := range nodes {
		addrs = append(addrs, nd.ClientAddr())
	}

	if confirm(addrs, "never-written", "v", 2, 300*time.Millisecond) {
		t.Fatal("forging first endpoint confirmed a write nobody submitted")
	}
	if err := sessionBroadcast(addrs, auth.ClientKey(42, 0), 0, 1, []writeOp{{"SET", "k", "v"}}); err != nil {
		t.Fatal(err)
	}
	if !confirm(addrs, "k", "v", 2, 15*time.Second) {
		t.Fatal("committed write never confirmed")
	}
}

// A replica that refuses a write because another payload holds its
// (client, seq) makes sessionBroadcast fail with a message naming the
// clash and the remedy, not the generic "no replica accepted". The fake
// replica completes a real handshake and then refuses every write.
func TestSessionBroadcastNamesClash(t *testing.T) {
	const client = 3
	ckey := auth.ClientKey(42, client)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sc := bufio.NewScanner(conn)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if f[0] != "SHELLO" {
				fmt.Fprintln(conn, "ERR duplicate identity")
				continue
			}
			nonce, _ := hex.DecodeString(f[2])
			var serverNonce [auth.SessionNonceSize]byte
			rand.Read(serverNonce[:])
			fmt.Fprintf(conn, "SESSION %x %x\n", serverNonce, auth.ClientHelloAckMAC(ckey, client, nonce, serverNonce[:]))
		}
	}()

	err = sessionBroadcast([]string{ln.Addr().String()}, ckey, client, 7, []writeOp{{"SET", "k", "v"}})
	if err == nil {
		t.Fatal("a refused write was reported as accepted")
	}
	for _, want := range []string{"sequence clash", "ERR duplicate identity", "seq 7", "distinct -client-id"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
