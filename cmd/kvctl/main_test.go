package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

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
	broadcast(addrs, (&writer{}).line("SET", "k", "v"))
	if !confirm(addrs, "k", "v", 2, 15*time.Second) {
		t.Fatal("committed write never confirmed")
	}
}
