package node

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
)

// startSessionCluster stands up an n-member cluster serving the client
// protocol (SHELLO/SCMD) on loopback.
func startSessionCluster(t *testing.T, n int) []*Node {
	t.Helper()
	nodes, _ := startNodes(t, n, func(cfg *Config) {
		cfg.ClientAddr = "127.0.0.1:0"
		cfg.NumClients = 8
		cfg.MaxBatch = 8
		cfg.Pipeline = 2
		cfg.BaseTimeout = 40 * time.Millisecond
		if testing.Verbose() {
			cfg.Logf = t.Logf
		}
	})
	return nodes
}

// sessionClient is a test-side session connection: the SHELLO handshake plus
// the derived key for tagging SCMD lines.
type sessionClient struct {
	conn net.Conn
	sc   *bufio.Scanner
	key  auth.MACKey
	id   uint32
}

// dialSession connects to addr and completes the SHELLO handshake for the
// given client id, verifying the server's ack MAC like a real client.
func dialSession(t *testing.T, addr string, client uint32) *sessionClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	key, ok := auth.NewClientKeyring(42, 8).Key(client)
	if !ok {
		t.Fatalf("client %d not provisioned", client)
	}
	var nonce [auth.SessionNonceSize]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		t.Fatal(err)
	}
	mac := auth.ClientHelloMAC(key, client, nonce[:])
	fmt.Fprintf(conn, "SHELLO %d %s %s\n", client, hex.EncodeToString(nonce[:]), hex.EncodeToString(mac))
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		t.Fatalf("no SHELLO reply")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) != 3 || fields[0] != "SESSION" {
		t.Fatalf("SHELLO reply: %q", sc.Text())
	}
	serverNonce, err := hex.DecodeString(fields[1])
	if err != nil {
		t.Fatal(err)
	}
	ack, err := hex.DecodeString(fields[2])
	if err != nil {
		t.Fatal(err)
	}
	if !auth.CheckClientHelloAckMAC(key, client, nonce[:], serverNonce, ack) {
		t.Fatalf("server ack MAC rejected")
	}
	return &sessionClient{
		conn: conn,
		sc:   sc,
		key:  auth.ClientSessionKey(key, client, nonce[:], serverNonce),
		id:   client,
	}
}

// scmd builds a correctly tagged SCMD line for the session.
func (s *sessionClient) scmd(seq uint64, op, key, value string) string {
	payload := kv.AuthPayload(s.id, seq, op, key, value)
	tag := auth.SessionMAC(nil, s.key, seq, []byte(payload))
	line := fmt.Sprintf("SCMD %d %s %s %s", seq, hex.EncodeToString(tag), op, key)
	if op == "SET" {
		line += " " + value
	}
	return line
}

// send writes one line and returns the server's one-line response.
func (s *sessionClient) send(t *testing.T, line string) string {
	t.Helper()
	fmt.Fprintln(s.conn, line)
	if !s.sc.Scan() {
		t.Fatalf("no response to %q", line)
	}
	return s.sc.Text()
}

// broadcastWrites sends SET key=value for each pair to every node, one
// session per node with the writes pipelined over it as client's sequences
// firstSeq, firstSeq+1, ... (the kvctl submission model), and checks each
// reply. The nodes are visited one after another, so by the time a later
// one is asked, the earlier ones may have committed a write they queued:
// it then rightly answers "ERR replayed sequence" instead of QUEUED.
func broadcastWrites(t *testing.T, nodes []*Node, client uint32, firstSeq uint64, pairs ...string) {
	t.Helper()
	for i, nd := range nodes {
		s := dialSession(t, nd.ClientAddr(), client)
		var lines strings.Builder
		for j := 0; j < len(pairs); j += 2 {
			lines.WriteString(s.scmd(firstSeq+uint64(j/2), "SET", pairs[j], pairs[j+1]) + "\n")
		}
		fmt.Fprint(s.conn, lines.String())
		for j := 0; j < len(pairs)/2; j++ {
			if !s.sc.Scan() {
				t.Fatalf("node %d write %d: no reply", i, j)
			}
			committed := i > 0 && s.sc.Text() == "ERR replayed sequence"
			if s.sc.Text() != "QUEUED" && !committed {
				t.Fatalf("node %d write %d: %q", i, j, s.sc.Text())
			}
		}
		s.conn.Close()
	}
}

// TestKVNodeSessionE2E drives a session load under the PBFT client model:
// the client opens one session per replica (each handshake derives its own
// key) and streams the same tagged writes to all of them. Every replica
// mints the identical command envelope from (client, seq, payload), so the
// proposals converge and the load commits — the kvctl shape.
func TestKVNodeSessionE2E(t *testing.T) {
	nodes := startSessionCluster(t, 4)
	const writes = 12
	sessions := make([]*sessionClient, len(nodes))
	for i, nd := range nodes {
		sessions[i] = dialSession(t, nd.ClientAddr(), 1)
	}
	want := map[string]string{}
	for j := 1; j <= writes; j++ {
		key := fmt.Sprintf("sk-%d", j)
		value := fmt.Sprintf("sv-%d", j)
		want[key] = value
		for i, cli := range sessions {
			// "replayed sequence" is a benign race, not a failure: the write
			// already committed via the replicas served earlier in this loop,
			// so this replica's committed window bounces the late duplicate.
			got := cli.send(t, cli.scmd(uint64(j), "SET", key, value))
			if got != "QUEUED" && got != "ERR replayed sequence" {
				t.Fatalf("node %d write %d: %q", i, j, got)
			}
		}
	}
	waitFor(t, 15*time.Second, "session writes applied everywhere", func() bool {
		for _, nd := range nodes {
			if !hasKeys(nd, want) {
				return false
			}
		}
		return true
	})
	checkLogConsistency(t, nodes)

	// The smr.commits counter counts unique applied commands, so after the
	// load drains it must equal the number of keys written — on every node.
	for i, nd := range nodes {
		if commits := nd.Metrics().CounterValue("g0.smr.commits"); commits != writes {
			t.Errorf("node %d: smr.commits = %d, want %d", i, commits, writes)
		}
	}

	// Reads ride the same session connection.
	if got := sessions[0].send(t, "GET sk-1"); got != "sv-1" {
		t.Errorf("GET over session = %q, want %q", got, "sv-1")
	}
}

// TestKVNodeSessionRefusesSeparator: a '|' in a written key or value would
// split the command payload into the wrong fields at apply — committed, its
// sequence consumed, and the write lost behind an acknowledged QUEUED.
// Ingress refuses it before the tag check, so the sequence stays free: the
// same seq with a clean value is then queued and applied everywhere.
func TestKVNodeSessionRefusesSeparator(t *testing.T) {
	nodes := startSessionCluster(t, 4)
	sessions := make([]*sessionClient, len(nodes))
	for i, nd := range nodes {
		sessions[i] = dialSession(t, nd.ClientAddr(), 1)
	}
	for i, s := range sessions {
		for _, kv := range [][2]string{{"pk", "a|b"}, {"p|k", "v"}} {
			if got := s.send(t, s.scmd(1, "SET", kv[0], kv[1])); !strings.HasPrefix(got, "ERR kv: ") {
				t.Fatalf("node %d: SET %q %q answered %q, want an ERR before the sequence is used", i, kv[0], kv[1], got)
			}
		}
	}
	for i, s := range sessions {
		if got := s.send(t, s.scmd(1, "SET", "pk", "clean")); got != "QUEUED" && got != "ERR replayed sequence" {
			t.Fatalf("node %d: clean write at the refused seq answered %q", i, got)
		}
	}
	waitFor(t, 15*time.Second, "the clean write applied everywhere", func() bool {
		for _, nd := range nodes {
			if !hasKeys(nd, map[string]string{"pk": "clean"}) || !nd.store.SeqApplied(1, 1) {
				return false
			}
		}
		return true
	})
}

// TestKVNodeSessionSecurity walks the hostile-client surface of the session
// protocol: handshake forgeries, downgrade attempts after the handshake,
// tag forgeries, sequence regressions and the strike-budget hangup.
func TestKVNodeSessionSecurity(t *testing.T) {
	nodes := startSessionCluster(t, 4)
	addr := nodes[0].ClientAddr()

	expectLine := func(conn net.Conn, sc *bufio.Scanner, line, want string) {
		t.Helper()
		fmt.Fprintln(conn, line)
		if !sc.Scan() {
			t.Fatalf("no response to %q", line)
		}
		if got := sc.Text(); got != want {
			t.Errorf("%q → %q, want %q", line, got, want)
		}
	}

	t.Run("handshake rejections", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		sc := bufio.NewScanner(conn)
		nonce := strings.Repeat("11", auth.SessionNonceSize)
		badMAC := strings.Repeat("00", 32)
		expectLine(conn, sc, "SCMD 1 00 SET x y", "ERR no session (use SHELLO)")
		expectLine(conn, sc, fmt.Sprintf("SHELLO 1 %s %s", nonce, badMAC), "ERR handshake rejected")
		expectLine(conn, sc, fmt.Sprintf("SHELLO 9999 %s %s", nonce, badMAC), "ERR unknown client")
		expectLine(conn, sc, fmt.Sprintf("SHELLO 1 zz %s", badMAC), "ERR bad nonce encoding")
		expectLine(conn, sc, "SHELLO 1", "ERR usage: SHELLO <client> <nonce-hex> <mac-hex>")
	})

	// A session cannot fall back to the retired write verbs (they are
	// unknown, not refused at a strike) or be handshaken twice.
	t.Run("downgrade refused after handshake", func(t *testing.T) {
		cli := dialSession(t, addr, 2)
		badMAC := strings.Repeat("00", 32)
		for _, line := range []string{"CMD anon SET x y", fmt.Sprintf("ACMD 2 1 %s SET x y", badMAC)} {
			if got := cli.send(t, line); got != "ERR unknown command" {
				t.Errorf("%q on a session: %q", line, got)
			}
		}
		nonce := strings.Repeat("11", auth.SessionNonceSize)
		if got := cli.send(t, fmt.Sprintf("SHELLO 2 %s %s", nonce, badMAC)); got != "ERR session already established" {
			t.Errorf("second SHELLO: %q", got)
		}
	})

	// Equivocation: one (client, seq) validly tagged over two payloads, on
	// two sessions of the client. The identity gets one slot; the losing
	// write is reported ("duplicate identity" while the first is queued,
	// "replayed sequence" once it committed), not silently eaten, and
	// exactly the first value is applied on every store. The first write
	// goes to every replica (a write queued on one replica alone may wait
	// behind the others' empty proposals), the second to the first's.
	t.Run("equivocation gets one slot", func(t *testing.T) {
		broadcastWrites(t, nodes, 6, 900, "eq-x", "v1")
		second := dialSession(t, addr, 6)
		if got := second.send(t, second.scmd(900, "SET", "eq-x", "v2")); got != "ERR duplicate identity" && got != "ERR replayed sequence" {
			t.Fatalf("equivocating write: %q, want a rejection", got)
		}
		waitFor(t, 15*time.Second, "the first write to apply everywhere", func() bool {
			for _, nd := range nodes {
				if !hasKeys(nd, map[string]string{"eq-x": "v1"}) {
					return false
				}
			}
			return true
		})
	})

	t.Run("tag and sequence enforcement", func(t *testing.T) {
		cli := dialSession(t, addr, 3)
		if got := cli.send(t, cli.scmd(1, "SET", "tk", "tv")); got != "QUEUED" {
			t.Fatalf("honest write: %q", got)
		}
		// Wrong tag: a valid-length forgery over the right payload.
		forged := strings.Repeat("ab", auth.SessionMACSize)
		if got := cli.send(t, fmt.Sprintf("SCMD 2 %s SET fk fv", forged)); got != "ERR session tag rejected" {
			t.Errorf("forged tag: %q", got)
		}
		// Tag valid for seq 1 replayed: the sequence check refuses it.
		if got := cli.send(t, cli.scmd(1, "SET", "tk", "tv")); got != "ERR session sequence not increasing" {
			t.Errorf("replayed seq: %q", got)
		}
		// A tag computed for one payload cannot authorize another.
		honest := cli.scmd(3, "SET", "ok", "ov")
		tampered := strings.Replace(honest, "SET ok ov", "SET ok stolen", 1)
		if got := cli.send(t, tampered); got != "ERR session tag rejected" {
			t.Errorf("tampered payload: %q", got)
		}
	})

	t.Run("strike budget hangs up", func(t *testing.T) {
		cli := dialSession(t, addr, 4)
		forged := strings.Repeat("cd", auth.SessionMACSize)
		for i := 0; i < maxClientStrikes+1; i++ {
			resp := cli.send(t, fmt.Sprintf("SCMD %d %s SET hk hv", i+1, forged))
			if resp != "ERR session tag rejected" {
				t.Fatalf("strike %d: %q", i, resp)
			}
		}
		// The budget is spent: the server hangs up rather than keep
		// verifying garbage.
		fmt.Fprintln(cli.conn, "GET hk")
		cli.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if cli.sc.Scan() {
			t.Fatalf("connection still serving after strike budget: %q", cli.sc.Text())
		}
	})
}

// TestKVNodeSessionReplayAcrossConnections commits a (client, seq) through
// one session and then presents the same identity — with a perfectly valid
// tag under a fresh session key — on a new connection: the committed replay
// window must bounce it.
func TestKVNodeSessionReplayAcrossConnections(t *testing.T) {
	nodes := startSessionCluster(t, 4)

	// Commit seq 1 under the PBFT client model (one session per replica).
	for _, nd := range nodes {
		cli := dialSession(t, nd.ClientAddr(), 5)
		// Later replicas may see the commit land before their copy arrives;
		// their "replayed sequence" answer is the benign PBFT-client race.
		got := cli.send(t, cli.scmd(1, "SET", "rk", "rv"))
		if got != "QUEUED" && got != "ERR replayed sequence" {
			t.Fatalf("first write: %q", got)
		}
		cli.conn.Close()
	}
	waitFor(t, 15*time.Second, "write committed", func() bool {
		return hasKeys(nodes[0], map[string]string{"rk": "rv"})
	})

	second := dialSession(t, nodes[0].ClientAddr(), 5)
	if got := second.send(t, second.scmd(1, "SET", "rk", "evil")); got != "ERR replayed sequence" {
		t.Errorf("cross-connection replay: %q", got)
	}
	// The client's next fresh sequence is still welcome.
	if got := second.send(t, second.scmd(2, "SET", "rk2", "rv2")); got != "QUEUED" {
		t.Errorf("fresh seq after replay attempt: %q", got)
	}
	if v, _ := nodes[0].store.Get("rk"); v != "rv" {
		t.Errorf("replayed write mutated state: rk=%q", v)
	}
}
