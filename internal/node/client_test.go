package node

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/readq"
	"genconsensus/internal/smr"
)

var updateGolden = flag.Bool("update", false, "rewrite the client transcript golden file")

// newIdleNode builds one member of a four-member cluster whose peers never
// start: it gets a commit queue but no dispatcher, so nothing is
// decided unless the test delivers it, and every reply — stamps included —
// is a pure function of what the test did. The client protocol is served
// on loopback.
func newIdleNode(t testing.TB, mutate func(*Config)) *Node {
	t.Helper()
	cfg := Config{
		ID: 0, N: 4, B: 1,
		ListenAddr: "127.0.0.1:0",
		ClientAddr: "127.0.0.1:0",
		AuthSeed:   42,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := New(cfg, kv.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	n.commits = smr.NewCommitQueue(n.replica, 1, nil)
	n.wg.Add(1)
	go n.serveClients()
	t.Cleanup(n.Stop)
	return n
}

// deliverBatch commits one instance of the given commands.
func deliverBatch(t testing.TB, n *Node, instance uint64, cmds ...model.Value) {
	t.Helper()
	batch, err := smr.EncodeBatch(cmds)
	if err != nil {
		t.Fatal(err)
	}
	n.commits.Deliver(instance, batch)
}

// transcriptSection is one client connection's worth of request lines.
// Two line forms are expanded by the runner because their bytes depend on
// a fresh nonce: "SHELLO!" performs a real handshake for client 1, and
// "~SCMD <seq> <op> <key> [value]" sends that write with a valid session
// tag. The golden file records them unexpanded.
type transcriptSection struct {
	name  string
	lines []string
}

// runTranscript plays the sections against addr, one connection each, and
// renders every request and its raw reply bytes.
func runTranscript(t *testing.T, addr string, sections []transcriptSection) string {
	t.Helper()
	var out strings.Builder
	for _, sec := range sections {
		fmt.Fprintf(&out, "# %s\n", sec.name)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		var session auth.MACKey
		for _, line := range sec.lines {
			fmt.Fprintf(&out, "> %q\n", line)
			send := line
			switch {
			case line == "SHELLO!":
				var reply string
				session, reply = transcriptHello(t, conn, r)
				fmt.Fprintf(&out, "< %q\n", reply)
				continue
			case strings.HasPrefix(line, "~SCMD "):
				send = taggedSCMD(session, strings.Fields(line)[1:])
			}
			if _, err := conn.Write([]byte(send + "\n")); err != nil {
				t.Fatal(err)
			}
			fields := strings.Fields(send)
			if len(fields) == 0 {
				continue // blank lines are not answered
			}
			multi := strings.ToUpper(fields[0]) == "MREAD"
			for {
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				reply, err := r.ReadString('\n')
				if err != nil {
					t.Fatalf("%s: reply to %q: %v", sec.name, line, err)
				}
				fmt.Fprintf(&out, "< %q\n", reply)
				if !multi || reply == "END\n" || strings.HasPrefix(reply, "ERR ") {
					break
				}
			}
		}
		conn.Close()
	}
	return out.String()
}

// transcriptHello completes SHELLO for client 1 and returns the session key
// and the reply with its random parts masked.
func transcriptHello(t *testing.T, conn net.Conn, r *bufio.Reader) (auth.MACKey, string) {
	t.Helper()
	key, _ := auth.NewClientKeyring(42, 8).Key(1)
	var nonce [auth.SessionNonceSize]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "SHELLO 1 %x %x\n", nonce, auth.ClientHelloMAC(key, 1, nonce[:]))
	reply, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(reply)
	if len(fields) != 3 || fields[0] != "SESSION" || !strings.HasSuffix(reply, "\n") {
		t.Fatalf("SHELLO reply %q", reply)
	}
	serverNonce, err := hex.DecodeString(fields[1])
	if err != nil {
		t.Fatal(err)
	}
	return auth.ClientSessionKey(key, 1, nonce[:], serverNonce), "SESSION <nonce> <ack>\n"
}

// taggedSCMD renders "SCMD <seq> <tag> <op> <key> [value]" with the tag the
// server will recompute: over the canonical payload of the upper-cased op.
func taggedSCMD(key auth.MACKey, f []string) string {
	seq, _ := strconv.ParseUint(f[0], 10, 64)
	value := ""
	if len(f) > 3 {
		value = f[3]
	}
	payload := kv.AuthPayload(1, seq, strings.ToUpper(f[1]), f[2], value)
	tag := auth.SessionMAC(nil, key, seq, []byte(payload))
	return fmt.Sprintf("SCMD %s %x %s", f[0], tag, strings.Join(f[1:], " "))
}

// TestClientTranscript pins the client line protocol byte for byte: every
// verb, mixed case, tabs, CRLF, Unicode whitespace, blank lines, unknown
// verbs (the retired CMD and ACMD among them) and each usage error,
// replayed against two idle nodes and compared with a transcript
// recorded before the protocol was served in bytes. The first node's
// sections are sessionless; the second's end in a session. STATS is left
// out: its body is live metrics. Regenerate with -update only for a
// deliberate protocol change.
func TestClientTranscript(t *testing.T) {
	const k0, k1, k1b = "t-0", "t-1", "u-0"

	anon := newIdleNode(t, nil)
	w := newSignedWriter(1)
	if resp := anon.store.Apply(w.set(k0, "v0")); resp != "OK" {
		t.Fatalf("preload: %s", resp)
	}
	deliverBatch(t, anon, 1, w.set(k1, "v1"))
	deliverBatch(t, anon, 2, w.set(k1b, "v1b"), w.set(k1, "v1x"))

	signed := newIdleNode(t, func(cfg *Config) {
		cfg.NumClients = 8
		cfg.ReadTimeout = 30 * time.Millisecond
	})
	preloader := auth.NewClientSigner(42, 2)
	for seq, key := range []string{k0, k1, k1b} {
		cmd, err := kv.SignedCommand(preloader, uint64(seq+1), "SET", key, "s"+key)
		if err != nil {
			t.Fatal(err)
		}
		if resp := signed.store.Apply(cmd); resp != "OK" {
			t.Fatalf("preload %s: %s", key, resp)
		}
	}
	zeroMAC := strings.Repeat("00", 32)
	nonce := strings.Repeat("11", auth.SessionNonceSize)
	badTag := strings.Repeat("ab", auth.SessionMACSize)

	got := runTranscript(t, anon.ClientAddr(), []transcriptSection{
		{"anonymous reads", []string{
			"GET " + k0, "get " + k0, "GET " + k1, "GET missing", "GET", "GET a b",
			"READ " + k0, "read " + k1, "ReAd\t" + k1b + "\r", "READ missing", "READ", "READ a b",
			"  READ " + k0 + "  ", "READ\u00a0" + k0, "READ\u2003" + k1 + "\u3000", "\u0085READ " + k0,
			"\v\fGET\v" + k0 + "\f", "READ\u200b" + k0, "get\u00a0", "GET ключ", "READ \xff\xfe",
			"READ " + k0 + "\x00",
			"MREAD " + k1 + " " + k0 + " missing " + k0, "mread\t" + k1b, "MREAD", "MrEaD  ",
			"", "   \t ", "\r",
			"LOGLEN", "loglen extra", "SHARDS", "ſhards", "USE 1", "ASEQ 1",
			"NOPE", "GETX " + k0, "G", strings.Repeat("A", 40),
		}},
		{"anonymous writes", []string{
			"CMD r1 SET " + k0 + " v", "ACMD 1 1 " + zeroMAC + " SET k v", "SHELLO 1 " + nonce + " " + zeroMAC,
			"SCMD 1 00 SET x y", "LOGLEN",
		}},
	})
	got += runTranscript(t, signed.ClientAddr(), []transcriptSection{
		{"signed commands", []string{
			"ASEQ 2", "aseq 9", "ASEQ x", "ASEQ", "ASEQ 99999999999",
			"SCMD 1 00 SET x y",
		}},
		{"handshake errors", []string{
			"SHELLO 1", "SHELLO x " + nonce + " " + zeroMAC, "SHELLO 1 zz " + zeroMAC,
			"SHELLO 1 " + nonce + " zz", "SHELLO 9999 " + nonce + " " + zeroMAC,
			"SHELLO 1 " + nonce + " " + zeroMAC,
		}},
		{"session", []string{
			"READ " + k0,
			"SHELLO!",
			"READ " + k1,
			"~SCMD 1 SET " + k0 + " sv",
			"~SCMD 2 del " + k0,
			"~SCMD 3 ſet " + k0 + " sv",
			"~SCMD 3 SET " + k0 + " again",
			"SCMD 4 zz SET " + k0 + " v", "SCMD 4 " + badTag + "0 SET " + k0 + " v",
			"SCMD x 00 SET " + k0 + " v", "SCMD -1 00 SET " + k0 + " v", "SCMD 18446744073709551616 00 SET k v",
			"SCMD 4 " + badTag + " SET " + k0 + " v",
			"SCMD 4 " + badTag + " PUT " + k0 + " v", "SCMD 4 " + badTag + " SET " + k0,
			"SCMD 4 " + badTag + " del " + k0 + " v", "SCMD 4 " + badTag, "scmd",
			"READ " + k0, "MREAD " + k1 + " " + k0, "MREAD " + k1, "GET " + k0,
			"USE 1", "~SCMD 4 SET " + k0 + " v", "~SCMD 5 SET " + k1 + " v",
			"CMD r1 SET " + k0 + " v", "ACMD 1 9 " + zeroMAC + " SET k v",
		}},
	})

	golden := filepath.Join("testdata", "client_transcript.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("transcript diverges at line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}

// TestReadStampExact is the stamp contract of docs/READS.md step 3: a READ
// (or MREAD) reply stamped with instance s carries exactly the value the
// key has after the log's first s instances — never a value from a batch
// that was half applied when the lookup ran. A writer commits multi-command
// batches that rewrite the key over and over while a pipelined client
// reads it; instance i leaves k = "i-<last>" and k2 = "i-0", so every
// stamp names the one value it may be served with.
func TestReadStampExact(t *testing.T) {
	const (
		instances = 1500
		perBatch  = 24
	)
	n := newIdleNode(t, nil)
	want := func(key string, stamp uint64) (string, bool) {
		if stamp == 0 {
			return "", false
		}
		if key == "k2" {
			return fmt.Sprintf("%d-0", stamp), true
		}
		return fmt.Sprintf("%d-%d", stamp, perBatch-1), true
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		w := newSignedWriter(1)
		cmds := make([]model.Value, perBatch+1)
		for i := uint64(1); i <= instances; i++ {
			cmds[0] = w.set("k2", fmt.Sprintf("%d-0", i))
			for j := 0; j < perBatch; j++ {
				cmds[j+1] = w.set("k", fmt.Sprintf("%d-%d", i, j))
			}
			batch, err := smr.EncodeBatch(cmds)
			if err != nil {
				t.Error(err)
				return
			}
			n.commits.Deliver(i, batch)
		}
	}()

	conn, err := net.Dial("tcp", n.ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	check := func(key, line string) {
		t.Helper()
		res, err := readq.Parse(line)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := want(key, res.Instance)
		if res.Found != ok || res.Value != v {
			t.Fatalf("%s served %q stamped %d; after %d instances it is %q (found %v)",
				key, res.Value, res.Instance, res.Instance, v, ok)
		}
	}
	reads := 0
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		var req bytes.Buffer
		for i := 0; i < 16; i++ {
			req.WriteString("READ k\nMREAD k2 k\n")
		}
		if _, err := conn.Write(req.Bytes()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			check("k", strings.TrimSuffix(line, "\n"))
			for _, key := range []string{"k2", "k"} {
				line, err := r.ReadString('\n')
				if err != nil {
					t.Fatal(err)
				}
				check(key, strings.TrimSuffix(line, "\n"))
			}
			if end, err := r.ReadString('\n'); err != nil || end != "END\n" {
				t.Fatalf("MREAD terminator %q, %v", end, err)
			}
			reads += 3
		}
	}
	wg.Wait()
	t.Logf("%d stamped values checked", reads)
}

// FuzzClientLine holds the byte-slice tokenizer to strings.Fields and the
// byte parsers to strconv for arbitrary input, then serves a READ of the
// line's first field (set, or deleted when the line has more fields, by a
// signed command applied to the store) and checks the reply parses with
// readq.Parse to exactly the instance and value that were served.
func FuzzClientLine(f *testing.F) {
	for _, seed := range []string{
		"READ k", " GET\tk \r\n", "READ k", "\xffREAD k", "SCMD 1 ab SET k v",
		"MREAD a b c", "", "\u0085 x　", "ſcmd 18446744073709551615 x",
		"18446744073709551616", "007 -1 +1 1_0", "SCMD 2 ab del k",
	} {
		f.Add([]byte(seed))
	}
	n := newIdleNode(f, nil)
	w := newSignedWriter(1)
	deliverBatch(f, n, 1, w.set("seed", "x"))
	c := &clientConn{n: n}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, want := splitFields(nil, line), strings.Fields(string(line))
		if len(got) != len(want) {
			t.Fatalf("%q: %d fields, strings.Fields has %d", line, len(got), len(want))
		}
		for i := range got {
			if string(got[i]) != want[i] {
				t.Fatalf("%q: field %d = %q, strings.Fields has %q", line, i, got[i], want[i])
			}
			for _, bits := range []int{32, 64} {
				v, ok := parseUint(got[i], bits)
				sv, err := strconv.ParseUint(want[i], 10, bits)
				if ok != (err == nil) || (ok && v != sv) {
					t.Fatalf("parseUint(%q, %d) = %d, %v; strconv has %d, %v", got[i], bits, v, ok, sv, err)
				}
			}
		}
		if len(want) == 0 {
			return
		}
		key := want[0]
		set := len(want) == 1
		op := "DEL"
		if set {
			op = "SET"
		}
		w.seq++
		cmd, err := kv.SignedCommand(w.signer, w.seq, op, key, key+"-v")
		if err != nil || strings.Contains(key, "|") {
			return // a key no signed kv command can carry
		}
		if resp := n.store.Apply(cmd); resp != "OK" && resp != "NOTFOUND" {
			t.Fatalf("%s %q: %s", op, key, resp)
		}
		c.out = c.out[:0]
		c.serveLine([]byte("READ " + key + "\n"))
		res, err := readq.Parse(strings.TrimSuffix(string(c.out), "\n"))
		if err != nil {
			t.Fatalf("READ %q: %v", key, err)
		}
		stamp := n.commits.NextCommit() - 1
		if res.Instance != stamp || res.Found != set || (set && res.Value != key+"-v") {
			t.Fatalf("READ %q served %+v, want instance %d found %v", key, res, stamp, set)
		}
	})
}

// sessionLines is a test-side session on an in-process clientConn: the
// SHELLO handshake served through serveLine, then tagged SCMD lines built
// into a reused buffer.
type sessionLines struct {
	key  auth.MACKey
	line []byte
}

func openSession(t testing.TB, c *clientConn) *sessionLines {
	t.Helper()
	key, _ := auth.NewClientKeyring(42, 8).Key(1)
	var nonce [auth.SessionNonceSize]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		t.Fatal(err)
	}
	c.serveLine([]byte(fmt.Sprintf("SHELLO 1 %x %x\n", nonce, auth.ClientHelloMAC(key, 1, nonce[:]))))
	fields := strings.Fields(string(c.out))
	c.out = c.out[:0]
	if len(fields) != 3 || fields[0] != "SESSION" {
		t.Fatalf("SHELLO reply %q", fields)
	}
	serverNonce, err := hex.DecodeString(fields[1])
	if err != nil {
		t.Fatal(err)
	}
	return &sessionLines{key: auth.ClientSessionKey(key, 1, nonce[:], serverNonce)}
}

// set renders "SCMD <seq> <tag> SET <key> <value>\n".
func (s *sessionLines) set(seq uint64, key, value string) []byte {
	payload := kv.AuthPayload(1, seq, "SET", key, value)
	s.line = fmt.Appendf(s.line[:0], "SCMD %d %x SET %s %s\n", seq, auth.SessionMAC(nil, s.key, seq, []byte(payload)), key, value)
	return s.line
}

// drainPending commits everything queued on the idle node, so a
// long write loop keeps the pending queue (and memory) bounded.
func drainPending(n *Node, instance *uint64) {
	for n.replica.PendingLen() > 0 {
		*instance++
		n.commits.Deliver(*instance, n.commits.Claim(*instance, 0))
	}
}

// A session write the node refuses never becomes the connection's
// read-your-writes anchor: the refused write never applies, so a READ that
// waited for it would wait out the whole read timeout. The write here
// passes the tag check and is refused after it (its value is too large for
// a command envelope).
func TestSessionRejectedWriteKeepsReads(t *testing.T) {
	const readTimeout = time.Second
	n := newIdleNode(t, func(cfg *Config) { cfg.ReadTimeout = readTimeout })
	c := &clientConn{n: n}
	session := openSession(t, c)
	c.serveLine(session.set(1, "k", strings.Repeat("v", 33<<10)))
	if got := string(c.out); got != "ERR malformed command\n" {
		t.Fatalf("oversized write → %q, want ERR malformed command", got)
	}
	c.out = c.out[:0]
	start := time.Now()
	c.serveLine([]byte("READ k\n"))
	if took := time.Since(start); string(c.out) != "NF 0 0\n" || took > readTimeout/2 {
		t.Fatalf("READ after the refused write → %q in %v, want NF 0 0 at once", c.out, took)
	}
}

// TestClientLineAllocs gates the served-in-bytes protocol: on a warm
// connection a READ hit and a READ miss allocate nothing, and an SCMD
// write allocates only the command envelope and the envelope MAC Sign
// returns. (Parsing into strings and answering through fmt cost 4, 3 and
// 5 allocations for the same three lines.)
func TestClientLineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	n := newIdleNode(t, nil)
	n.store.Apply(newSignedWriter(2).set("k", "v"))

	reader := &clientConn{n: n}
	for _, tc := range []struct{ line, reply string }{
		{"READ k\n", "VAL 0 0 v\n"},
		{"READ nope\n", "NF 0 0\n"},
	} {
		line := []byte(tc.line)
		reader.out = reader.out[:0]
		reader.serveLine(line) // warm the per-connection buffers
		if string(reader.out) != tc.reply {
			t.Fatalf("%q → %q, want %q", tc.line, reader.out, tc.reply)
		}
		allocs := testing.AllocsPerRun(500, func() {
			reader.out = reader.out[:0]
			reader.serveLine(line)
		})
		if allocs != 0 {
			t.Errorf("%q: %v allocations per line, want 0", tc.line, allocs)
		}
	}

	writer := &clientConn{n: n}
	session := openSession(t, writer)
	const runs = 400
	lines := make([][]byte, runs+1)
	for i := range lines {
		lines[i] = bytes.Clone(session.set(uint64(i+1), "k", "w"))
	}
	next, rejected := 0, 0
	allocs := testing.AllocsPerRun(runs, func() {
		writer.out = writer.out[:0]
		writer.serveLine(lines[next])
		next++
		if string(writer.out) != "QUEUED\n" {
			rejected++
		}
	})
	if rejected > 0 {
		t.Fatalf("%d SCMD lines not queued (last reply %q)", rejected, writer.out)
	}
	t.Logf("SCMD: %v allocations per line", allocs)
	if allocs > 2 {
		t.Errorf("SCMD: %v allocations per line, want ≤ 2 (envelope, MAC)", allocs)
	}
}

// BenchmarkClientRead is one READ hit served on a warm connection, parse to
// reply, without the socket.
func BenchmarkClientRead(b *testing.B) {
	n := newIdleNode(b, nil)
	n.store.Apply(newSignedWriter(1).set("k", "value-of-k"))
	c := &clientConn{n: n}
	line := []byte("READ k\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.out = c.out[:0]
		c.serveLine(line)
	}
}

// BenchmarkClientSessionWrite is one SCMD line served — tag check, envelope
// mint, queue — without the socket. Lines are built and the queue drained
// outside the timer, 256 at a time.
func BenchmarkClientSessionWrite(b *testing.B) {
	n := newIdleNode(b, nil)
	c := &clientConn{n: n}
	session := openSession(b, c)
	const chunk = 256
	lines := make([][]byte, chunk)
	var instance uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%chunk == 0 {
			b.StopTimer()
			drainPending(n, &instance)
			for j := range lines {
				lines[j] = append(lines[j][:0], session.set(uint64(i+j+1), "k", "w")...)
			}
			b.StartTimer()
		}
		c.out = c.out[:0]
		c.serveLine(lines[i%chunk])
	}
}
