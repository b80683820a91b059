// Command kvctl is the client for the kvnode cluster. Write commands are
// sent to every replica (the PBFT client model: a command is proposed once
// at least one correct replica queues it; duplicates are suppressed by
// request id), then the client polls the certified read below until the
// write is visible — "OK" means b+1 replicas agree the write applied, not
// that whichever replica is listed first says so. Writes and get therefore
// need at least b+1 addresses in -nodes.
//
// get is a quorum read: kvctl fans READ <key> to every replica and accepts
// only a value b+1 stamped replies agree on (the Byzantine read
// certificate, see -b and docs/READS.md) — a single replica, forging or
// mid-recovery, can neither serve a fabricated value nor a spurious
// NOTFOUND. -stale restores the old single-replica GET (get only).
//
// mset coalesces many writes client-side: all CMD lines are pipelined over
// a single connection per replica, so the replicas queue them together and
// the SMR layer decides them as one batch (one consensus instance for the
// whole set instead of one per key).
//
// Against an authenticated cluster (kvnode -client-auth) pass -auth: kvctl
// then signs every write at submit time — it derives its client key from
// (-client-seed, -client-id), MACs the canonical command payload, and sends
// ACMD lines carrying (client, seq, mac) so replicas can verify provenance
// before queueing. Sequence numbers continue from the cluster's view of the
// client (the ASEQ protocol verb reports the highest applied seq; kvctl
// takes the maximum over the replicas that answer, tolerating unreachable
// ones, and errors only when fewer than b+1 respond — see -b), so repeated
// invocations never replay and never jump the per-client horizon. Concurrent invocations should
// still use distinct -client-id values: two processes sharing an id race
// the same sequence space and can bounce each other's in-flight writes.
// Durable per-client sequence state is the key-distribution follow-up
// tracked in ROADMAP.md.
//
// -session is the amortized-auth variant of -auth: kvctl authenticates each
// connection once (the SHELLO handshake, deriving a per-connection session
// key) and then sends SCMD writes carrying only a truncated session tag —
// no per-command envelope MAC on the wire. Sequence numbers are shared
// across the replicas (every replica must mint the identical envelope from
// (client, seq, payload)); only the tag differs per connection, under that
// connection's session key.
//
//	go run ./cmd/kvctl -nodes 127.0.0.1:7200,127.0.0.1:7201 set color green
//	go run ./cmd/kvctl -nodes 127.0.0.1:7200,127.0.0.1:7201 mset color green shape circle size big
//	go run ./cmd/kvctl -nodes 127.0.0.1:7200,127.0.0.1:7201 -auth -client-id 3 set color green
//	go run ./cmd/kvctl -nodes 127.0.0.1:7200,127.0.0.1:7201 -session -client-id 3 mset a 1 b 2
//	go run ./cmd/kvctl -nodes 127.0.0.1:7200,127.0.0.1:7201 get color
//	go run ./cmd/kvctl -nodes 127.0.0.1:7200 -stale get color
//	go run ./cmd/kvctl -nodes 127.0.0.1:7200,127.0.0.1:7201 del color
//	go run ./cmd/kvctl -nodes 127.0.0.1:7200 loglen
//	go run ./cmd/kvctl -nodes 127.0.0.1:7200 shards
//	go run ./cmd/kvctl -nodes 127.0.0.1:7200 stats
//
// Against a sharded cluster (kvnode -shards S) nothing changes client-side
// for correctness: every replica hosts all S consensus groups and routes
// each write to the group owning its key (the same deterministic hash,
// wire.GroupForKey), so CMD/ACMD/SCMD lines work unchanged and a batch
// whose keys span groups is simply decided by several groups concurrently.
// The `shards` subcommand reports S for clients that want to partition
// their own load; connections pinned with the USE verb receive
// "ERR wrongshard <g>" redirects instead of silent misroutes (docs/SHARD.md).
package main

import (
	"bufio"
	crand "crypto/rand"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/kv"
	"genconsensus/internal/readq"
)

// writer builds protocol lines for write commands: anonymous CMD lines in
// legacy mode, signed ACMD lines in authenticated mode.
type writer struct {
	signer  *auth.ClientSigner // nil = legacy
	seq     uint64
	seqInit func() uint64 // lazy base discovery; runs once, before the first write
}

// nextSeq allocates the next client sequence number, resolving the lazy
// base discovery on first use.
func (w *writer) nextSeq() uint64 {
	if w.seqInit != nil {
		w.seq = w.seqInit()
		w.seqInit = nil
	}
	w.seq++
	return w.seq
}

// line formats one write. value is ignored for DEL.
func (w *writer) line(op, key, value string) string {
	op = strings.ToUpper(op)
	if w.signer == nil {
		reqID := newReqID()
		if op == "DEL" {
			return fmt.Sprintf("CMD %s DEL %s", reqID, key)
		}
		return fmt.Sprintf("CMD %s SET %s %s", reqID, key, value)
	}
	seq := w.nextSeq()
	mac := hex.EncodeToString(kv.AuthMAC(w.signer, seq, op, key, value))
	if op == "DEL" {
		return fmt.Sprintf("ACMD %d %d %s DEL %s", w.signer.Client(), seq, mac, key)
	}
	return fmt.Sprintf("ACMD %d %d %s SET %s %s", w.signer.Client(), seq, mac, key, value)
}

// writeOp is one SET/DEL destined for the cluster, before protocol framing.
type writeOp struct {
	op, key, value string
}

func main() {
	var (
		nodes      = flag.String("nodes", "127.0.0.1:7200", "comma-separated client addresses")
		timeout    = flag.Duration("timeout", 10*time.Second, "overall operation timeout")
		authMode   = flag.Bool("auth", false, "sign writes (cluster runs with -client-auth)")
		sessMode   = flag.Bool("session", false, "authenticate each connection once (SHELLO) and send session-tagged writes")
		clientID   = flag.Uint("client-id", 0, "this client's keyring id")
		clientSeed = flag.Int64("client-seed", 42, "client key derivation seed (must match the cluster)")
		seqBase    = flag.Uint64("seq", 0, "first sequence number (0 = continue after the cluster's ASEQ horizon)")
		byzB       = flag.Int("b", 1, "cluster's Byzantine budget: quorum reads and the ASEQ probe need b+1 matching replies")
		stale      = flag.Bool("stale", false, "get: legacy single-replica GET (stale local read, no certificate)")
	)
	flag.Parse()
	addrs := strings.Split(*nodes, ",")
	args := flag.Args()
	if len(args) == 0 {
		fail("usage: kvctl [-nodes ...] [-auth] set <k> <v> | mset <k> <v> [<k> <v> ...] | del <k> | get <k> | loglen | shards | stats")
	}
	if *authMode && *sessMode {
		fail("-auth and -session are mutually exclusive (a session replaces per-command signing)")
	}
	w := &writer{}
	if *authMode {
		w.signer = auth.NewClientSigner(*clientSeed, uint32(*clientID))
	}
	if *authMode || *sessMode {
		if *seqBase > 0 {
			w.seq = *seqBase - 1
		} else {
			// Continue after the cluster's highest applied seq for this
			// client (maximum across replicas — a lagging replica must not
			// hand out an already-burned base). An unreachable replica is
			// tolerated, not fatal: the maximum over the replicas that DO
			// answer is correct as long as at least b+1 of them respond
			// (one of b+1 is honest and no honest replica under-reports a
			// horizon another honest replica has applied past... it may lag
			// it, which the maximum absorbs). Fewer than b+1 answers would
			// let a Byzantine minority hand out a stale base, so only then
			// does the submit fail. Lazy: read-only subcommands never pay
			// the probe round-trips.
			w.seqInit = func() uint64 {
				base := uint64(0)
				answered := 0
				for _, addr := range addrs {
					resp := request(strings.TrimSpace(addr), fmt.Sprintf("ASEQ %d", *clientID))
					max, err := strconv.ParseUint(resp, 10, 64)
					if err != nil {
						continue // down, unreachable or not in auth mode
					}
					answered++
					if max > base {
						base = max
					}
				}
				if answered < *byzB+1 {
					fail(fmt.Sprintf("ASEQ probe: only %d replica(s) answered, need b+1 = %d (pass -seq to override)",
						answered, *byzB+1))
				}
				return base
			}
		}
	}

	// submit frames and broadcasts the writes in the selected mode: legacy
	// CMD / signed ACMD lines over one-shot pipelined connections, or
	// session-tagged SCMD lines over per-replica SHELLO'd connections.
	submit := func(ops []writeOp) {
		if *sessMode {
			first := w.nextSeq()
			for i := 1; i < len(ops); i++ {
				w.nextSeq()
			}
			sessionBroadcast(addrs, auth.ClientKey(*clientSeed, uint32(*clientID)), uint32(*clientID), first, ops)
			return
		}
		lines := make([]string, len(ops))
		for i, o := range ops {
			lines[i] = w.line(o.op, o.key, o.value)
		}
		if len(lines) == 1 {
			broadcast(addrs, lines[0])
			return
		}
		broadcastMany(addrs, lines)
	}

	// confirmed is the write subcommands' commit check.
	confirmed := func(key, want string) {
		if !confirm(addrs, key, want, *byzB+1, *timeout) {
			fail("timed out waiting for the command to apply")
		}
	}

	switch strings.ToLower(args[0]) {
	case "get":
		if len(args) != 2 {
			fail("usage: get [-stale] <key>")
		}
		if *stale {
			// Legacy single-replica stale read: whatever the first replica's
			// local store holds, no freshness contract, no certificate.
			fmt.Println(request(addrs[0], "GET "+args[1]))
			return
		}
		fmt.Println(quorumGet(addrs, args[1], *byzB+1))
	case "loglen":
		fmt.Println(request(addrs[0], "LOGLEN"))
	case "stats":
		// STATS is a multi-line response terminated by END. It rides a
		// session connection too (-session), like any read verb.
		if *sessMode {
			conn, sc, _, err := dialSessionConn(strings.TrimSpace(addrs[0]),
				auth.ClientKey(*clientSeed, uint32(*clientID)), uint32(*clientID))
			if err != nil {
				fail(err.Error())
			}
			defer conn.Close()
			fmt.Fprintln(conn, "STATS")
			for sc.Scan() && sc.Text() != "END" {
				fmt.Println(sc.Text())
			}
			return
		}
		for _, line := range requestUntil(addrs[0], "STATS", "END") {
			fmt.Println(line)
		}
	case "shards":
		fmt.Println(request(addrs[0], "SHARDS"))
	case "set":
		if len(args) != 3 {
			fail("usage: set <key> <value>")
		}
		submit([]writeOp{{"SET", args[1], args[2]}})
		confirmed(args[1], args[2])
		fmt.Println("OK")
	case "mset":
		if len(args) < 3 || len(args)%2 == 0 {
			fail("usage: mset <key> <value> [<key> <value> ...]")
		}
		pairs := args[1:]
		ops := make([]writeOp, 0, len(pairs)/2)
		for i := 0; i < len(pairs); i += 2 {
			ops = append(ops, writeOp{"SET", pairs[i], pairs[i+1]})
		}
		submit(ops)
		// Poll each key for its final value: with a repeated key the later
		// pair in the batch wins, so earlier values never materialize.
		final := make(map[string]string, len(pairs)/2)
		order := make([]string, 0, len(pairs)/2)
		for i := 0; i < len(pairs); i += 2 {
			if _, seen := final[pairs[i]]; !seen {
				order = append(order, pairs[i])
			}
			final[pairs[i]] = pairs[i+1]
		}
		for _, key := range order {
			confirmed(key, final[key])
		}
		fmt.Printf("OK %d keys\n", len(final))
	case "del":
		if len(args) != 2 {
			fail("usage: del <key>")
		}
		submit([]writeOp{{"DEL", args[1], ""}})
		confirmed(args[1], "NOTFOUND")
		fmt.Println("OK")
	default:
		fail("unknown operation " + args[0])
	}
}

// certifiedGet is the Byzantine-safe read: fan READ <key> to every replica
// (the tolerant fan-out shape of the ASEQ probe — unreachable replicas
// are skipped, not fatal) and accept only a value that need = b+1 stamped
// replies agree on; among certified candidates the highest applied
// instance wins. A single forging replica can therefore never serve a
// fabricated value, and a lagging replica's old value loses to the
// certified newer one. ok is false when fewer than b+1 replies match; rejected
// lists the replies that did not parse as a stamped read.
func certifiedGet(addrs []string, key string, need int) (value string, ok bool, rejected []string) {
	var results []readq.Result
	for _, addr := range addrs {
		resp := request(strings.TrimSpace(addr), "READ "+key)
		res, err := readq.Parse(resp)
		if err != nil {
			rejected = append(rejected, addr+": "+resp)
			continue
		}
		results = append(results, res)
	}
	got, ok := readq.Certify(results, need, nil)
	if !ok {
		return "", false, rejected
	}
	if !got.Found {
		return "NOTFOUND", true, rejected
	}
	return got.Value, true, rejected
}

// quorumGet is get's certified read. No certificate is an error — the
// caller can retry or fall back to -stale, but must not trust one reply.
func quorumGet(addrs []string, key string, need int) string {
	value, ok, rejected := certifiedGet(addrs, key, need)
	for _, r := range rejected {
		fmt.Fprintln(os.Stderr, "kvctl:", r)
	}
	if !ok {
		fail(fmt.Sprintf("quorum read: no value certified by %d of %d replies (retry, or -stale for an uncertified local read)",
			need, len(addrs)))
	}
	return value
}

// confirm polls the certified read until it returns want ("NOTFOUND" for
// a delete) or the timeout elapses. A lagging replica cannot time a
// committed write out and a forging one cannot vouch for a write that
// never committed: only b+1 matching replies count.
func confirm(addrs []string, key, want string, need int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if got, ok, _ := certifiedGet(addrs, key, need); ok && got == want {
			return true
		}
		time.Sleep(50 * time.Millisecond)
	}
	return false
}

// dialSessionConn connects to one replica and completes the SHELLO
// handshake, verifying the server's ack MAC before trusting the session.
func dialSessionConn(addr string, ckey auth.MACKey, client uint32) (net.Conn, *bufio.Scanner, auth.MACKey, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, nil, auth.MACKey{}, err
	}
	var nonce [auth.SessionNonceSize]byte
	if _, err := crand.Read(nonce[:]); err != nil {
		conn.Close()
		return nil, nil, auth.MACKey{}, err
	}
	mac := auth.ClientHelloMAC(ckey, client, nonce[:])
	if _, err := fmt.Fprintf(conn, "SHELLO %d %s %s\n",
		client, hex.EncodeToString(nonce[:]), hex.EncodeToString(mac)); err != nil {
		conn.Close()
		return nil, nil, auth.MACKey{}, err
	}
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		conn.Close()
		return nil, nil, auth.MACKey{}, fmt.Errorf("no SHELLO reply")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) != 3 || fields[0] != "SESSION" {
		conn.Close()
		return nil, nil, auth.MACKey{}, fmt.Errorf("handshake refused: %s", sc.Text())
	}
	serverNonce, err1 := hex.DecodeString(fields[1])
	ack, err2 := hex.DecodeString(fields[2])
	if err1 != nil || err2 != nil || !auth.CheckClientHelloAckMAC(ckey, client, nonce[:], serverNonce, ack) {
		conn.Close()
		return nil, nil, auth.MACKey{}, fmt.Errorf("server ack rejected")
	}
	return conn, sc, auth.ClientSessionKey(ckey, client, nonce[:], serverNonce), nil
}

// sessionBroadcast opens one session per replica and pipelines the tagged
// writes over it. The (client, seq, payload) triple is identical on every
// replica — each mints the same command envelope — while the tag is
// per-connection, under that session's key. At least one replica must queue
// every line.
func sessionBroadcast(addrs []string, ckey auth.MACKey, client uint32, firstSeq uint64, ops []writeOp) {
	allQueued := 0
	for _, addr := range addrs {
		conn, sc, skey, err := dialSessionConn(strings.TrimSpace(addr), ckey, client)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kvctl: %s: %v\n", addr, err)
			continue
		}
		// Midstate-cached tagging: the session key is fixed per connection,
		// so the HMAC key blocks are hashed once for the whole batch.
		macer := auth.NewSessionMACer(skey)
		var b strings.Builder
		for i, o := range ops {
			seq := firstSeq + uint64(i)
			payload := kv.AuthPayload(client, seq, o.op, o.key, o.value)
			tag := macer.Append(nil, seq, []byte(payload))
			fmt.Fprintf(&b, "SCMD %d %s %s %s", seq, hex.EncodeToString(tag), o.op, o.key)
			if o.op == "SET" {
				b.WriteString(" " + o.value)
			}
			b.WriteByte('\n')
		}
		ok := true
		if _, err := fmt.Fprint(conn, b.String()); err != nil {
			ok = false
		}
		for range ops {
			if !ok {
				break
			}
			if !sc.Scan() || sc.Text() != "QUEUED" {
				ok = false
			}
		}
		conn.Close()
		if ok {
			allQueued++
		}
	}
	if allQueued == 0 {
		fail("no replica accepted the session batch")
	}
}

func newReqID() string {
	return fmt.Sprintf("req-%d-%d", time.Now().UnixNano(), rand.Intn(1_000_000))
}

// broadcast sends the line to every replica; at least one reply must be
// QUEUED.
func broadcast(addrs []string, line string) {
	queued := 0
	for _, addr := range addrs {
		if resp := request(strings.TrimSpace(addr), line); resp == "QUEUED" {
			queued++
		}
	}
	if queued == 0 {
		fail("no replica accepted the command")
	}
}

// broadcastMany coalesces the lines into one pipelined exchange per replica
// (a single connection carrying every request), so a replica queues the
// whole set before its next proposal and the cluster can decide it as one
// batch. At least one replica must queue every line.
func broadcastMany(addrs []string, lines []string) {
	allQueued := 0
	for _, addr := range addrs {
		resps := requestMany(strings.TrimSpace(addr), lines)
		ok := len(resps) == len(lines)
		for _, resp := range resps {
			if resp != "QUEUED" {
				ok = false
			}
		}
		if ok {
			allQueued++
		}
	}
	if allQueued == 0 {
		fail("no replica accepted the batch")
	}
}

// requestMany pipelines all lines over one connection and collects one
// response per line (stopping early on connection errors).
func requestMany(addr string, lines []string) []string {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil
	}
	defer conn.Close()
	if _, err := fmt.Fprint(conn, strings.Join(lines, "\n")+"\n"); err != nil {
		return nil
	}
	scanner := bufio.NewScanner(conn)
	resps := make([]string, 0, len(lines))
	for range lines {
		if !scanner.Scan() {
			break
		}
		resps = append(resps, scanner.Text())
	}
	return resps
}

// requestUntil sends one line and collects response lines up to (but not
// including) the terminator — the shape of the STATS verb.
func requestUntil(addr, line, terminator string) []string {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return []string{"ERR " + err.Error()}
	}
	defer conn.Close()
	fmt.Fprintln(conn, line)
	scanner := bufio.NewScanner(conn)
	var lines []string
	for scanner.Scan() && scanner.Text() != terminator {
		lines = append(lines, scanner.Text())
	}
	return lines
}

func request(addr, line string) string {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return "ERR " + err.Error()
	}
	defer conn.Close()
	fmt.Fprintln(conn, line)
	scanner := bufio.NewScanner(conn)
	if scanner.Scan() {
		return scanner.Text()
	}
	return "ERR no response"
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "kvctl:", msg)
	os.Exit(1)
}
