// Command kvctl is the client for the kvnode cluster. Write commands are
// sent to every replica (the PBFT client model: a command is proposed once
// at least one correct replica queues it), then the client polls the
// certified read below until the write is visible — "OK" means b+1
// replicas agree the write applied, not that whichever replica is listed
// first says so. Writes and get therefore need at least b+1 addresses in
// -nodes.
//
// get is a quorum read: kvctl fans READ <key> to every replica and accepts
// only a value b+1 stamped replies agree on (the Byzantine read
// certificate, see -b and docs/READS.md) — a single replica, forging or
// mid-recovery, can neither serve a fabricated value nor a spurious
// NOTFOUND. -stale restores the old single-replica GET (get only).
//
// Every write is authenticated, because every kvnode authenticates its
// clients. kvctl derives its client key from (-client-seed, -client-id),
// opens one session per replica (the SHELLO handshake, deriving a
// per-connection session key) and pipelines its SCMD lines over it, each
// carrying a truncated session tag. Older kvctls sent anonymous CMD lines
// by default, or per-command-signed lines on request; both writers and the
// flags that chose them are gone. mset coalesces its writes that way: the
// replicas queue them together and the SMR layer decides them as one batch
// (one consensus instance for the whole set instead of one per key).
//
// Sequence numbers are shared across the replicas (every replica mints the
// identical envelope from (client, seq, payload)); only the tag differs per
// connection. They continue from the cluster's view of the client: the
// ASEQ verb reports the highest applied seq, and kvctl takes the maximum
// over the replicas that answer, tolerating unreachable ones and failing
// only when fewer than b+1 respond (see -b), so repeated invocations never
// replay and never jump the per-client horizon. Two concurrent invocations
// sharing a -client-id race the same sequence space: a replica refusing a
// write as a duplicate identity or a replayed sequence makes kvctl fail
// with a message naming the clash. Give concurrent writers distinct
// -client-id values. Durable per-client sequence state is the
// key-distribution follow-up tracked in ROADMAP.md.
//
//	go run ./cmd/kvctl -nodes 127.0.0.1:7200,127.0.0.1:7201 set color green
//	go run ./cmd/kvctl -nodes 127.0.0.1:7200,127.0.0.1:7201 mset color green shape circle size big
//	go run ./cmd/kvctl -nodes 127.0.0.1:7200,127.0.0.1:7201 -client-id 3 set color green
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
// wire.GroupForKey), so SCMD lines work unchanged and a batch whose keys
// span groups is simply decided by several groups concurrently. The
// `shards` subcommand reports S for clients that want to partition their
// own load; connections pinned with the USE verb receive
// "ERR wrongshard <g>" redirects instead of silent misroutes (docs/SHARD.md).
package main

import (
	"bufio"
	crand "crypto/rand"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/kv"
	"genconsensus/internal/readq"
)

// writeOp is one SET/DEL destined for the cluster, before protocol framing.
type writeOp struct {
	op, key, value string
}

func main() {
	var (
		nodes      = flag.String("nodes", "127.0.0.1:7200", "comma-separated client addresses")
		timeout    = flag.Duration("timeout", 10*time.Second, "overall operation timeout")
		clientID   = flag.Uint("client-id", 0, "this client's keyring id (concurrent writers need distinct ids)")
		clientSeed = flag.Int64("client-seed", 42, "client key derivation seed (must match the cluster)")
		seqBase    = flag.Uint64("seq", 0, "first sequence number (0 = continue after the cluster's ASEQ horizon)")
		byzB       = flag.Int("b", 1, "cluster's Byzantine budget: quorum reads and the ASEQ probe need b+1 matching replies")
		stale      = flag.Bool("stale", false, "get: legacy single-replica GET (stale local read, no certificate)")
	)
	flag.Parse()
	addrs := strings.Split(*nodes, ",")
	args := flag.Args()
	if len(args) == 0 {
		fail("usage: kvctl [-nodes ...] [-client-id N] set <k> <v> | mset <k> <v> [<k> <v> ...] | del <k> | get <k> | loglen | shards | stats")
	}
	client := uint32(*clientID)

	// submit sends the writes as session-tagged SCMD lines over one
	// SHELLO'd connection per replica, numbered from -seq or, by default,
	// from just above the cluster's ASEQ horizon for this client. A key or
	// value a command cannot carry fails before anything is dialed.
	submit := func(ops []writeOp) {
		for _, op := range ops {
			if err := kv.CheckKeyValue(op.key, op.value); err != nil {
				fail(err.Error())
			}
		}
		first := *seqBase
		if first == 0 {
			base, err := probeSeqBase(addrs, client, *byzB+1)
			if err != nil {
				fail(err.Error())
			}
			first = base + 1
		}
		if err := sessionBroadcast(addrs, auth.ClientKey(*clientSeed, client), client, first, ops); err != nil {
			fail(err.Error())
		}
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
		// STATS is a multi-line response terminated by END; like every read
		// verb it needs no session.
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

// probeSeqBase returns the highest sequence the cluster has applied for
// client: the maximum across the replicas that answer ASEQ — a lagging
// replica must not hand out an already-burned base. An unreachable replica
// is tolerated, not fatal: the maximum over the replicas that do answer is
// safe as long as at least need = b+1 of them respond (one of b+1 is
// honest, and an honest replica may lag a horizon another has applied past
// but never over-reports one, which the maximum absorbs). Fewer answers
// would let a Byzantine minority hand out a stale base, so only then does
// the probe fail.
func probeSeqBase(addrs []string, client uint32, need int) (uint64, error) {
	base := uint64(0)
	answered := 0
	for _, addr := range addrs {
		resp := request(strings.TrimSpace(addr), fmt.Sprintf("ASEQ %d", client))
		max, err := strconv.ParseUint(resp, 10, 64)
		if err != nil {
			continue // down or unreachable
		}
		answered++
		if max > base {
			base = max
		}
	}
	if answered < need {
		return 0, fmt.Errorf("ASEQ probe: only %d replica(s) answered, need b+1 = %d (pass -seq to override)",
			answered, need)
	}
	return base, nil
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
//
// A write refused as a duplicate identity, or as a replayed sequence before
// any replica has queued it, means another writer holds the same
// (client, seq): the error names the clash. A replayed sequence after an
// earlier replica queued the line is the benign PBFT-client race — that
// replica's copy committed before this one arrived.
func sessionBroadcast(addrs []string, ckey auth.MACKey, client uint32, firstSeq uint64, ops []writeOp) error {
	queued := make([]bool, len(ops)) // some replica has queued line i
	allQueued := 0
	for _, addr := range addrs {
		addr = strings.TrimSpace(addr)
		replies, err := sessionWrite(addr, ckey, client, firstSeq, ops)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kvctl: %s: %v\n", addr, err)
		}
		ok := len(replies) == len(ops)
		for i, resp := range replies {
			switch {
			case resp == "QUEUED":
				queued[i] = true
			case resp == "ERR replayed sequence" && queued[i]:
			case resp == "ERR duplicate identity" || resp == "ERR replayed sequence":
				return fmt.Errorf("sequence clash: %s answered %q to client %d seq %d: another writer is using -client-id %d; give concurrent kvctl invocations distinct -client-id values",
					addr, resp, client, firstSeq+uint64(i), client)
			default:
				ok = false
			}
		}
		if ok {
			allQueued++
		}
	}
	if allQueued == 0 {
		return fmt.Errorf("no replica accepted the session batch")
	}
	return nil
}

// sessionWrite opens a session on one replica, pipelines the writes as
// tagged SCMD lines numbered from firstSeq and returns one reply per line
// (fewer if the connection fails first).
func sessionWrite(addr string, ckey auth.MACKey, client uint32, firstSeq uint64, ops []writeOp) ([]string, error) {
	conn, sc, skey, err := dialSessionConn(addr, ckey, client)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	// Midstate-cached tagging: the session key is fixed per connection, so
	// the HMAC key blocks are hashed once for the whole batch.
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
	if _, err := fmt.Fprint(conn, b.String()); err != nil {
		return nil, err
	}
	replies := make([]string, 0, len(ops))
	for range ops {
		if !sc.Scan() {
			return replies, fmt.Errorf("connection closed after %d of %d replies", len(replies), len(ops))
		}
		replies = append(replies, sc.Text())
	}
	return replies, nil
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
