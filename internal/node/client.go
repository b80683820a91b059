package node

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"net"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"genconsensus/internal/auth"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/smr"
	"genconsensus/internal/wire"
)

// serveClients accepts line-oriented kv clients:
//
//	SHELLO <client> <nonce-hex> <mac-hex>      → "SESSION <nonce-hex> <mac-hex>"
//	SCMD <seq> <tag-hex> SET|DEL <key> [value] → "QUEUED" (after SHELLO)
//	GET <key>                                  → value or "NOTFOUND" (stale local read)
//	READ <key>                                 → "VAL 0 <inst> <value>" or "NF 0 <inst>"
//	MREAD <key> [key ...]                      → one VAL/NF line per key, then "END"
//	LOGLEN                                     → decided-log length
//	ASEQ <client>                              → client's highest applied seq
//	STATS                                      → key=value metric lines, then "END"
//
// Fields are separated by strings.Fields whitespace; verbs and ops are
// case-insensitive. Each line is split in place and answered in bytes
// (clientConn.serveLine): a READ is a map lookup and a few appends.
//
// GET is the legacy stale read: the local store, no freshness contract.
// READ/MREAD are read-index reads — capture the node's read index, wait
// until apply passes it, serve stamped with the applied instance (see
// docs/READS.md for the full contract and the b+1 certificate flavor
// built on the stamps).
//
// SCMD is the only write verb, and every client is authenticated: a
// client authenticates once per connection with SHELLO — nonce exchange
// under its command key, both sides deriving a session key
// (auth.ClientSessionKey) — and then sends writes carrying only a 16-byte
// truncated session tag and a strictly increasing sequence. The node
// verifies the tag, mints the full command envelope itself (within the
// symmetric-key model every replica holds the client key, so a server-side
// MAC is exactly as authentic as a client-side one), marks it pre-verified
// for the chooser and queues it; a sequence that already committed, or
// that a different queued payload claims, is refused with the reason.
// Reads need no session. Repeated authentication failures on one
// connection exhaust a strike budget and hang up — the rate limit that
// stops a hostile client from farming MAC verifications.
func (n *Node) serveClients() {
	defer n.wg.Done()
	for {
		conn, err := n.clientLn.Accept()
		if err != nil {
			if n.stopping.Load() {
				return
			}
			continue
		}
		// Handlers are not joined by Stop: they exit when the client closes
		// (or the process ends), and joining them would let one idle client
		// connection hang the shutdown.
		go n.handleClient(conn)
	}
}

// clientConn is one client connection's protocol state, owned by its
// handler goroutine. Session state lives here: a connection is anonymous
// until SHELLO succeeds, then speaks SCMD under the derived session key.
type clientConn struct {
	n *Node

	sessioned bool
	client    uint32             // authenticated client id (valid when sessioned)
	key       auth.MACKey        // per-connection session key
	macer     *auth.SessionMACer // midstate-cached verifier for the session key
	signer    *auth.ClientSigner // mints envelope MACs for session writes
	lastSeq   uint64             // highest session sequence accepted
	scratch   []byte             // envelope staging for session writes, reused
	strikes   int                // failed authentications on this connection

	// wrote is the session's last accepted write sequence (0 = none) — the
	// read-your-writes anchor: a session READ waits until the store has
	// applied at least that sequence.
	wrote uint64

	// Per-line buffers, reused: the fields of the line being served (they
	// alias the reader's buffer) and the reply being built.
	fields [][]byte
	out    []byte
}

// maxClientStrikes is the per-connection authentication-failure budget;
// exceeding it drops the connection.
const maxClientStrikes = 8

// reply appends one reply line.
func (c *clientConn) reply(line string) {
	c.out = append(c.out, line...)
	c.out = append(c.out, '\n')
}

// replyUint appends a reply line holding one decimal number.
func (c *clientConn) replyUint(prefix string, v uint64) {
	c.out = append(c.out, prefix...)
	c.out = strconv.AppendUint(c.out, v, 10)
	c.out = append(c.out, '\n')
}

// strike records one authentication failure and sends resp.
func (c *clientConn) strike(resp string) {
	c.strikes++
	c.n.events.Emit(-1, "auth.reject", "layer", "client",
		"reason", resp, "strikes", c.strikes)
	c.reply(resp)
}

func (n *Node) handleClient(conn net.Conn) {
	defer conn.Close()
	c := &clientConn{n: n}
	// Responses are buffered and flushed when the inbound side goes idle:
	// a pipelined client streaming thousands of lines gets its answers in
	// a few large writes instead of one syscall per line.
	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriterSize(conn, 32<<10)
	defer w.Flush()
	for {
		line, err := r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			return // no valid command is this long: hostile or broken
		}
		c.serveLine(line)
		w.Write(c.out)
		c.out = c.out[:0]
		if c.strikes > maxClientStrikes {
			return // hostile or broken client: stop burning MAC work on it
		}
		if err != nil {
			return
		}
		if r.Buffered() == 0 {
			if w.Flush() != nil {
				return
			}
		}
	}
}

// serveLine answers one request line, appending the reply (nothing for a
// blank line) to c.out.
func (c *clientConn) serveLine(line []byte) {
	c.fields = splitFields(c.fields[:0], line)
	if len(c.fields) == 0 {
		return
	}
	var fold [8]byte
	args := c.fields[1:]
	switch string(foldUpper(&fold, c.fields[0])) {
	case "READ":
		c.handleRead(args)
	case "SCMD":
		c.handleSessionCmd(args)
	case "MREAD":
		c.handleMRead(args)
	case "GET":
		c.handleGet(args)
	case "SHELLO":
		c.handleSessionHello(args)
	case "LOGLEN":
		c.handleLogLen()
	case "ASEQ":
		c.handleAppliedSeq(args)
	case "STATS":
		c.handleStats()
	default:
		c.reply("ERR unknown command")
	}
}

// asciiSpace is strings.Fields' ASCII whitespace set.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields appends the fields of line to dst, split exactly as
// strings.Fields splits: on ASCII whitespace while the line is ASCII, on
// unicode.IsSpace once any byte is not. The fields alias line.
func splitFields(dst [][]byte, line []byte) [][]byte {
	base, start := len(dst), -1
	for i, b := range line {
		switch {
		case b >= utf8.RuneSelf:
			return splitFieldsUnicode(dst[:base], line)
		case asciiSpace[b]:
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// splitFieldsUnicode is splitFields' general path. An invalid UTF-8 byte
// decodes as utf8.RuneError, which is not a space — as in strings.Fields.
func splitFieldsUnicode(dst [][]byte, line []byte) [][]byte {
	start := -1
	for i := 0; i < len(line); {
		r, size := utf8.DecodeRune(line[i:])
		if unicode.IsSpace(r) {
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// foldUpper returns b upper-cased exactly as strings.ToUpper would, for
// matching against verbs and ops. ASCII folds into buf — or yields nil
// when too long to be any of them; anything else takes the Unicode path,
// which only exotic input reaches (it may change the length: "ſ" is "S").
func foldUpper(buf *[8]byte, b []byte) []byte {
	for _, x := range b {
		if x >= utf8.RuneSelf {
			return []byte(strings.ToUpper(string(b)))
		}
	}
	if len(b) > len(buf) {
		return nil
	}
	for i, x := range b {
		if 'a' <= x && x <= 'z' {
			x -= 'a' - 'A'
		}
		buf[i] = x
	}
	return buf[:len(b)]
}

// parseUint is strconv.ParseUint(string(b), 10, bits) without the
// conversion: decimal digits only, no sign, no overflow.
func parseUint(b []byte, bits int) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	max := uint64(1)<<bits - 1
	var v uint64
	for _, x := range b {
		if x < '0' || x > '9' {
			return 0, false
		}
		d := uint64(x - '0')
		if v > (max-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// handleStats dumps the node's live metrics as key=value lines terminated
// by "END": clients read until END instead of one line.
func (c *clientConn) handleStats() {
	var b strings.Builder
	_ = c.n.metrics.WriteText(&b)
	c.out = append(c.out, b.String()...)
	c.reply("END")
}

func (c *clientConn) handleGet(args [][]byte) {
	if len(args) != 1 {
		c.reply("ERR usage: GET <key>")
		return
	}
	g := c.n.g
	g.staleGets.Inc()
	if v, ok := g.store.GetBytes(args[0]); ok {
		c.reply(v)
		return
	}
	c.reply("NOTFOUND")
}

// handleLogLen reports the decided-log length: the "how much has this
// cluster decided" number clients and tests poll.
func (c *clientConn) handleLogLen() {
	c.replyUint("", uint64(c.n.g.replica.Log.Len()))
}

// handleAppliedSeq reports a client's highest applied sequence: signing
// clients derive their next sequence base from it instead of guessing (a
// wall-clock base would poison the id for every other convention sharing
// it).
func (c *clientConn) handleAppliedSeq(args [][]byte) {
	if len(args) != 1 {
		c.reply("ERR usage: ASEQ <client>")
		return
	}
	client, ok := parseUint(args[0], 32)
	if !ok {
		c.reply("ERR bad client id")
		return
	}
	c.replyUint("", c.n.g.store.ClientMaxSeq(uint32(client)))
}

// handleSessionHello authenticates a client connection once: SHELLO
// carries the client id, a fresh nonce and a MAC under the client's
// command key; the reply returns the node's nonce MAC'd over both, and
// each side derives the connection's session key. Replays of a captured
// SHELLO are harmless — the replayer cannot tag a single SCMD without the
// client key, and every handshake derives a fresh session key.
func (c *clientConn) handleSessionHello(args [][]byte) {
	n := c.n
	if c.sessioned {
		c.strike("ERR session already established")
		return
	}
	if len(args) != 3 {
		c.reply("ERR usage: SHELLO <client> <nonce-hex> <mac-hex>")
		return
	}
	client64, ok := parseUint(args[0], 32)
	if !ok {
		c.reply("ERR bad client id")
		return
	}
	client := uint32(client64)
	nonce, err := hex.DecodeString(string(args[1]))
	if err != nil || len(nonce) != auth.SessionNonceSize {
		c.reply("ERR bad nonce encoding")
		return
	}
	mac, err := hex.DecodeString(string(args[2]))
	if err != nil {
		c.reply("ERR bad MAC encoding")
		return
	}
	key, ok := n.keyring.Key(client)
	if !ok {
		c.strike("ERR unknown client")
		return
	}
	if !auth.CheckClientHelloMAC(key, client, nonce, mac) {
		c.strike("ERR handshake rejected")
		return
	}
	var serverNonce [auth.SessionNonceSize]byte
	if _, err := rand.Read(serverNonce[:]); err != nil {
		c.reply("ERR entropy unavailable")
		return
	}
	ack := auth.ClientHelloAckMAC(key, client, nonce, serverNonce[:])
	c.sessioned = true
	c.client = client
	c.key = auth.ClientSessionKey(key, client, nonce, serverNonce[:])
	// One MACer per connection: the handler goroutine is the only caller,
	// and the midstate cache halves the per-line verification cost.
	c.macer = auth.NewSessionMACer(c.key)
	c.signer = auth.NewClientSigner(n.cfg.ClientSeed, client)
	c.lastSeq = 0
	n.events.Emit(-1, "session.open", "client", client)
	c.out = append(c.out, "SESSION "...)
	c.out = hex.AppendEncode(c.out, serverNonce[:])
	c.out = append(c.out, ' ')
	c.out = hex.AppendEncode(c.out, ack)
	c.out = append(c.out, '\n')
}

// handleSessionCmd queues one session write. The client sends only its
// command sequence, a truncated session tag over the canonical payload and
// the operation — no per-command envelope MAC. After the tag and the
// strictly increasing sequence check, the node mints the command envelope
// itself under the client's key (identical bytes to what the client would
// have produced — the request id and MAC derive from (client, seq)) and
// feeds it to the pipeline pre-verified, so the chooser
// answers provenance from the session instead of re-running HMACs per
// value. Everything up to the envelope works on the line's own bytes.
func (c *clientConn) handleSessionCmd(args [][]byte) {
	if !c.sessioned {
		c.strike("ERR no session (use SHELLO)")
		return
	}
	if len(args) < 3 {
		c.reply("ERR usage: SCMD <seq> <tag-hex> SET|DEL <key> [value]")
		return
	}
	seq, ok := parseUint(args[0], 64)
	if !ok {
		c.reply("ERR bad sequence number")
		return
	}
	var tag [auth.SessionMACSize]byte
	if len(args[1]) != hex.EncodedLen(len(tag)) {
		c.reply("ERR bad tag encoding")
		return
	}
	if _, err := hex.Decode(tag[:], args[1]); err != nil {
		c.reply("ERR bad tag encoding")
		return
	}
	key, value, ok := c.parseWriteOp(args[2:])
	if !ok {
		return
	}
	if seq <= c.lastSeq {
		c.strike("ERR session sequence not increasing")
		return
	}
	// One buffer, reused per connection, holds the payload and after it the
	// envelope built around it; the tag check and the MAC read the payload
	// where it lies, and the only allocation left is the value itself.
	buf := kv.AppendAuthPayload(c.scratch[:0], c.client, seq, args[2], key, value)
	payload := buf[:len(buf):len(buf)]
	if !c.macer.Check(seq, payload, tag[:]) {
		c.strike("ERR session tag rejected")
		return
	}
	c.lastSeq = seq
	buf, err := wire.AppendCommandBytes(buf, c.client, seq, payload, c.signer.Sign(seq, payload))
	c.scratch = buf
	if err != nil {
		c.reply("ERR malformed command")
		return
	}
	cmd := model.Value(buf[len(payload):])
	if !smr.Admissible(cmd) {
		c.reply("ERR inadmissible command")
		return
	}
	// The session tag just authenticated these exact bytes and the envelope
	// was minted under the client's real key; re-verifying the HMAC in the
	// chooser would be pure waste.
	g := c.n.g
	g.authCtx.Preverify(cmd, c.client, seq)
	if !g.replica.Submit(cmd) {
		// Submit refuses a sequence that already committed and an identity a
		// different queued payload claims (an equivocating client signing one
		// seq twice); the reply names which.
		if g.authCtx.Replayed(cmd) {
			c.reply("ERR replayed sequence")
			return
		}
		c.reply("ERR duplicate identity")
		return
	}
	// Only a queued write anchors read-your-writes: a refused one never
	// applies, and a READ waiting for it would wait out its timeout.
	c.wrote = seq
	g.kickDispatcher()
	c.reply("QUEUED")
}

// parseWriteOp parses SCMD's trailing SET/DEL clause (args holds at least
// the op). On failure the error reply is sent and ok is false; a key or
// value the payload cannot carry (kv.CheckKeyValue) fails here, before the
// MAC, so it consumes no sequence number.
func (c *clientConn) parseWriteOp(args [][]byte) (key, value []byte, ok bool) {
	var fold [8]byte
	switch string(foldUpper(&fold, args[0])) {
	case "SET":
		if len(args) != 3 {
			c.reply("ERR usage: SCMD <seq> <tag-hex> SET <key> <value>")
			return nil, nil, false
		}
		key, value = args[1], args[2]
	case "DEL":
		if len(args) != 2 {
			c.reply("ERR usage: SCMD <seq> <tag-hex> DEL <key>")
			return nil, nil, false
		}
		key = args[1]
	default:
		c.reply("ERR unknown op " + strings.ToUpper(string(args[0])))
		return nil, nil, false
	}
	if err := kv.CheckKeyValue(key, value); err != nil {
		c.reply("ERR " + err.Error())
		return nil, nil, false
	}
	return key, value, true
}
