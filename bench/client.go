package main

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/kv"
	"genconsensus/internal/readq"
)

// maxReadRetries is how many times a READ that no b+1 replies certified is
// sent again before it counts as failed.
const maxReadRetries = 3

// Phases an operation can belong to.
const (
	phaseWarmup = iota
	phasePaced
	phaseSat
)

// opRec is everything the harness knows about one issued operation. Times
// are nanoseconds since the run's epoch. Ownership: the generator fills the
// identity and due/sent before publishing the record; the connection
// readers own queued/errs (atomics) and, under the client's readMu, the
// read fields; the observer owns seen/first/quorum/all.
type opRec struct {
	spec   opSpec
	client int    // 0-based
	seq    uint64 // session sequence of a write
	phase  uint8
	traced bool // observed through to every live replica, not just to the quorum

	due, sent int64
	queued    atomic.Int64 // first QUEUED reply (0 = none yet)
	errs      atomic.Int32 // replies that were a non-benign ERR

	seen               atomic.Uint32 // bitmask of replicas the write has applied on
	first, quorum, all atomic.Int64  // applied on 1 / b+1 / every live replica (0 = not yet)

	replies     []readq.Result
	answered    int    // reply lines to the READ's current fan-out, errors included
	retries     int    // fan-outs that ended with no b+1 replies agreeing
	done        int64  // certificate assembled
	readVersion uint32 // version the certificate carried
	uncertified bool   // gave up: maxReadRetries fan-outs and still no b+1 agreed

	index    uint64 // position in the client's op sequence
	finished bool   // window slot released (guarded by the client's winMu)
}

// slab hands out opRecs whose addresses stay put, so that readers and the
// observer can hold pointers while the generator keeps allocating.
type slab struct {
	chunks [][]opRec
	used   int
}

const slabChunk = 4096

func (s *slab) alloc() *opRec {
	if len(s.chunks) == 0 || s.used == slabChunk {
		s.chunks = append(s.chunks, make([]opRec, slabChunk))
		s.used = 0
	}
	r := &s.chunks[len(s.chunks)-1][s.used]
	s.used++
	return r
}

// each visits the records in issue order.
func (s *slab) each(fn func(*opRec)) {
	for ci, chunk := range s.chunks {
		n := slabChunk
		if ci == len(s.chunks)-1 {
			n = s.used
		}
		for i := 0; i < n; i++ {
			fn(&chunk[i])
		}
	}
}

// replicaConn is one client's session connection to one replica. The
// generator goroutine is the only writer; one reader goroutine drains the
// reply lines.
type replicaConn struct {
	replica int
	conn    net.Conn
	w       *bufio.Writer
	macer   *auth.SessionMACer
	// expect is the FIFO of operations awaiting a reply line. An op is
	// pushed before its line is flushed, so the reader never outruns it.
	// Capacity: a client has at most clientWindow ops outstanding, each
	// owed at most one line per connection.
	expect chan *opRec
	dead   bool // generator-owned: closed after the replica was stopped
}

// client is one logical client: a session connection per replica, one
// generator goroutine, a sliding window bounding how far it runs ahead of
// its oldest unfinished op.
type client struct {
	id    int // 0-based; the protocol id is id+1
	run   *run
	conns []*replicaConn // session connections: the writes
	// readConns are plain connections for the READs of a workload that has
	// any. On the session connection a READ waits until the session's own
	// last write has applied (read-your-writes) and holds up every line
	// behind it; a certified read needs no such promise from one replica.
	readConns []*replicaConn
	allConns  []*replicaConn // conns, then readConns
	stream    *opStream
	recs      slab
	seq       uint64

	// The window slides like TCP's: op number i may be sent only while
	// i < base+clientWindow, base being the oldest op not yet committed or
	// certified. Bounding the count of outstanding ops would not do: one
	// starved write would let the other 511 slots carry the sequence
	// numbers more than a seq window past it, and the replicas drop a
	// write that far behind as a replay (see README.md, findings).
	winMu sync.Mutex
	base  uint64             // oldest unfinished op index
	next  uint64             // next op index to issue (generator-owned, read under winMu by drain)
	slots [clientWindow]bool // finished flags of ops base..base+clientWindow-1, by index modulo
	freed chan struct{}      // pulsed when base advances

	readMu  sync.Mutex // guards the read fields of this client's opRecs
	readers sync.WaitGroup
	// retry holds READs whose replies named more than b different values (the
	// key was being written meanwhile: README.md, findings) until the
	// generator, the connections' only writer, sends them again. A client has
	// at most clientWindow ops outstanding, so a push never blocks.
	retry       chan *opRec
	readRetries atomic.Int64
	line        []byte // generator scratch
}

func (c *client) protocolID() uint32 { return uint32(c.id + 1) }

// dialSession opens one connection and authenticates it (SHELLO), the
// kvctl -session client shape.
func dialSession(addr string, clientID uint32) (net.Conn, *bufio.Reader, *auth.SessionMACer, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, nil, nil, err
	}
	fail := func(err error) (net.Conn, *bufio.Reader, *auth.SessionMACer, error) {
		conn.Close()
		return nil, nil, nil, fmt.Errorf("bench: session handshake with %s: %w", addr, err)
	}
	key, ok := auth.NewClientKeyring(authSeed, 16).Key(clientID)
	if !ok {
		return fail(fmt.Errorf("client %d not in the keyring", clientID))
	}
	var nonce [auth.SessionNonceSize]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return fail(err)
	}
	mac := auth.ClientHelloMAC(key, clientID, nonce[:])
	if _, err := fmt.Fprintf(conn, "SHELLO %d %s %s\n", clientID, hex.EncodeToString(nonce[:]), hex.EncodeToString(mac)); err != nil {
		return fail(err)
	}
	r := bufio.NewReaderSize(conn, 64<<10)
	line, err := r.ReadString('\n')
	if err != nil {
		return fail(err)
	}
	fields := strings.Fields(line)
	if len(fields) != 3 || fields[0] != "SESSION" {
		return fail(fmt.Errorf("reply %q", strings.TrimSpace(line)))
	}
	serverNonce, err1 := hex.DecodeString(fields[1])
	ack, err2 := hex.DecodeString(fields[2])
	if err1 != nil || err2 != nil || !auth.CheckClientHelloAckMAC(key, clientID, nonce[:], serverNonce, ack) {
		return fail(fmt.Errorf("session ack rejected"))
	}
	skey := auth.ClientSessionKey(key, clientID, nonce[:], serverNonce)
	return conn, r, auth.NewSessionMACer(skey), nil
}

func newClient(r *run, id int, seed int64) (*client, error) {
	c := &client{
		id:     id,
		run:    r,
		stream: newOpStream(seed, id, r.w),
		freed:  make(chan struct{}, 1),
		retry:  make(chan *opRec, clientWindow),
	}
	attach := func(ri int, conn net.Conn, rd *bufio.Reader, macer *auth.SessionMACer) *replicaConn {
		rc := &replicaConn{
			replica: ri, conn: conn, macer: macer,
			w:      bufio.NewWriterSize(conn, 64<<10),
			expect: make(chan *opRec, 2*clientWindow),
		}
		c.allConns = append(c.allConns, rc)
		c.readers.Add(1)
		go c.readReplies(rc, rd)
		return rc
	}
	for ri, nd := range r.cluster.nodes {
		conn, rd, macer, err := dialSession(nd.ClientAddr(), c.protocolID())
		if err != nil {
			c.close()
			return nil, err
		}
		c.conns = append(c.conns, attach(ri, conn, rd, macer))
		if r.w.readPct == 0 {
			continue
		}
		conn, err = net.DialTimeout("tcp", nd.ClientAddr(), 2*time.Second)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("bench: read connection to replica %d: %w", ri, err)
		}
		c.readConns = append(c.readConns, attach(ri, conn, bufio.NewReaderSize(conn, 64<<10), nil))
	}
	return c, nil
}

// close hangs up every connection and waits for the readers to exit.
func (c *client) close() {
	for _, rc := range c.allConns {
		rc.conn.Close()
	}
	c.readers.Wait()
}

// finish releases the op's window slot, once, and slides the window over
// every finished op at its low end.
func (c *client) finish(op *opRec) {
	c.winMu.Lock()
	defer c.winMu.Unlock()
	if op.finished {
		return
	}
	op.finished = true
	c.slots[op.index%clientWindow] = true
	moved := false
	for c.slots[c.base%clientWindow] {
		c.slots[c.base%clientWindow] = false
		c.base++
		moved = true
	}
	if moved {
		select {
		case c.freed <- struct{}{}:
		default:
		}
	}
}

// windowOpen reports whether the next op fits the window.
func (c *client) windowOpen() bool {
	c.winMu.Lock()
	defer c.winMu.Unlock()
	return c.next < c.base+clientWindow
}

// idle reports whether nothing is outstanding.
func (c *client) idle() bool {
	c.winMu.Lock()
	defer c.winMu.Unlock()
	return c.base == c.next
}

// issue sends one operation to every live replica (writes are broadcast —
// the current client contract; reads are fanned out for the certificate).
// The lines are buffered; flush pushes them out.
func (c *client) issue(spec opSpec, phase uint8, due int64) {
	r := c.run
	op := c.recs.alloc()
	op.spec, op.client, op.phase, op.due = spec, c.id, phase, due
	c.winMu.Lock()
	op.index = c.next
	c.next++
	c.winMu.Unlock()
	op.traced = r.tracing.Load()
	key := keyName(spec.key)
	var value string
	var payload []byte
	if spec.read {
		op.replies = make([]readq.Result, 0, clusterN)
	} else {
		c.seq++
		op.seq = c.seq
		value = valueFor(spec.key, spec.version)
		payload = []byte(kv.AuthPayload(c.protocolID(), op.seq, "SET", key, value))
	}
	op.sent = r.now()
	if !spec.read {
		r.obs.add(op)
	}
	dead := r.deadMask.Load()
	targets := c.conns
	if spec.read {
		targets = c.readConns
	}
	for _, rc := range targets {
		if rc.dead {
			continue
		}
		if dead&(1<<rc.replica) != 0 {
			// The replica was stopped: a crashed process drops its
			// connections, so the harness hangs up on its side too.
			rc.dead = true
			rc.conn.Close()
			continue
		}
		if spec.read {
			c.sendRead(rc, op)
			continue
		}
		b := append(c.line[:0], "SCMD "...)
		b = strconv.AppendUint(b, op.seq, 10)
		b = append(b, ' ')
		var tag [auth.SessionMACSize]byte
		b = hex.AppendEncode(b, rc.macer.Append(tag[:0], op.seq, payload))
		// The payload ends in "|SET|key|value": the line carries the same
		// key and value space-separated.
		b = append(b, " SET "...)
		b = append(b, key...)
		b = append(b, ' ')
		b = append(b, value...)
		b = append(b, '\n')
		c.line = b
		rc.expect <- op
		rc.w.Write(b) // an error resurfaces on flush
	}
}

// sendRead buffers one READ line of op on rc.
func (c *client) sendRead(rc *replicaConn, op *opRec) {
	b := append(c.line[:0], "READ "...)
	b = append(b, keyName(op.spec.key)...)
	b = append(b, '\n')
	c.line = b
	rc.expect <- op
	rc.w.Write(b) // an error resurfaces on flush
}

// resend fans a READ out again and flushes. Only the goroutine that owns
// the connections' write side may call it: the generator, or the drain once
// the generators have returned.
func (c *client) resend(op *opRec) {
	for _, rc := range c.readConns {
		if !rc.dead {
			c.sendRead(rc, op)
		}
	}
	c.flush()
}

// resendPending sends again every READ waiting in retry.
func (c *client) resendPending() {
	for {
		select {
		case op := <-c.retry:
			c.resend(op)
		default:
			return
		}
	}
}

func (c *client) flush() {
	for _, rc := range c.allConns {
		if rc.dead {
			continue
		}
		if err := rc.w.Flush(); err != nil && c.run.deadMask.Load()&(1<<rc.replica) == 0 {
			c.run.fatal(fmt.Errorf("bench: client %d writing to replica %d: %w", c.id, rc.replica, err))
		}
	}
}

// readReplies drains one connection's reply lines, matching each to the
// operation at the head of the FIFO.
func (c *client) readReplies(rc *replicaConn, rd *bufio.Reader) {
	defer c.readers.Done()
	for {
		line, err := rd.ReadSlice('\n')
		if err != nil {
			return // hung up: by close(), or because the replica was stopped
		}
		op := <-rc.expect
		now := c.run.now()
		reply := strings.TrimSpace(string(line))
		if !op.spec.read {
			switch classifyWriteReply(reply) {
			case replyQueued:
				op.queued.CompareAndSwap(0, now)
			case replyError:
				op.errs.Add(1)
			}
			continue
		}
		res, perr := readq.Parse(reply)
		c.readMu.Lock()
		op.answered++
		if perr != nil {
			op.errs.Add(1)
		} else {
			op.replies = append(op.replies, res)
		}
		c.noteReadReply(op, now)
		c.readMu.Unlock()
	}
}

// noteReadReply completes a read as soon as b+1 replies certify a value.
// When every live replica has answered and no b+1 agree, the read is sent
// again, as docs/READS.md tells a client to: that happens to a read of a key
// with several writes in flight, which the replicas answer at different
// instances. Callers hold readMu.
func (c *client) noteReadReply(op *opRec, now int64) {
	if op.done != 0 || op.uncertified {
		return
	}
	if len(op.replies) >= quorum {
		if res, ok := readq.Certify(op.replies, quorum, nil); ok {
			op.done = now
			if res.Found {
				if _, ver, err := parseValue(res.Value); err == nil {
					op.readVersion = ver
				} else {
					op.errs.Add(1)
				}
			}
			c.finish(op)
			return
		}
	}
	if op.answered < c.run.liveCount() {
		return
	}
	if op.retries == maxReadRetries || op.errs.Load() > 0 {
		op.uncertified = true
		c.finish(op)
		return
	}
	op.retries++
	op.answered, op.replies = 0, op.replies[:0]
	c.readRetries.Add(1)
	c.retry <- op
}

type replyClass int

const (
	replyQueued replyClass = iota
	replyBenign            // the broadcast's other copies won the race: not a failure
	replyError
)

// classifyWriteReply sorts a write's reply line. "replayed sequence" and
// "duplicate identity" are the benign races of a broadcast write: the
// command already committed, or is already queued, through another
// replica's copy.
func classifyWriteReply(reply string) replyClass {
	switch reply {
	case "QUEUED":
		return replyQueued
	case "ERR replayed sequence", "ERR duplicate identity":
		return replyBenign
	default:
		return replyError
	}
}
