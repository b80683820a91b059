package node

import (
	"runtime"
	"strconv"
	"time"
)

// This file is the server half of the read plane: READ and MREAD serve
// linearizable reads off the consensus critical path via a read-index
// capture — no consensus instance, no log entry, just "wait until the
// local apply watermark passes everything this replica knows is decided,
// then serve". The stamped replies additionally carry the applied
// instance, which is what lets clients assemble the Byzantine-safe b+1
// certificates (internal/readq) out of plain single-replica reads.
//
// Nothing on the common path takes a lock but the store's read lock: the
// read index, the watermark and the apply sequence are atomics the commit
// queue and the transport publish.

// readIndex captures the node's current read index: the highest instance
// this replica knows has decided. Two sources fold together — the commit
// queue's view (committed watermark plus decisions buffered behind a gap,
// e.g. a WAL-replay frontier) and the transport's observed-instance high
// (peer frames, releases, recorded decisions). The transport half is what
// makes a lagging replica block: under concurrent writes it hears peer
// frames for head instances long before it commits them, so a READ
// captured here waits for the catch-up instead of serving the stale
// prefix. A replica that is both lagging and hearing nothing can still
// serve its committed prefix — freshness then needs the quorum flavor.
func (g *group) readIndex() uint64 {
	ri := g.commits.ReadIndex()
	if high := g.n.tn.InstanceHigh(); high > ri {
		ri = high
	}
	return ri
}

// readClock is one read's wait clock, started lazily: a read whose index
// is already applied never reads the clock and records a zero wait.
type readClock struct {
	start   time.Time
	timeout time.Duration
}

// deadline starts the clock if it has not started and returns the read's
// deadline.
func (r *readClock) deadline() time.Time {
	if r.start.IsZero() {
		r.start = time.Now()
	}
	return r.start.Add(r.timeout)
}

// observe records the read's wait on the read-wait histogram.
func (r *readClock) observe(g *group) {
	if r.start.IsZero() {
		g.readWaitNS.Observe(0)
		return
	}
	g.readWaitNS.ObserveSince(r.start)
}

// awaitReadIndex blocks until the apply watermark passes the read
// index (and, for sessions, the connection's own last write), reporting
// false on timeout.
func (c *clientConn) awaitReadIndex(g *group, clock *readClock) bool {
	// Read-your-writes: the session's last accepted write must be applied
	// before the read serves, even if the read index was captured before
	// the write's instance existed. The loop re-arms on every watermark
	// advance; capturing the watermark before the probe closes the
	// probe-then-wait race.
	if c.sessioned {
		if seq := c.wrote; seq > 0 {
			for {
				wm := g.commits.NextCommit()
				if g.store.SeqApplied(c.client, seq) {
					break
				}
				if !g.commits.WaitApplied(wm, clock.deadline()) {
					return false
				}
			}
		}
	}
	if ri := g.readIndex(); g.commits.NextCommit() <= ri {
		return g.commits.WaitApplied(ri, clock.deadline())
	}
	return true
}

// applySpins bounds how often consistentRead yields to a running apply
// before it parks on the watermark instead.
const applySpins = 64

// consistentRead runs lookup against a store no apply is changing and
// returns the instance the store reflected: the commit queue's apply
// sequence was even and unchanged across the lookup, so the store held
// exactly the log's first stamp instances throughout. A lookup an apply
// overlapped is run again; one that lands mid-apply yields to the applier
// (a batch apply is short) and, failing that, parks until the instance
// commits. ok is false when the deadline passes first.
func (g *group) consistentRead(clock *readClock, lookup func()) (stamp uint64, ok bool) {
	for spins := 0; ; spins++ {
		seq := g.commits.ApplySeq()
		switch {
		case seq&1 == 0:
			lookup()
			if g.commits.ApplySeq() == seq {
				return seq>>1 - 1, true
			}
		case spins < applySpins:
			runtime.Gosched()
		case !g.commits.WaitApplied(seq>>1, clock.deadline()):
			return 0, false
		}
	}
}

// serveRead is one read-index read: wait out the read index, then
// run lookup against one exact applied prefix and return its stamp (ok is
// false on timeout).
func (c *clientConn) serveRead(g *group, lookup func()) (stamp uint64, ok bool) {
	clock := readClock{timeout: c.n.cfg.ReadTimeout}
	if !c.awaitReadIndex(g, &clock) {
		return 0, false
	}
	if stamp, ok = g.consistentRead(&clock, lookup); ok {
		clock.observe(g)
	}
	return stamp, ok
}

// appendReadReply appends one stamped read line: "VAL 0 <inst> <value>" or
// "NF 0 <inst>". The 0 is the reserved group field of the reply format.
func appendReadReply(dst []byte, stamp uint64, value string, found bool) []byte {
	if found {
		dst = append(dst, "VAL 0 "...)
	} else {
		dst = append(dst, "NF 0 "...)
	}
	dst = strconv.AppendUint(dst, stamp, 10)
	if found {
		dst = append(dst, ' ')
		dst = append(dst, value...)
	}
	return append(dst, '\n')
}

// handleRead serves one read-index read:
//
//	READ <key> → "VAL 0 <inst> <value>" | "NF 0 <inst>" | "ERR read timeout"
//
// The stamp is the instance the store had applied when the
// value was taken — exactly: the value is the key's after that instance
// and before the next.
func (c *clientConn) handleRead(args [][]byte) {
	if len(args) != 1 {
		c.reply("ERR usage: READ <key>")
		return
	}
	key := args[0]
	g := c.n.g
	var value string
	var found bool
	stamp, ok := c.serveRead(g, func() { value, found = g.store.GetBytes(key) })
	if !ok {
		c.reply("ERR read timeout")
		return
	}
	g.reads.Inc()
	c.out = appendReadReply(c.out, stamp, value, found)
}

// mreadSlot is one MREAD key's answer, kept until the reply is written.
type mreadSlot struct {
	value string
	found bool
}

// handleMRead answers many keys in one round-trip with one read-index
// capture and one consistent lookup:
//
//	MREAD <k1> <k2> ... → one VAL/NF line per key, request order, then "END"
//
// Every key carries the same exact stamp.
func (c *clientConn) handleMRead(keys [][]byte) {
	if len(keys) == 0 {
		c.reply("ERR usage: MREAD <key> [key ...]")
		return
	}
	g := c.n.g
	slots := make([]mreadSlot, len(keys))
	stamp, ok := c.serveRead(g, func() {
		for i, key := range keys {
			slots[i].value, slots[i].found = g.store.GetBytes(key)
		}
	})
	if !ok {
		c.reply("ERR read timeout")
		return
	}
	g.reads.Add(uint64(len(keys)))
	for _, s := range slots {
		c.out = appendReadReply(c.out, stamp, s.value, s.found)
	}
	c.reply("END")
}
