package main

import (
	"sync"
	"sync/atomic"
	"time"

	"genconsensus/internal/kv"
	"genconsensus/internal/obs"
)

// observer decides when a write is committed, from outside the program: it
// polls every live replica's store for the write's (client, seq) and stamps
// the first instant it sees it applied on 1, b+1 and all live replicas.
// The client protocol has no commit acknowledgement (a write is answered
// QUEUED), so this in-process view is the only commit signal there is.
//
// kv.Store.SeqApplied is exact per write; the version embedded in the value
// is not a safe signal, because two writes of one key that are in flight
// together may commit in either order (see README.md, findings).
//
// Each replica has a watcher goroutine of its own: a store read blocks
// while that replica encodes a checkpoint (tens of milliseconds on the
// warm workloads), and one goroutine polling all four would stamp a commit
// the other replicas had long applied only when the slowest lock let go. A
// watcher scans its store only when the replica's smr.commits counter
// moved, which the node bumps after a decided batch has applied in full.
type observer struct {
	run      *run
	watchers []*watcher
	stopped  atomic.Bool
	wg       sync.WaitGroup

	gapMu        sync.Mutex
	lastQuorum   int64 // commit instants (quorum) of the timed phases, for the longest gap
	maxCommitGap int64
}

type watcher struct {
	o       *observer
	replica int
	store   *kv.Store
	commits *obs.Counter

	mu       sync.Mutex
	incoming []*opRec

	pending     []*opRec
	lastCommits uint64
	// Tick-to-tick intervals during the paced phase: the granularity at
	// which commit instants are resolved.
	tickGaps []float64
}

const observeEvery = 200 * time.Microsecond

func newObserver(r *run) *observer {
	o := &observer{run: r}
	for i, store := range r.cluster.stores {
		o.watchers = append(o.watchers, &watcher{o: o, replica: i, store: store, commits: r.cluster.commits[i]})
	}
	return o
}

// add publishes a write to every watcher before its first line is sent.
func (o *observer) add(op *opRec) {
	for _, w := range o.watchers {
		w.mu.Lock()
		w.incoming = append(w.incoming, op)
		w.mu.Unlock()
	}
}

func (o *observer) start() {
	for _, w := range o.watchers {
		o.wg.Add(1)
		go w.loop()
	}
}

// stop ends the watchers and waits for them.
func (o *observer) stop() {
	o.stopped.Store(true)
	o.wg.Wait()
}

// tickGaps returns the paced-phase tick intervals of every watcher.
func (o *observer) tickGaps() []float64 {
	var all []float64
	for _, w := range o.watchers {
		all = append(all, w.tickGaps...)
	}
	return all
}

func (w *watcher) loop() {
	defer w.o.wg.Done()
	r := w.o.run
	last := r.now()
	bit := uint32(1) << w.replica
	for !w.o.stopped.Load() {
		time.Sleep(observeEvery)
		if r.deadMask.Load()&bit != 0 {
			return // the replica was stopped: nothing more will apply there
		}
		now := r.now()
		if r.phase.Load() == phasePaced {
			w.tickGaps = append(w.tickGaps, float64(now-last)/1e6)
		}
		last = now
		w.tick(bit)
	}
}

func (w *watcher) tick(bit uint32) {
	r := w.o.run
	w.mu.Lock()
	w.pending = append(w.pending, w.incoming...)
	w.incoming = w.incoming[:0]
	w.mu.Unlock()

	commits := w.commits.Load()
	if commits == w.lastCommits {
		return
	}
	w.lastCommits = commits
	kept := w.pending[:0]
	for _, op := range w.pending {
		if !op.traced && op.quorum.Load() != 0 {
			continue // committed elsewhere, and nobody asked where else
		}
		if !w.store.SeqApplied(uint32(op.client+1), op.seq) {
			kept = append(kept, op)
			continue
		}
		now := r.now()
		seen := op.seen.Or(bit) | bit
		switch popcount(seen) {
		case 1:
			op.first.Store(now)
		case quorum:
			op.quorum.Store(now)
			w.o.noteCommit(op, now)
			r.clients[op.client].finish(op)
		}
		// "All" means all replicas still alive: the stopped one's bit is
		// either set already or never will be.
		if live := uint32(1<<clusterN-1) &^ r.deadMask.Load(); seen&live == live {
			op.all.Store(now)
		}
	}
	clear(w.pending[len(kept):])
	w.pending = kept
}

func (o *observer) noteCommit(op *opRec, now int64) {
	if op.phase == phaseWarmup {
		return
	}
	o.gapMu.Lock()
	if o.lastQuorum != 0 && now-o.lastQuorum > o.maxCommitGap {
		o.maxCommitGap = now - o.lastQuorum
	}
	if now > o.lastQuorum {
		o.lastQuorum = now
	}
	o.gapMu.Unlock()
}

func popcount(b uint32) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}
