package wire

import (
	"encoding/binary"
	"math/rand"
	"strconv"
	"testing"
)

// mapTracker is the reference model: the map-backed tracker the ring
// replaced, kept here so every horizon rule of the ring is checked against
// the implementation whose behaviour it must reproduce.
type mapTracker struct {
	max     uint64
	entries map[uint64]string
}

func (t *mapTracker) belowHorizon(seq, window uint64) bool {
	return t.max >= window && seq <= t.max-window
}

func (t *mapTracker) record(seq uint64, v string, window uint64) bool {
	if t.belowHorizon(seq, window) {
		return false
	}
	_, had := t.entries[seq]
	t.entries[seq] = v
	if seq > t.max {
		t.max = seq
		for s := range t.entries {
			if t.belowHorizon(s, window) {
				delete(t.entries, s)
			}
		}
	}
	return !had
}

// trackerPair drives the ring and the model with the same operations and
// fails on the first answer they disagree on.
type trackerPair struct {
	t      *testing.T
	window uint64
	ring   *SeqTracker
	model  *mapTracker
}

func newTrackerPair(t *testing.T, window uint64) *trackerPair {
	return &trackerPair{t, window, NewSeqTracker(window), &mapTracker{entries: make(map[uint64]string)}}
}

func (p *trackerPair) record(seq uint64, v string) {
	p.t.Helper()
	if got, want := p.ring.Record(seq, v), p.model.record(seq, v, p.window); got != want {
		p.t.Fatalf("window %d: Record(%d) reports new=%v, model %v", p.window, seq, got, want)
	}
	p.check(seq)
}

// check compares the two at seq and at every edge of the horizon.
func (p *trackerPair) check(seq uint64) {
	p.t.Helper()
	if p.ring.Max != p.model.max {
		p.t.Fatalf("window %d: Max %d, model %d", p.window, p.ring.Max, p.model.max)
	}
	max := p.model.max
	for _, s := range []uint64{seq, 0, 1, max - p.window, max - p.window + 1, max - 1, max, max + 1, max + p.window} {
		if got, want := p.ring.BelowHorizon(s), p.model.belowHorizon(s, p.window); got != want {
			p.t.Fatalf("window %d, max %d: BelowHorizon(%d) = %v, model %v", p.window, max, s, got, want)
		}
		got, ok := p.ring.Get(s)
		want, wantOK := p.model.entries[s]
		if ok != wantOK || got != want {
			p.t.Fatalf("window %d, max %d: Get(%d) = %q,%v, model %q,%v", p.window, max, s, got, ok, want, wantOK)
		}
	}
}

// checkAll compares everything the two track, in order.
func (p *trackerPair) checkAll() {
	p.t.Helper()
	var seqs []uint64
	n := p.ring.Each(func(seq uint64, v string) {
		if len(seqs) > 0 && seq <= seqs[len(seqs)-1] {
			p.t.Fatalf("Each visits %d after %d", seq, seqs[len(seqs)-1])
		}
		if want, ok := p.model.entries[seq]; !ok || want != v {
			p.t.Fatalf("Each visits %d=%q, model %q,%v", seq, v, want, ok)
		}
		seqs = append(seqs, seq)
	})
	if len(seqs) != len(p.model.entries) || n != len(seqs) {
		p.t.Fatalf("window %d: ring tracks %d (Each counts %d), model %d", p.window, len(seqs), n, len(p.model.entries))
	}
	clone := p.ring.Clone()
	before, _ := p.ring.Get(p.ring.Max)
	clone.Record(p.ring.Max, before+"'")
	if after, _ := p.ring.Get(p.ring.Max); after != before {
		p.t.Fatal("a clone shares state with its origin")
	}
}

// play interprets a byte stream as operations: each step picks how far from
// the current maximum to record (including the jumps that matter: +1,
// +window, +window+1, +2^40, re-records, the horizon's edges, seq 0).
func (p *trackerPair) play(ops []byte) {
	p.t.Helper()
	for i := 0; i+1 < len(ops); i += 2 {
		max, w, arg := p.model.max, p.window, uint64(ops[i+1])
		var seq uint64
		switch ops[i] % 10 {
		case 0:
			seq = max + 1
		case 1:
			seq = max + w
		case 2:
			seq = max + w + 1
		case 3:
			seq = max + 1<<40
		case 4:
			seq = max // re-record
		case 5:
			seq = max - w // at the horizon (wraps while max < window)
		case 6:
			seq = max - w + 1
		case 7:
			seq = max - arg%(w+2) // somewhere in or just below the window
		case 8:
			seq = max + arg
		case 9:
			seq = arg % 3 // 0, 1, 2
		}
		p.record(seq, strconv.FormatUint(uint64(i)<<8|arg, 10))
	}
	p.checkAll()
}

func TestSeqTrackerMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, window := range []uint64{1, 2, 3, 8, 1024} {
		for round := 0; round < 200; round++ {
			ops := make([]byte, 2*(1+rng.Intn(64)))
			rng.Read(ops)
			newTrackerPair(t, window).play(ops)
		}
	}
	// Seq 0 is an ordinary sequence number: unrecorded until recorded, gone
	// once the horizon passes it, and never resurrected by the empty slot it
	// shares with seq window.
	p := newTrackerPair(t, 4)
	p.check(0)
	p.record(2, "7")
	p.check(0)
	p.record(0, "5")
	p.record(4, "9")
	p.record(0, "6")
	p.checkAll()
	// The top of the sequence space.
	p = newTrackerPair(t, 4)
	p.record(1<<64-2, "1")
	p.record(1<<64-1, "2")
	p.checkAll()
}

func FuzzSeqTracker(f *testing.F) {
	f.Add(uint16(8), []byte{9, 0, 0, 0, 1, 0, 2, 0, 5, 0, 6, 0, 9, 0})
	f.Add(uint16(1024), []byte{3, 0, 7, 200, 4, 0, 0, 0, 2, 0})
	f.Add(uint16(1), []byte{9, 0, 0, 0, 0, 0, 4, 0})
	f.Add(uint16(3), binary.BigEndian.AppendUint64(nil, 0x0801_0702_0503_0604))
	f.Fuzz(func(t *testing.T, window uint16, ops []byte) {
		if window == 0 {
			return
		}
		newTrackerPair(t, uint64(window)).play(ops)
	})
}

// The hot questions — is it recorded, record it — touch one slot and
// allocate nothing.
func TestSeqTrackerAllocatesNothing(t *testing.T) {
	st := NewSeqTracker(DefaultSeqWindow)
	seq := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		seq++
		st.Record(seq, "OK")
		if _, ok := st.Get(seq); !ok || st.BelowHorizon(seq) {
			t.Fatal("recorded seq not tracked")
		}
	}); n != 0 {
		t.Fatalf("Record+Get allocate %v times per call", n)
	}
}
