package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Incremental checkpoints: a large state machine should not pay a full
// re-encode (and a full disk write, and a full transfer) every interval when
// only a sliver of it changed. A Checkpoint is therefore either a Full state
// encoding or a Delta — a binary diff against the previous checkpoint's
// state — with a periodic full snapshot bounding every recovery chain, and a
// chain digest binding each checkpoint to its whole ancestry so a corrupted
// or substituted link is detected before it can poison a restore.
//
// The delta codec is rsync-shaped: the base state is cut into fixed-size
// blocks indexed by a rolling hash, the target is scanned with the same
// rolling hash, and matches become COPY ops (extended greedily in both
// value and length) while unmatched bytes become literals. Because the
// deterministic state encodings emitted by Snapshotter implementations are
// key-sorted, a small mutation perturbs a few blocks and the rest of the
// state re-synchronizes immediately — a 1% mutation rate costs a few
// percent of the full encoding, not all of it.

// CheckpointKind discriminates full checkpoints from deltas.
type CheckpointKind uint8

// Checkpoint kinds.
const (
	// FullCheckpoint carries the complete state encoding.
	FullCheckpoint CheckpointKind = 1
	// DeltaCheckpoint carries a binary delta against the previous
	// checkpoint's state (identified by BaseInstance).
	DeltaCheckpoint CheckpointKind = 2
)

// Checkpoint is one link of an incremental checkpoint chain.
type Checkpoint struct {
	// Kind says whether Payload is a full state or a delta.
	Kind CheckpointKind
	// LastInstance / LogIndex mirror Snapshot: the consensus watermark and
	// global log index this checkpoint covers.
	LastInstance uint64
	LogIndex     uint64
	// BaseInstance is the LastInstance of the checkpoint the delta was
	// computed against (zero for full checkpoints).
	BaseInstance uint64
	// Chain is the chain digest through this checkpoint:
	// sha256(chainTag ‖ Digest(snapshot)) for a full checkpoint,
	// sha256(prevChain ‖ Digest(snapshot)) for a delta. A decoder that
	// tracks the chain verifies every reconstructed snapshot against it.
	Chain [32]byte
	// Payload is the full state encoding or the delta bytes.
	Payload []byte
}

// ckptMagic prefixes every encoded checkpoint (versioned).
const ckptMagic = "GCCKPT1\n"

// chainTag seeds the chain digest at every full checkpoint, domain-separating
// it from raw snapshot digests.
const chainTag = "genconsensus/chain/full\n"

// MaxDeltaBytes bounds the payload a checkpoint decoder accepts: a delta is
// at worst the whole target as one literal plus framing, so anything past
// MaxStateBytes plus slack is hostile.
const MaxDeltaBytes = MaxStateBytes + 4096

// AppendCheckpoint appends the deterministic serialization of c to dst and
// returns the extended slice (the repo-wide append codec convention):
//
//	enc := magic kind(u8) lastInstance(u64) logIndex(u64) baseInstance(u64)
//	       chain(32) payloadLen(u32) payload
func AppendCheckpoint(dst []byte, c *Checkpoint) []byte {
	dst = append(dst, ckptMagic...)
	dst = append(dst, byte(c.Kind))
	dst = binary.BigEndian.AppendUint64(dst, c.LastInstance)
	dst = binary.BigEndian.AppendUint64(dst, c.LogIndex)
	dst = binary.BigEndian.AppendUint64(dst, c.BaseInstance)
	dst = append(dst, c.Chain[:]...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(c.Payload)))
	dst = append(dst, c.Payload...)
	return dst
}

// DecodeCheckpoint parses an AppendCheckpoint encoding, rejecting truncated,
// oversized, trailing-byte or unknown-kind encodings.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	header := len(ckptMagic) + 61
	if len(data) < header {
		return nil, fmt.Errorf("%w: %d checkpoint bytes", ErrMalformed, len(data))
	}
	if string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad checkpoint magic", ErrMalformed)
	}
	rest := data[len(ckptMagic):]
	c := &Checkpoint{Kind: CheckpointKind(rest[0])}
	if c.Kind != FullCheckpoint && c.Kind != DeltaCheckpoint {
		return nil, fmt.Errorf("%w: checkpoint kind %d", ErrMalformed, c.Kind)
	}
	c.LastInstance = binary.BigEndian.Uint64(rest[1:9])
	c.LogIndex = binary.BigEndian.Uint64(rest[9:17])
	c.BaseInstance = binary.BigEndian.Uint64(rest[17:25])
	copy(c.Chain[:], rest[25:57])
	payloadLen := binary.BigEndian.Uint32(rest[57:61])
	if payloadLen > MaxDeltaBytes {
		return nil, fmt.Errorf("%w: %d payload bytes", ErrTooLarge, payloadLen)
	}
	rest = rest[61:]
	if len(rest) != int(payloadLen) {
		return nil, fmt.Errorf("%w: payload length %d, have %d", ErrMalformed, payloadLen, len(rest))
	}
	c.Payload = append([]byte(nil), rest...)
	return c, nil
}

// chainAfter computes the chain digest for snap given the previous link
// (zero prev with full=true starts a fresh chain).
func chainAfter(prev [32]byte, snap *Snapshot, full bool) [32]byte {
	d := Digest(snap)
	h := sha256.New()
	if full {
		h.Write([]byte(chainTag))
	} else {
		h.Write(prev[:])
	}
	h.Write(d[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// IncrementalEncoder turns a stream of snapshots into a checkpoint chain:
// every FullEvery-th checkpoint is full, the rest are deltas against their
// immediate predecessor. The zero value (or FullEvery ≤ 1) emits only full
// checkpoints. Not safe for concurrent use.
type IncrementalEncoder struct {
	// FullEvery is the full-snapshot period: 4 means full, delta, delta,
	// delta, full, … Values ≤ 1 disable deltas.
	FullEvery int

	count int
	base  *Snapshot
	chain [32]byte
}

// Reset forgets the chain: the next Encode emits a full checkpoint. Use it
// after the base state is known to be out of sync (e.g. a snapshot was
// installed from a peer rather than produced locally).
func (e *IncrementalEncoder) Reset() {
	e.count = 0
	e.base = nil
	e.chain = [32]byte{}
}

// Encode emits the next link of the chain for snap.
func (e *IncrementalEncoder) Encode(snap *Snapshot) *Checkpoint {
	full := e.base == nil || e.FullEvery <= 1 || e.count%e.FullEvery == 0
	c := &Checkpoint{
		LastInstance: snap.LastInstance,
		LogIndex:     snap.LogIndex,
	}
	if full {
		c.Kind = FullCheckpoint
		c.Payload = append([]byte(nil), snap.State...)
	} else {
		c.Kind = DeltaCheckpoint
		c.BaseInstance = e.base.LastInstance
		c.Payload = EncodeDelta(e.base.State, snap.State)
	}
	e.chain = chainAfter(e.chain, snap, full)
	c.Chain = e.chain
	e.base = &Snapshot{
		LastInstance: snap.LastInstance,
		LogIndex:     snap.LogIndex,
		State:        append([]byte(nil), snap.State...),
	}
	e.count++
	return c
}

// Errors returned by the incremental decoder.
var (
	// ErrChainBroken reports a checkpoint whose chain digest does not match
	// the reconstructed state's ancestry — corruption, truncation or
	// substitution somewhere in the chain.
	ErrChainBroken = fmt.Errorf("snapshot: checkpoint chain digest mismatch")
	// ErrNoBase reports a delta checkpoint applied without its base.
	ErrNoBase = fmt.Errorf("snapshot: delta checkpoint without its base")
)

// IncrementalDecoder replays a checkpoint chain back into snapshots,
// verifying every link's chain digest. Apply a full checkpoint first, then
// each delta in order. Not safe for concurrent use.
type IncrementalDecoder struct {
	snap  *Snapshot
	chain [32]byte
}

// Apply reconstructs the snapshot a checkpoint stands for and advances the
// chain. Full checkpoints restart the chain; deltas require the immediately
// preceding checkpoint to have been applied.
func (d *IncrementalDecoder) Apply(c *Checkpoint) (*Snapshot, error) {
	var state []byte
	switch c.Kind {
	case FullCheckpoint:
		state = append([]byte(nil), c.Payload...)
	case DeltaCheckpoint:
		if d.snap == nil {
			return nil, ErrNoBase
		}
		if d.snap.LastInstance != c.BaseInstance {
			return nil, fmt.Errorf("%w: delta bases on instance %d, have %d",
				ErrNoBase, c.BaseInstance, d.snap.LastInstance)
		}
		var err error
		state, err = ApplyDelta(d.snap.State, c.Payload)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: checkpoint kind %d", ErrMalformed, c.Kind)
	}
	snap := &Snapshot{LastInstance: c.LastInstance, LogIndex: c.LogIndex, State: state}
	want := chainAfter(d.chain, snap, c.Kind == FullCheckpoint)
	if want != c.Chain {
		return nil, fmt.Errorf("%w: instance %d", ErrChainBroken, c.LastInstance)
	}
	d.snap = snap
	d.chain = c.Chain
	return snap, nil
}

// Delta codec: magic, base/target lengths (sanity against applying a delta
// to the wrong base), then COPY/LIT ops.
const (
	deltaMagic = "GCDIFF1\n"
	opCopy     = 0x01
	opLiteral  = 0x02

	// deltaBlock is the rolling-hash block size: small enough that a single
	// mutated value costs at most a few blocks of literals, large enough
	// that the block index and op framing stay cheap.
	deltaBlock = 64
)

// rollPrime drives the polynomial rolling hash.
const rollPrime = 16777619

// rollPow is rollPrime^(deltaBlock-1) mod 2^32, precomputed for rolling out
// the leading byte.
var rollPow = func() uint32 {
	p := uint32(1)
	for i := 0; i < deltaBlock-1; i++ {
		p *= rollPrime
	}
	return p
}()

// rollHash hashes one full block.
func rollHash(b []byte) uint32 {
	var h uint32
	for _, c := range b {
		h = h*rollPrime + uint32(c)
	}
	return h
}

// EncodeDelta computes a binary delta such that
// ApplyDelta(base, EncodeDelta(base, target)) == target. Worst case (nothing
// matches) the delta is the target plus a few bytes of framing.
func EncodeDelta(base, target []byte) []byte {
	buf := make([]byte, 0, len(deltaMagic)+16+len(target)/8)
	buf = append(buf, deltaMagic...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(base)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(target)))

	// Index the base's aligned blocks by weak hash.
	index := make(map[uint32][]int, len(base)/deltaBlock+1)
	for off := 0; off+deltaBlock <= len(base); off += deltaBlock {
		h := rollHash(base[off : off+deltaBlock])
		index[h] = append(index[h], off)
	}

	emitLiteral := func(lit []byte) []byte {
		if len(lit) > 0 {
			buf = append(buf, opLiteral)
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(lit)))
			buf = append(buf, lit...)
		}
		return buf
	}

	litStart := 0
	i := 0
	var h uint32
	hashed := false
	for i+deltaBlock <= len(target) {
		if !hashed {
			h = rollHash(target[i : i+deltaBlock])
			hashed = true
		}
		matched := false
		for _, off := range index[h] {
			if !bytes.Equal(base[off:off+deltaBlock], target[i:i+deltaBlock]) {
				continue
			}
			// Extend the match greedily past the block.
			length := deltaBlock
			for off+length < len(base) && i+length < len(target) &&
				base[off+length] == target[i+length] {
				length++
			}
			buf = emitLiteral(target[litStart:i])
			buf = append(buf, opCopy)
			buf = binary.BigEndian.AppendUint32(buf, uint32(off))
			buf = binary.BigEndian.AppendUint32(buf, uint32(length))
			i += length
			litStart = i
			hashed = false
			matched = true
			break
		}
		if !matched {
			// Roll the hash one byte forward.
			if i+deltaBlock < len(target) {
				h = (h-uint32(target[i])*rollPow)*rollPrime + uint32(target[i+deltaBlock])
			}
			i++
		}
	}
	buf = emitLiteral(target[litStart:])
	return buf
}

// ApplyDelta reconstructs the target from the base and a delta, rejecting
// malformed frames, wrong-base deltas and out-of-bounds copies.
func ApplyDelta(base, delta []byte) ([]byte, error) {
	if len(delta) < len(deltaMagic)+8 || string(delta[:len(deltaMagic)]) != deltaMagic {
		return nil, fmt.Errorf("%w: bad delta frame", ErrMalformed)
	}
	rest := delta[len(deltaMagic):]
	baseLen := binary.BigEndian.Uint32(rest[0:4])
	targetLen := binary.BigEndian.Uint32(rest[4:8])
	if int(baseLen) != len(base) {
		return nil, fmt.Errorf("%w: delta bases on %d bytes, have %d", ErrMalformed, baseLen, len(base))
	}
	if targetLen > MaxStateBytes {
		return nil, fmt.Errorf("%w: %d target bytes", ErrTooLarge, targetLen)
	}
	rest = rest[8:]
	// Pre-size for the common case (a target about the size of base plus
	// literals), not for the declared length: a few hostile bytes must not
	// buy a MaxStateBytes allocation.
	out := make([]byte, 0, min(int(targetLen), len(base)+len(rest)))
	for len(rest) > 0 {
		op := rest[0]
		rest = rest[1:]
		switch op {
		case opCopy:
			if len(rest) < 8 {
				return nil, fmt.Errorf("%w: truncated copy op", ErrMalformed)
			}
			off := binary.BigEndian.Uint32(rest[0:4])
			length := binary.BigEndian.Uint32(rest[4:8])
			rest = rest[8:]
			if uint64(off)+uint64(length) > uint64(len(base)) {
				return nil, fmt.Errorf("%w: copy [%d, %d) past base end %d",
					ErrMalformed, off, off+length, len(base))
			}
			out = append(out, base[off:off+length]...)
		case opLiteral:
			if len(rest) < 4 {
				return nil, fmt.Errorf("%w: truncated literal op", ErrMalformed)
			}
			length := binary.BigEndian.Uint32(rest[0:4])
			rest = rest[4:]
			if uint32(len(rest)) < length {
				return nil, fmt.Errorf("%w: literal of %d bytes, %d left", ErrMalformed, length, len(rest))
			}
			out = append(out, rest[:length]...)
			rest = rest[length:]
		default:
			return nil, fmt.Errorf("%w: delta op %#x", ErrMalformed, op)
		}
		if uint32(len(out)) > targetLen {
			return nil, fmt.Errorf("%w: delta overruns target length %d", ErrMalformed, targetLen)
		}
	}
	if uint32(len(out)) != targetLen {
		return nil, fmt.Errorf("%w: delta yields %d bytes, declared %d", ErrMalformed, len(out), targetLen)
	}
	return out, nil
}
