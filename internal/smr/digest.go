package smr

import (
	"crypto/sha256"
	"strings"
	"sync"

	"genconsensus/internal/adversary"
	"genconsensus/internal/model"
)

// Digest voting decouples value dissemination from agreement (Liang &
// Vaidya's multi-valued construction): a proposer publishes its encoded
// batch once on the content-addressed payload plane and votes with a
// constant-size digest value, so consensus rounds carry 32 bytes instead
// of repeating the batch in every message. A digest vote is just a
// model.Value with a magic prefix — it flows through the round machinery,
// the wire codec and the decision plumbing unchanged.
//
// The safety rule is resolve-before-weigh: the chooser treats a digest it
// cannot resolve to a locally-held payload exactly like a malformed batch
// (weight zero), so a Byzantine proposer gains nothing by voting digests
// of payloads it never published — the PR-4 invariant "fabricated load
// never outweighs honest load" extends to fabricated *references*. The
// decided digest is resolved back to the batch before it reaches the WAL,
// the log and the state machine; the replicated log never stores digests.

// digestMagic prefixes every digest vote. Like batchMagic it contains a
// control byte no client command and no batch encoding starts with, so the
// three value kinds are mutually unambiguous.
const digestMagic = "\x01dgst\x01"

// DigestVoteSize is the exact encoded size of a digest vote.
const DigestVoteSize = len(digestMagic) + sha256.Size

// DigestVote encodes a content address as a consensus value.
func DigestVote(sum [sha256.Size]byte) model.Value {
	b := make([]byte, 0, DigestVoteSize)
	b = append(b, digestMagic...)
	b = append(b, sum[:]...)
	return model.Value(b)
}

// IsDigestVote reports whether v carries the digest-vote magic.
func IsDigestVote(v model.Value) bool {
	return strings.HasPrefix(string(v), digestMagic)
}

// DigestKey extracts the content address from a digest vote. It is strict:
// a magic-prefixed value of any other length is Byzantine junk, not a
// vote, and resolves to nothing.
func DigestKey(v model.Value) ([sha256.Size]byte, bool) {
	var sum [sha256.Size]byte
	if len(v) != DigestVoteSize || !IsDigestVote(v) {
		return sum, false
	}
	copy(sum[:], v[len(digestMagic):])
	return sum, true
}

// DigestOf computes the content address of an encoded value.
func DigestOf(v model.Value) [sha256.Size]byte {
	return sha256.Sum256([]byte(v))
}

// ByDigest is the announce rule of both runtimes: a proposal travels by
// digest — published once on the payload plane and voted as its content
// address — when it is a batch longer than a digest vote. Singletons and
// NoOp stay in the clear: the digest pays for itself only when the batch
// is bigger than the vote.
func ByDigest(v model.Value) bool {
	return IsBatch(v) && len(v) > DigestVoteSize
}

// DigestResolver maps content addresses back to the values they name. The
// transport's PayloadStore implements it for the TCP path; DigestTable
// models it for the simulator.
type DigestResolver interface {
	// ResolveDigest returns the value whose digest is sum, if the resolver
	// holds it locally. It must not block — the chooser calls it on the
	// round hot path; fetching missing payloads happens asynchronously.
	ResolveDigest(sum [sha256.Size]byte) (model.Value, bool)
}

// DigestTable is the simulator's payload plane: a shared content-addressed
// map standing in for the transport's announce/fetch dissemination, so sim
// soaks exercise digest voting (resolve-before-weigh, unresolvable
// Byzantine digests, digest decisions resolving before commit) without a
// network. Honest proposers Put before voting, mirroring the TCP rule that
// a proposer announces its payload before round 1.
type DigestTable struct {
	mu sync.Mutex
	m  map[[sha256.Size]byte]model.Value
}

// NewDigestTable returns an empty table.
func NewDigestTable() *DigestTable {
	return &DigestTable{m: make(map[[sha256.Size]byte]model.Value)}
}

// Put stores v and returns the digest vote that names it.
func (t *DigestTable) Put(v model.Value) model.Value {
	sum := DigestOf(v)
	t.mu.Lock()
	t.m[sum] = v
	t.mu.Unlock()
	return DigestVote(sum)
}

// ResolveDigest implements DigestResolver.
func (t *DigestTable) ResolveDigest(sum [sha256.Size]byte) (model.Value, bool) {
	t.mu.Lock()
	v, ok := t.m[sum]
	t.mu.Unlock()
	return v, ok
}

// Len returns the number of stored payloads.
func (t *DigestTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// HostileDigests is a Byzantine proposer voting well-formed digests of
// payloads it never published. Resolve-before-weigh must price them at
// zero — an unresolvable reference can cost the cluster an instance at
// worst (NoOp), never a commit of unknown bytes and never a wedged
// pipeline.
func HostileDigests() adversary.Strategy {
	return adversary.Fabricate{
		Label: "hostile-digests",
		Next: func(ctx *adversary.Ctx, r model.Round) model.Value {
			var sum [sha256.Size]byte
			ctx.Rng.Read(sum[:])
			return DigestVote(sum)
		},
	}
}
