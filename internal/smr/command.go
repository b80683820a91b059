package smr

import (
	"fmt"
	"slices"
	"sync"

	"genconsensus/internal/adversary"
	"genconsensus/internal/model"
	"genconsensus/internal/wire"
)

// Command envelopes. Every client command is a wire.CommandEnvelope —
// (client, seq, payload) under a client MAC — and provenance is enforced at
// three layers:
//
//   - Ingress: Replica.Submit admits only envelopes that verify and whose
//     (client, seq) has not already committed (replay at the door).
//   - Choice: CommandChooser weighs a vote by its verified, pairwise
//     distinct commands, a function of the vote alone, so a Byzantine
//     proposer's fabricated batches weigh zero and can never dominate
//     honest proposals.
//   - Apply: the state machine re-verifies and deduplicates on
//     (client, seq) — the last line of defence should a forged value ever
//     be locked past the chooser, and the one that makes a replay harmless.
//
// Whether a (client, seq) committed is asked of one record, the member's
// own state machine (StateMachine.SeqApplied: kv.Store's dedup windows,
// which travel inside its checkpoints); the choice never asks it. Whether
// bytes verify is asked of the AuthContext, a pure verification cache
// holding no member state, which answers by the command's (client, seq),
// never by hashing its bytes:
//
//   - verdicts: per client, a ring of window slots indexed by seq, each
//     holding the last envelope that verified there. A value is known-good
//     iff its slot holds byte-equal bytes; anything else — first sight, an
//     equivocating client's second payload, a forgery under a genuine
//     identity — runs the HMAC. A ring appears with its client's first
//     verified command (16 KiB) and pins at most verdictRingBytes of
//     envelopes; past that a command is verified but not remembered.
//   - batches: the weight of a whole batch value, good (its entry count)
//     or bad (zero), keyed by its bytes and bounded by entries and bytes.
//
// Failed verdicts are not remembered per command — a slot vouches for one
// envelope, and a forgery must not displace the genuine one — so a forged
// singleton costs one HMAC per evaluation, as any first sight does; a
// forged batch is judged once, because batches does remember it.

// CommandAuth verifies client command MACs, over byte slices and — for
// identify, which holds payload and MAC as substrings of the envelope value
// — over strings without copies. auth.ClientKeyring implements it; the
// indirection keeps smr free of a crypto dependency and lets tests
// substitute pathological verifiers.
type CommandAuth interface {
	VerifyCommand(client uint32, seq uint64, payload, mac []byte) bool
	VerifyCommandStr(client uint32, seq uint64, payload, mac string) bool
}

const (
	// batchCacheLimit and batchCacheBytes bound the batch-verdict table by
	// entries AND by key bytes: keys are attacker-supplied batch values, and
	// failed verdicts are cached too. Eviction is arbitrary (map order): the
	// table is a pure accelerator and correctness never depends on a hit.
	batchCacheLimit = 8192
	batchCacheBytes = 4 << 20
	// verdictRingBytes bounds the envelope bytes one client's ring may pin
	// (ordinary commands: ~170 KiB), not window × max-payload.
	verdictRingBytes = 1 << 20
)

// cmdIdent is the verdict on one envelope value: its identity, if it
// verified.
type cmdIdent struct {
	client uint32
	seq    uint64
	ok     bool
}

// key is the identity as the replica's queue index and the provenance
// audit use it for a map key.
func (id cmdIdent) key() [2]uint64 { return [2]uint64{uint64(id.client), id.seq} }

// verdictRing is one client's verified envelopes, at seq % len(slots).
type verdictRing struct {
	slots []model.Value
	bytes int // sum of the slots' lengths
}

// AuthContext is one deployment's command-verification cache: verdicts
// and batch judgements, a pure function of the bytes it is shown, with no
// record of what any member committed — so members may share one. It is
// safe for concurrent use: client handlers, pipelined chooser evaluations
// and the commit path all consult it.
type AuthContext struct {
	auth      CommandAuth
	ringSlots int // verdict-ring slots per client

	mu         sync.Mutex
	verdicts   map[uint32]*verdictRing
	batches    map[model.Value]int // a batch value's weight
	batchBytes int
}

// NewAuthContext builds a context over the verifier. ringSlots sizes each
// client's verdict ring, one slot per seq (<= 0 picks
// wire.DefaultSeqWindow, the store's dedup horizon).
func NewAuthContext(auth CommandAuth, ringSlots int) *AuthContext {
	if ringSlots <= 0 {
		ringSlots = wire.DefaultSeqWindow
	}
	return &AuthContext{
		auth:      auth,
		ringSlots: ringSlots,
		verdicts:  make(map[uint32]*verdictRing),
		batches:   make(map[model.Value]int),
	}
}

// identify decodes and verifies one value as a command envelope. The
// verdict on bytes already verified is found in the client's ring; any
// other bytes run the MAC.
func (a *AuthContext) identify(v model.Value) cmdIdent {
	client, seq, payload, mac, err := wire.DecodeCommandParts(string(v))
	if err != nil {
		return cmdIdent{}
	}
	id := cmdIdent{client: client, seq: seq, ok: true}
	a.mu.Lock()
	ring := a.verdicts[client]
	hit := ring != nil && ring.slots[seq%uint64(len(ring.slots))] == v
	a.mu.Unlock()
	if hit {
		return id
	}
	if !a.auth.VerifyCommandStr(client, seq, payload, mac) {
		return cmdIdent{}
	}
	a.Preverify(v, client, seq)
	return id
}

// Preverify records a verification verdict obtained out of band: the
// caller certifies that v is the canonical encoding of a valid envelope
// for (client, seq). The session ingress path uses it — after checking a
// client's cheap session MAC and minting the envelope itself, re-verifying
// the full command HMAC it just computed would be pure waste. Preverify
// must never be fed unverified bytes.
func (a *AuthContext) Preverify(v model.Value, client uint32, seq uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ring := a.verdicts[client]
	if ring == nil {
		ring = &verdictRing{slots: make([]model.Value, a.ringSlots)}
		a.verdicts[client] = ring
	}
	slot := &ring.slots[seq%uint64(len(ring.slots))]
	if grown := ring.bytes - len(*slot) + len(v); grown <= verdictRingBytes {
		*slot, ring.bytes = v, grown
	}
}

// batchWeight judges a batch value once — decode, verify every entry,
// reject duplicate (client, seq) identities — and caches the weight by the
// batch bytes. The chooser weighs the same batch value in every pipelined
// evaluation; without this cache each evaluation re-decodes the batch and
// re-hits the per-command cache N times.
func (a *AuthContext) batchWeight(v model.Value) int {
	a.mu.Lock()
	w, ok := a.batches[v]
	a.mu.Unlock()
	if ok {
		return w
	}
	w = a.judgeBatch(v)
	a.mu.Lock()
	if _, raced := a.batches[v]; !raced {
		for len(a.batches) > 0 &&
			(len(a.batches) >= batchCacheLimit || a.batchBytes+len(v) > batchCacheBytes) {
			for k := range a.batches {
				delete(a.batches, k)
				a.batchBytes -= len(k)
				break
			}
		}
		a.batches[v] = w
		a.batchBytes += len(v)
	}
	a.mu.Unlock()
	return w
}

func (a *AuthContext) judgeBatch(v model.Value) int {
	cmds, err := DecodeBatch(v)
	if err != nil {
		return 0
	}
	ids := make([]cmdIdent, 0, len(cmds))
	for _, cmd := range cmds {
		id := a.identify(cmd)
		// Identities must be pairwise distinct. No per-evaluation map: at most
		// MaxBatchSize entries, so the scan stays tiny and allocation-free.
		if !id.ok || slices.Contains(ids, id) {
			return 0
		}
		ids = append(ids, id)
	}
	return len(ids)
}

// VerifyValue reports whether v is a well-formed envelope with a valid MAC.
func (a *AuthContext) VerifyValue(v model.Value) bool {
	return a.identify(v).ok
}

// VerifyCommand delegates to the underlying verifier, so an AuthContext
// can stand in wherever a bare CommandAuth (or kv.CommandVerifier) is
// expected — e.g. kv.Store.EnableClientAuth, where passing the context
// instead of the keyring lets the apply path share the verdict cache
// through kv.ValueVerifier.
func (a *AuthContext) VerifyCommand(client uint32, seq uint64, payload, mac []byte) bool {
	return a.auth.VerifyCommand(client, seq, payload, mac)
}

// Weight is the number of verified, pairwise-distinct commands v carries:
// a batch weighs its entries, a plain envelope one, and NoOp nothing. One
// fabricated entry (bad MAC, truncated envelope, unknown client, stripped
// signature) zeroes the whole batch, as does one (client, seq) identity
// appearing twice (an equivocating client's double-signed seq) — an honest
// proposer can never build either, since Submit verifies at ingress and
// admits each identity once, so such a batch is Byzantine by construction.
//
// It is a function of v alone, so every member weighs one vote alike,
// whatever it has committed. What it gives up: a replayed batch of genuine
// commands weighs its entries, and can win a selection round. Deciding it
// costs that instance — each store applies a (client, seq) at most once,
// so the replay changes no state — and the honest commands stay queued for
// the next. The chooser ranks votes by it, and a follower adopts its
// instance owner's proposal only when it is positive.
func (a *AuthContext) Weight(v model.Value) int {
	switch {
	case v == model.NoValue || v == NoOp:
		return 0
	case IsBatch(v):
		return a.batchWeight(v)
	case a.identify(v).ok:
		return 1
	}
	return 0
}

// --- Byzantine command-injection strategies ---------------------------------
//
// These live in smr rather than internal/adversary because forging
// convincing batches needs the batch codec (adversary cannot import smr —
// smr imports it). Each wraps the generic adversary.Fabricate shell, which
// supplies honest-looking round metadata around an attacker-chosen vote.

// FabricateCommands is a Byzantine proposer pushing batches of commands no
// client ever issued: well-formed envelopes under invented clients with
// garbage MACs. Their structure is perfect; provenance verification must
// refuse them.
func FabricateCommands(start uint64) adversary.Strategy {
	counter := start
	return adversary.Fabricate{
		Label: "fabricate-commands",
		Next: func(ctx *adversary.Ctx, r model.Round) model.Value {
			cmds := make([]model.Value, 0, 4)
			for i := 0; i < 4; i++ {
				counter++
				mac := make([]byte, wire.CommandMACSize)
				ctx.Rng.Read(mac)
				enc, err := wire.EncodeCommand(wire.CommandEnvelope{
					Client:  uint32(ctx.Rng.Intn(1 << 16)),
					Seq:     counter,
					Payload: fmt.Sprintf("fab-%d|SET|forged-key-%d|forged-%d", counter, counter, counter),
					MAC:     mac,
				})
				if err != nil {
					continue
				}
				cmds = append(cmds, model.Value(enc))
			}
			batch, err := EncodeBatch(cmds)
			if err != nil {
				return cmds[0]
			}
			return batch
		},
	}
}

// ReplayCommands is a Byzantine proposer re-proposing genuinely signed
// commands it captured earlier (the pool — e.g. the previously committed
// log). The MACs verify, so its batches weigh their entries and may be
// chosen; each member's record of what committed makes a decided replay
// change nothing.
func ReplayCommands(pool []model.Value) adversary.Strategy {
	captured := append([]model.Value(nil), pool...)
	return adversary.Fabricate{
		Label: "replay-commands",
		Next: func(ctx *adversary.Ctx, r model.Round) model.Value {
			if len(captured) == 0 {
				return model.Value("replay-empty")
			}
			k := ctx.Rng.Intn(len(captured)) + 1
			if k > MaxBatchSize {
				k = MaxBatchSize
			}
			start := ctx.Rng.Intn(len(captured))
			cmds := make([]model.Value, 0, k)
			seen := make(map[model.Value]bool, k)
			for i := 0; i < k; i++ {
				cmd := captured[(start+i)%len(captured)]
				if seen[cmd] {
					continue
				}
				seen[cmd] = true
				cmds = append(cmds, cmd)
			}
			batch, err := EncodeBatch(cmds)
			if err != nil {
				return cmds[0]
			}
			return batch
		},
	}
}

// StripSignatures is a Byzantine proposer submitting the raw application
// payloads of real commands with their envelopes removed — a downgrade to
// unsigned commands. A bare payload has no provenance and must weigh zero.
func StripSignatures(payloads []model.Value) adversary.Strategy {
	stripped := make([]model.Value, 0, len(payloads))
	for _, p := range payloads {
		if env, err := wire.DecodeCommand(string(p)); err == nil {
			stripped = append(stripped, model.Value(env.Payload))
		} else {
			stripped = append(stripped, p)
		}
	}
	return adversary.Fabricate{
		Label: "strip-signatures",
		Next: func(ctx *adversary.Ctx, r model.Round) model.Value {
			if len(stripped) == 0 {
				return model.Value("stripped-empty")
			}
			k := ctx.Rng.Intn(8) + 1
			start := ctx.Rng.Intn(len(stripped))
			cmds := make([]model.Value, 0, k)
			seen := make(map[model.Value]bool, k)
			for i := 0; i < k; i++ {
				cmd := stripped[(start+i)%len(stripped)]
				if seen[cmd] || cmd == model.NoValue || cmd == NoOp || IsBatch(cmd) {
					continue
				}
				seen[cmd] = true
				cmds = append(cmds, cmd)
			}
			if len(cmds) == 0 {
				return model.Value("stripped-empty")
			}
			batch, err := EncodeBatch(cmds)
			if err != nil {
				return cmds[0]
			}
			return batch
		},
	}
}
