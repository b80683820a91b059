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
//   - Choice: CommandChooser weighs only verified, non-replayed commands,
//     so a Byzantine proposer's fabricated or replayed batches weigh zero
//     and can never dominate honest proposals.
//   - Apply: the state machine re-verifies and deduplicates on
//     (client, seq) — the last line of defence should a forged value ever
//     be locked past the chooser.
//
// All three ask the same questions of the same bytes; AuthContext answers
// them by the command's (client, seq), never by hashing its bytes:
//
//   - verdicts: per client, a ring of window slots indexed by seq, each
//     holding the last envelope that verified there. A value is known-good
//     iff its slot holds byte-equal bytes; anything else — first sight, an
//     equivocating client's second payload, a forgery under a genuine
//     identity — runs the HMAC. A ring appears with its client's first
//     verified command (16 KiB) and pins at most verdictRingBytes of
//     envelopes; past that a command is verified but not remembered.
//   - batches: the judgement of a whole batch value, good or bad, keyed by
//     its bytes and bounded by entries and bytes.
//   - window: per client, the committed seqs of the window below the
//     highest one (ClientWindow, 8 KiB), exact for that window.
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

// batchIdents is a cached judgement of one batch value: the per-command
// identities if every entry verified and identities are pairwise distinct
// (ok), or a permanently-zero verdict otherwise. Replay status is NOT
// cached — it changes as commits advance the window — so weighing a cached
// batch re-checks only the window per identity.
type batchIdents struct {
	ids []cmdIdent
	ok  bool
}

// AuthContext is one deployment's command-authentication state. It is safe
// for concurrent use: client handlers, pipelined chooser evaluations and
// the commit path all consult it.
type AuthContext struct {
	auth CommandAuth

	mu         sync.Mutex
	verdicts   map[uint32]*verdictRing
	batches    map[model.Value]batchIdents
	batchBytes int
	window     *ClientWindow
}

// NewAuthContext builds a context over the verifier. window bounds the
// per-client replay horizon (see NewClientWindow); windowSize <= 0 picks
// DefaultSeqWindow.
func NewAuthContext(auth CommandAuth, windowSize int) *AuthContext {
	return &AuthContext{
		auth:     auth,
		verdicts: make(map[uint32]*verdictRing),
		batches:  make(map[model.Value]batchIdents),
		window:   NewClientWindow(windowSize),
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
		ring = &verdictRing{slots: make([]model.Value, a.window.window)}
		a.verdicts[client] = ring
	}
	slot := &ring.slots[seq%uint64(len(ring.slots))]
	if grown := ring.bytes - len(*slot) + len(v); grown <= verdictRingBytes {
		*slot, ring.bytes = v, grown
	}
}

// identifyBatch judges a batch value once — decode, verify every entry,
// reject duplicate (client, seq) identities — and caches the result by the
// batch bytes. The chooser weighs the same batch value in every pipelined
// evaluation; without this cache each evaluation re-decodes the batch and
// re-hits the per-command cache N times.
func (a *AuthContext) identifyBatch(v model.Value) batchIdents {
	a.mu.Lock()
	bi, ok := a.batches[v]
	a.mu.Unlock()
	if ok {
		return bi
	}
	bi = a.judgeBatch(v)
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
		a.batches[v] = bi
		a.batchBytes += len(v)
	}
	a.mu.Unlock()
	return bi
}

func (a *AuthContext) judgeBatch(v model.Value) batchIdents {
	cmds, err := DecodeBatch(v)
	if err != nil {
		return batchIdents{}
	}
	ids := make([]cmdIdent, 0, len(cmds))
	for _, cmd := range cmds {
		id := a.identify(cmd)
		// Identities must be pairwise distinct. No per-evaluation map: at most
		// MaxBatchSize entries, so the scan stays tiny and allocation-free.
		if !id.ok || slices.Contains(ids, id) {
			return batchIdents{}
		}
		ids = append(ids, id)
	}
	return batchIdents{ids: ids, ok: true}
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

// Replayed reports whether v's (client, seq) has already committed. Values
// that fail verification report false — they are rejected as fabricated,
// not as replays.
func (a *AuthContext) Replayed(v model.Value) bool {
	id := a.identify(v)
	return id.ok && a.window.Seen(id.client, id.seq)
}

// RecordCommitted marks a committed command's (client, seq) in the replay
// window. Values that do not verify (NoOp, anything unsigned) are ignored.
func (a *AuthContext) RecordCommitted(v model.Value) {
	if id := a.identify(v); id.ok {
		a.window.Record(id.client, id.seq)
	}
}

// Weight is the number of verified, non-replayed commands v would commit:
// a batch weighs its entries, a plain envelope one, and NoOp nothing. One
// fabricated entry (bad MAC, truncated envelope, unknown client, stripped
// signature) zeroes the whole batch, as does one (client, seq) identity
// appearing twice under different payload bytes (an equivocating client's
// double-signed seq) — an honest proposer can never build either, since
// Submit verifies at ingress and admits each identity once, so such a
// batch is Byzantine by construction. Replayed entries merely don't count:
// honest replicas do transiently re-propose committed commands when queues
// diverge (see CommitQueue), and zeroing their batches for it would starve
// the queue.
//
// The chooser ranks votes by it, and a follower adopts its instance
// owner's proposal only when it is positive: every entry verifies, the
// identities are distinct and at least one has not committed.
func (a *AuthContext) Weight(v model.Value) int {
	if v == model.NoValue || v == NoOp {
		return 0
	}
	if IsBatch(v) {
		bi := a.identifyBatch(v)
		if !bi.ok {
			return 0
		}
		w := 0
		a.window.mu.Lock()
		for _, id := range bi.ids {
			if !a.window.seenLocked(id.client, id.seq) {
				w++
			}
		}
		a.window.mu.Unlock()
		return w
	}
	id := a.identify(v)
	if !id.ok || a.window.Seen(id.client, id.seq) {
		return 0
	}
	return 1
}

// DefaultSeqWindow is the per-client replay horizon: how many sequence
// numbers below a client's highest committed seq are tracked exactly.
// Anything at or below max-window is assumed committed (replay). Aliased
// from wire so the replay filter and the state machine's dedup window
// (kv.DefaultSeqWindow) share one source of truth.
const DefaultSeqWindow = wire.DefaultSeqWindow

// ClientWindow tracks committed (client, seq) pairs with bounded memory:
// per client, a wire.SeqTracker of the committed seqs within the window
// below the highest one. Out-of-order commits inside the window are
// handled exactly; seqs that fall off the bottom are assumed committed.
// Memory is O(clients × window), allocated at a client's first commit; the
// keyring bounds the client space (unknown clients never reach Record).
type ClientWindow struct {
	mu      sync.Mutex
	window  uint64
	clients map[uint32]*wire.SeqTracker[struct{}]
}

// NewClientWindow builds a window with the given horizon (<= 0 picks
// DefaultSeqWindow).
func NewClientWindow(window int) *ClientWindow {
	if window <= 0 {
		window = DefaultSeqWindow
	}
	return &ClientWindow{
		window:  uint64(window),
		clients: make(map[uint32]*wire.SeqTracker[struct{}]),
	}
}

// Seen reports whether (client, seq) has committed (exactly, within the
// window; assumed, below it).
func (w *ClientWindow) Seen(client uint32, seq uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seenLocked(client, seq)
}

// seenLocked is Seen for callers that hold w.mu across a whole pass.
func (w *ClientWindow) seenLocked(client uint32, seq uint64) bool {
	st, ok := w.clients[client]
	if !ok {
		return false
	}
	_, committed := st.Get(seq)
	return committed || st.BelowHorizon(seq)
}

// Record marks (client, seq) committed, advancing the client's horizon.
func (w *ClientWindow) Record(client uint32, seq uint64) { w.record(client, seq) }

// record is Record reporting whether (client, seq) was unseen until now.
func (w *ClientWindow) record(client uint32, seq uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	st, ok := w.clients[client]
	if !ok {
		st = wire.NewSeqTracker[struct{}](w.window)
		w.clients[client] = st
	}
	return st.Record(seq, struct{}{})
}

// TrackedSeqs reports how many seqs are tracked exactly for the client
// (bounded-memory tests).
func (w *ClientWindow) TrackedSeqs(client uint32) (n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if st, ok := w.clients[client]; ok {
		n = st.Each(func(uint64, struct{}) {})
	}
	return n
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
// log). The MACs verify; only the replay window can reject them.
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
