// Package kv is a replicated key-value store: the application layer of the
// SMR runtimes. Reads are served locally; every replicated write is a
// wire.CommandEnvelope (SignedCommand) whose payload is the string
// "c<client>.<seq>|OP|key[|value]" with OP in {SET, DEL}. Keys are
// non-empty and neither keys nor values contain '|' (CheckKeyValue).
//
// The store (once EnableClientAuth installs the verifier) re-verifies each
// envelope's client MAC — the last line of defence should a fabricated
// value ever be decided — and deduplicates on (client, seq) through bounded
// per-client sequence windows (fixed-size rings indexed by seq, allocated
// at a client's first command), giving at-most-once semantics. Window
// eviction follows the applied sequence, so it is deterministic across
// replicas, and the windows are part of the snapshot state: at-most-once
// survives checkpoint, transfer and restore.
//
// The store implements snapshot.Snapshotter — its full state (data map plus
// the client windows, in deterministic order) round-trips through
// SnapshotState/RestoreState — so SMR deployments can checkpoint it,
// compact their logs and transfer it to recovering replicas. A checkpoint
// is a copy-on-write view of the live state (Mark, MarkedState).
package kv

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"genconsensus/internal/auth"
	"genconsensus/internal/model"
	"genconsensus/internal/wire"
)

// CommandVerifier checks client command MACs. auth.ClientKeyring implements
// it; the local interface keeps kv free of a crypto dependency.
type CommandVerifier interface {
	VerifyCommand(client uint32, seq uint64, payload, mac []byte) bool
}

// ValueVerifier is an optional CommandVerifier extension judging a whole
// encoded envelope value at once. smr.AuthContext implements it with the
// verdicts it keeps per (client, seq) — the same bytes were already judged
// at ingress and in every chooser evaluation — so an apply that receives a
// ValueVerifier skips the per-replica HMAC recompute entirely on the hot
// path. Verification semantics are identical; only the work is shared.
type ValueVerifier interface {
	VerifyValue(v model.Value) bool
}

// DefaultSeqWindow is the per-client dedup horizon:
// how many sequence numbers below a client's highest applied seq keep exact
// responses. Sequences at or below the horizon answer RespStale without
// re-executing.
const DefaultSeqWindow = wire.DefaultSeqWindow

// Canonical responses of the apply path.
const (
	// RespUnauthenticated rejects values that are not valid envelopes
	// under the verifier (fabricated, stripped or malformed commands).
	RespUnauthenticated = "ERR unauthenticated command"
	// RespStale answers sequences below the dedup horizon: the command
	// was (assumed) applied long ago and its cached response is gone.
	RespStale = "ERR stale sequence"
)

// Store is the deterministic state machine: a string map plus per-client
// sequence windows (wire.SeqTracker carrying cached responses), maintained
// in apply order so that eviction and snapshot encoding are deterministic
// across replicas.
type Store struct {
	mu        sync.RWMutex
	data      map[string]*cell
	verify    atomic.Pointer[CommandVerifier] // nil until EnableClientAuth
	seqWindow uint64                          // per-client horizon
	clients   map[uint32]*dedup               // client → applied seq → response

	// The state at the newest Mark is kept as what changed since: gen
	// counts marks (0: never marked), and a key or window last written
	// under an older gen saves its pre-image in place at its next write.
	// touched lists the keys holding one, for Mark to drop; deleted holds
	// the keys present at the mark and deleted since.
	gen     uint64
	touched []*cell
	deleted []pair
}

// cell is one key's value, behind a pointer so that a write finds, updates
// and dates its key with one map lookup.
type cell struct {
	v, old string // old: the value at the mark, when had
	gen    uint64 // the mark generation of the last write
	had    bool
}

// dedup is one client's window, dated like a cell. old keeps its slots
// from mark to mark, so saving a pre-image allocates nothing.
type dedup struct {
	wire.SeqTracker
	old wire.SeqTracker // the window at the mark, when had
	gen uint64
	had bool // false: a client new since the mark
}

type pair struct{ k, v string }

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		data:    make(map[string]*cell),
		clients: make(map[uint32]*dedup),
	}
}

// EnableClientAuth installs the command verifier: from then on Apply
// accepts only envelopes verified by v and deduplicates on (client, seq)
// within a window of the given size per client (<= 0 picks
// DefaultSeqWindow). Call before commands are applied. Until it is called
// the store is being loaded: Apply parses a raw Command and executes it,
// with no deduplication — the way to preload state before a node exists.
func (s *Store) EnableClientAuth(v CommandVerifier, window int) {
	if window <= 0 {
		window = DefaultSeqWindow
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.verify.Store(&v)
	s.seqWindow = uint64(window)
}

// Command formats a raw command "reqID|OP|key[|value]" for a store that is
// being loaded (before EnableClientAuth). value is ignored for DEL.
func Command(reqID, op, key, value string) model.Value {
	if strings.EqualFold(op, "DEL") {
		return model.Value(reqID + "|DEL|" + key)
	}
	return model.Value(reqID + "|SET|" + key + "|" + value)
}

// AuthPayload formats the canonical application payload of an authenticated
// command: the request id is derived from (client, seq), so the signer and
// every verifying replica reconstruct the identical byte string from the
// envelope fields alone.
func AuthPayload(client uint32, seq uint64, op, key, value string) model.Value {
	return model.Value(AppendAuthPayload(nil, client, seq, op, key, value))
}

// AppendAuthPayload appends the canonical payload to dst:
// "c<client>.<seq>|OP|key[|value]". The fields may be strings or byte
// slices (a server building the payload straight from a request line); op
// is matched case-insensitively, and anything but DEL is a SET.
func AppendAuthPayload[S ~string | ~[]byte](dst []byte, client uint32, seq uint64, op, key, value S) []byte {
	dst = append(dst, 'c')
	dst = strconv.AppendUint(dst, uint64(client), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, seq, 10)
	// ASCII folding is exact here: no non-ASCII rune folds to D, E or L.
	if len(op) == 3 && op[0]|0x20 == 'd' && op[1]|0x20 == 'e' && op[2]|0x20 == 'l' {
		dst = append(dst, "|DEL|"...)
		return append(dst, key...)
	}
	dst = append(dst, "|SET|"...)
	dst = append(dst, key...)
	dst = append(dst, '|')
	return append(dst, value...)
}

// CheckKeyValue reports whether a write's key and value can travel in a
// command payload: the key is non-empty and neither contains '|', the
// payload's field separator. A value carrying one would parse as a
// malformed command at apply time — committed, its sequence consumed, and
// the write lost — so clients and ingress refuse it before signing.
func CheckKeyValue[S ~string | ~[]byte](key, value S) error {
	if len(key) == 0 {
		return errors.New("kv: empty key")
	}
	for i := 0; i < len(key); i++ {
		if key[i] == '|' {
			return errors.New("kv: '|' in key")
		}
	}
	for i := 0; i < len(value); i++ {
		if value[i] == '|' {
			return errors.New("kv: '|' in value")
		}
	}
	return nil
}

// SignedCommand builds the complete encoded command envelope for one
// operation: canonical payload, client MAC, wire encoding. It is what
// in-process clients (tests, benchmarks, bench/) submit. The key and value
// must pass CheckKeyValue.
func SignedCommand(signer *auth.ClientSigner, seq uint64, op, key, value string) (model.Value, error) {
	if err := CheckKeyValue(key, value); err != nil {
		return model.NoValue, err
	}
	client := signer.Client()
	pb := AppendAuthPayload(make([]byte, 0, 24+len(op)+len(key)+len(value)), client, seq, op, key, value)
	mac := signer.Sign(seq, pb)
	buf := make([]byte, 0, wire.EncodedCommandSize(client, seq, len(pb)))
	buf, err := wire.AppendCommandBytes(buf, client, seq, pb, mac)
	if err != nil {
		return model.NoValue, fmt.Errorf("kv: encoding signed command: %w", err)
	}
	return model.Value(buf), nil
}

// Apply implements smr.StateMachine. Before EnableClientAuth it executes a
// raw Command, undeduplicated (loading).
func (s *Store) Apply(cmd model.Value) string {
	verify := s.verify.Load()
	if verify == nil {
		_, op, key, value, err := Parse(cmd)
		if err != nil {
			return "ERR " + err.Error()
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.execLocked(op, key, value)
	}
	// Decode and MAC-check before taking the write lock: verification is a
	// pure function of the command bytes, and holding every concurrent
	// reader behind an HMAC per batched command would make the apply path a
	// read stall. A ValueVerifier answers from its shared verdict cache;
	// otherwise the MAC is recomputed here.
	client, seq, payload, macStr, err := wire.DecodeCommandParts(string(cmd))
	if err != nil {
		return RespUnauthenticated
	}
	if vv, ok := (*verify).(ValueVerifier); ok {
		if !vv.VerifyValue(cmd) {
			return RespUnauthenticated
		}
	} else if !(*verify).VerifyCommand(client, seq, []byte(payload), []byte(macStr)) {
		return RespUnauthenticated
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyAuthLocked(client, seq, payload)
}

// execLocked executes one parsed operation, saving the key's pre-image at
// its first write since the mark. Callers hold s.mu.
func (s *Store) execLocked(op, key, value string) string {
	c := s.data[key]
	switch {
	case op != "SET" && op != "DEL":
		return "ERR unknown op " + op
	case c == nil && op == "DEL":
		return "NOTFOUND"
	case c == nil:
		s.data[key] = &cell{v: value, gen: s.gen}
		return "OK"
	case c.gen != s.gen:
		c.old, c.had, c.gen = c.v, true, s.gen
		s.touched = append(s.touched, c)
	}
	if op == "SET" {
		c.v = value
		return "OK"
	}
	if c.had {
		s.deleted = append(s.deleted, pair{key, c.old})
	}
	delete(s.data, key)
	return "OK"
}

// applyAuthLocked applies an already-verified envelope: (client, seq)
// dedup through the per-client window, then execution. Everything signed is
// recorded — even a payload that fails to parse consumes its sequence
// number, so a garbage command cannot be retried into a different outcome.
// Callers hold s.mu and have verified the envelope's MAC.
func (s *Store) applyAuthLocked(client uint32, seq uint64, payload string) string {
	w, ok := s.clients[client]
	if !ok {
		w = &dedup{SeqTracker: *wire.NewSeqTracker(s.seqWindow), gen: s.gen}
		s.clients[client] = w
	}
	if w.BelowHorizon(seq) {
		return RespStale // below the horizon: applied long ago
	}
	if resp, done := w.Get(seq); done {
		return resp // duplicate client retry (or a replayed proposal)
	}
	var resp string
	if _, op, key, value, perr := Parse(model.Value(payload)); perr != nil {
		resp = "ERR " + perr.Error()
	} else {
		resp = s.execLocked(op, key, value)
	}
	if w.gen != s.gen {
		w.CopyTo(&w.old)
		w.had, w.gen = true, s.gen
	}
	w.Record(seq, resp)
	return resp
}

// ClientSeqLen reports how many responses are cached for the client
// (bounded-memory tests and metrics).
func (s *Store) ClientSeqLen(client uint32) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w, ok := s.clients[client]
	if !ok {
		return 0
	}
	return w.Each(func(uint64, string) {})
}

// ClientMaxSeq reports the client's highest applied sequence number.
func (s *Store) ClientMaxSeq(client uint32) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w, ok := s.clients[client]
	if !ok {
		return 0
	}
	return w.Max
}

// SeqApplied implements smr.StateMachine: it reports whether the client's
// sequence number seq has been applied here — either its response is still
// in the dedup window, or it fell below the exact-tracking horizon (applied
// long ago). The dedup windows are the replica's one record of what
// committed: ingress refuses and the commit path prunes what it reports,
// and read-your-writes sessions poll it — a session READ must not serve
// until the session's last write has applied here. The line-11 chooser
// never asks it: a choice that read this record would differ between
// replicas a few commits apart, so a decided replay is instead applied
// here at most once.
func (s *Store) SeqApplied(client uint32, seq uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seqAppliedLocked(client, seq)
}

// SeqsApplied answers SeqApplied for many commands under one hold of the
// read lock: fn receives the question, which is valid only while fn runs,
// and must not call back into the store. The replica asks it about every
// queued command at each commit (smr.Replica.Commit's pruning pass).
func (s *Store) SeqsApplied(fn func(applied func(client uint32, seq uint64) bool)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(s.seqAppliedLocked)
}

// seqAppliedLocked is SeqApplied for callers holding s.mu.
func (s *Store) seqAppliedLocked(client uint32, seq uint64) bool {
	w, ok := s.clients[client]
	if !ok {
		return false
	}
	if w.BelowHorizon(seq) {
		return true
	}
	_, done := w.Get(seq)
	return done
}

// SetAppliedLimit does nothing.
//
// Deprecated: the request-id table it bounded is gone; the client windows
// are bounded by construction.
func (s *Store) SetAppliedLimit(int) {}

// PruneApplied does nothing and returns 0.
//
// Deprecated: the request-id table it pruned is gone.
func (s *Store) PruneApplied(int) int { return 0 }

// Parse splits a command into its fields.
func Parse(cmd model.Value) (reqID, op, key, value string, err error) {
	reqID, rest, ok := strings.Cut(string(cmd), "|")
	if op, rest, ok = strings.Cut(rest, "|"); !ok {
		return "", "", "", "", fmt.Errorf("kv: malformed command %q", cmd)
	}
	key, value, hasValue := strings.Cut(rest, "|")
	switch op = strings.ToUpper(op); op {
	case "SET":
		if !hasValue || strings.IndexByte(value, '|') >= 0 {
			return "", "", "", "", fmt.Errorf("kv: SET needs a value: %q", cmd)
		}
	case "DEL":
		if hasValue {
			return "", "", "", "", fmt.Errorf("kv: DEL takes no value: %q", cmd)
		}
	default:
		return "", "", "", "", fmt.Errorf("kv: unknown op %q", op)
	}
	if reqID == "" || key == "" {
		return "", "", "", "", fmt.Errorf("kv: empty reqID or key: %q", cmd)
	}
	return reqID, op, key, value, nil
}

// Get serves a local read.
func (s *Store) Get(key string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if c := s.data[key]; c != nil {
		return c.v, true
	}
	return "", false
}

// GetBytes is Get keyed by bytes: the lookup does not copy the key, so a
// server answering straight from a request line allocates nothing.
func (s *Store) GetBytes(key []byte) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if c := s.data[string(key)]; c != nil {
		return c.v, true
	}
	return "", false
}

// ReadResult is one key's answer from a batched read.
type ReadResult struct {
	Value string
	Found bool
}

// GetMany answers a batch of keys under a single read-lock acquisition —
// the MREAD fast path: one watermark capture, one lock, many keys. Results
// align with keys by index.
func (s *Store) GetMany(keys []string) []ReadResult {
	out := make([]ReadResult, len(keys))
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, k := range keys {
		if c := s.data[k]; c != nil {
			out[i] = ReadResult{Value: c.v, Found: true}
		}
	}
	return out
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Snapshot copies the live data.
func (s *Store) Snapshot() map[string]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]string, len(s.data))
	for k, c := range s.data {
		out[k] = c.v
	}
	return out
}

// stateMagic versions the SnapshotState encoding. Both versions carry a
// request-id section after the data: the table of a deduplication scheme
// this store no longer has, written empty and dropped on restore. v2 adds
// the client windows; v1 (written by stores of older releases that never
// saw an envelope) is read as empty windows.
const (
	stateMagic   = "kvstate1"
	stateMagicV2 = "kvstate2"
)

// ErrBadState rejects malformed or foreign state encodings.
var ErrBadState = errors.New("kv: malformed state encoding")

// SnapshotState returns the live state's deterministic v2
// encoding of the data map (sorted by key), an empty request-id section and
// the per-client sequence windows (clients sorted by id, seqs ascending).
// Replicas with identical applied prefixes encode byte-identical states,
// so snapshot digests are comparable across the cluster. It is a cold path
// (state transfer, durable checkpoints, tests).
func (s *Store) SnapshotState() []byte { return s.encode(false) }

// MarkedState implements snapshot.Snapshotter: SnapshotState's encoding of
// the state at the newest Mark (the live state before the first).
func (s *Store) MarkedState() []byte { return s.encode(true) }

// Mark implements snapshot.Snapshotter. It drops the previous mark's
// pre-images: O(keys written since), whatever the state's size.
func (s *Store) Mark() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	for _, c := range s.touched {
		c.old = ""
	}
	clear(s.touched)
	clear(s.deleted)
	s.touched, s.deleted = s.touched[:0], s.deleted[:0]
}

// encode holds the read lock only to copy the state out — the live state,
// or the marked one: what was written since the mark contributes its
// pre-image, and what was deleted since comes back — and sorts and encodes
// beside the writers.
func (s *Store) encode(marked bool) []byte {
	s.mu.RLock()
	at := uint64(0) // the generation whose writes are undone; 0: none
	if marked {
		at = s.gen
	}
	data := make([]pair, 0, len(s.data)+len(s.deleted))
	for k, c := range s.data {
		if at == 0 || c.gen != at {
			data = append(data, pair{k, c.v})
		} else if c.had {
			data = append(data, pair{k, c.old})
		}
	}
	if at != 0 {
		data = append(data, s.deleted...)
	}
	type window struct {
		id uint32
		st *wire.SeqTracker
	}
	clients := make([]window, 0, len(s.clients))
	for id, w := range s.clients {
		if at == 0 || w.gen != at {
			clients = append(clients, window{id, w.Clone()})
		} else if w.had {
			clients = append(clients, window{id, w.old.Clone()})
		}
	}
	s.mu.RUnlock()

	slices.SortFunc(data, func(a, b pair) int { return strings.Compare(a.k, b.k) })
	slices.SortFunc(clients, func(a, b window) int { return cmp.Compare(a.id, b.id) })
	size := len(stateMagicV2) + 12
	for _, kv := range data {
		size += 8 + len(kv.k) + len(kv.v)
	}
	for _, w := range clients {
		size += 16
		w.st.Each(func(_ uint64, resp string) { size += 12 + len(resp) })
	}
	buf := make([]byte, 0, size)
	buf = append(buf, stateMagicV2...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(data)))
	for _, kv := range data {
		buf = appendString(buf, kv.k)
		buf = appendString(buf, kv.v)
	}
	buf = binary.BigEndian.AppendUint32(buf, 0) // request ids
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(clients)))
	for _, w := range clients {
		buf = binary.BigEndian.AppendUint32(buf, w.id)
		buf = binary.BigEndian.AppendUint64(buf, w.st.Max)
		buf = binary.BigEndian.AppendUint32(buf, uint32(w.st.Each(func(uint64, string) {})))
		w.st.Each(func(seq uint64, resp string) {
			buf = binary.BigEndian.AppendUint64(buf, seq)
			buf = appendString(buf, resp)
		})
	}
	return buf
}

// RestoreState implements snapshot.Snapshotter, replacing the store's data
// and client windows with a decoded state encoding: v2, or v1, which
// restores empty client windows. Request-id entries are read and dropped,
// so a state that carried some re-encodes without them. The verifier
// survives the restore; the mark does not. Only the canonical encoding is
// accepted — keys and clients strictly ascending, each client's seqs
// strictly ascending — so a v2 state with no request ids restores from
// exactly one byte string, the one SnapshotState emits. Entry counts are
// checked against the bytes left before anything is sized by them.
func (s *Store) RestoreState(data []byte) error {
	if len(data) < len(stateMagic)+8 {
		return ErrBadState
	}
	v2 := false
	switch string(data[:len(stateMagic)]) {
	case stateMagic:
	case stateMagicV2:
		v2 = true
	default:
		return ErrBadState
	}
	r := data[len(stateMagic):]
	var ok bool
	var nData uint32
	// Every data or applied entry is two length-prefixed strings: at least
	// 8 bytes each.
	nData, r, ok = readUint32(r)
	if !ok || nData > uint32(len(r)/8) {
		return ErrBadState
	}
	newData := make(map[string]*cell, nData)
	prevKey := ""
	for i := uint32(0); i < nData; i++ {
		var k, v string
		if k, r, ok = readString(r); !ok || (i > 0 && k <= prevKey) {
			return ErrBadState
		}
		if v, r, ok = readString(r); !ok {
			return ErrBadState
		}
		newData[k] = &cell{v: v}
		prevKey = k
	}
	var nApplied uint32
	nApplied, r, ok = readUint32(r)
	if !ok || nApplied > uint32(len(r)/8) {
		return ErrBadState
	}
	for i := uint32(0); i < 2*nApplied; i++ { // request id, response: dropped
		if _, r, ok = readString(r); !ok {
			return ErrBadState
		}
	}
	newClients := make(map[uint32]*dedup)
	s.mu.RLock()
	window := s.seqWindow
	s.mu.RUnlock()
	if window == 0 {
		window = DefaultSeqWindow // a store being loaded keeps the windows it is handed
	}
	if v2 {
		var nClients uint32
		nClients, r, ok = readUint32(r)
		if !ok {
			return ErrBadState
		}
		var prevClient uint32
		for i := uint32(0); i < nClients; i++ {
			var client, nSeqs uint32
			var max uint64
			if client, r, ok = readUint32(r); !ok || (i > 0 && client <= prevClient) {
				return ErrBadState
			}
			if max, r, ok = readUint64(r); !ok {
				return ErrBadState
			}
			if nSeqs, r, ok = readUint32(r); !ok {
				return ErrBadState
			}
			st := &dedup{SeqTracker: *wire.NewSeqTracker(window)}
			st.Max = max
			var prevSeq uint64
			for j := uint32(0); j < nSeqs; j++ {
				var seq uint64
				var resp string
				if seq, r, ok = readUint64(r); !ok || (j > 0 && seq <= prevSeq) {
					return ErrBadState
				}
				if resp, r, ok = readString(r); !ok {
					return ErrBadState
				}
				// Above max, or below the window under it.
				if seq > max || !st.Record(seq, resp) {
					return ErrBadState
				}
				prevSeq = seq
			}
			newClients[client] = st
			prevClient = client
		}
	}
	if len(r) != 0 {
		return ErrBadState
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = newData
	s.clients = newClients
	s.gen, s.touched, s.deleted = 0, nil, nil
	return nil
}

func appendString(buf []byte, v string) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
	return append(buf, v...)
}

func readUint32(b []byte) (uint32, []byte, bool) {
	if len(b) < 4 {
		return 0, nil, false
	}
	return binary.BigEndian.Uint32(b), b[4:], true
}

func readUint64(b []byte) (uint64, []byte, bool) {
	if len(b) < 8 {
		return 0, nil, false
	}
	return binary.BigEndian.Uint64(b), b[8:], true
}

func readString(b []byte) (string, []byte, bool) {
	n, rest, ok := readUint32(b)
	if !ok || len(rest) < int(n) {
		return "", nil, false
	}
	return string(rest[:n]), rest[n:], true
}
