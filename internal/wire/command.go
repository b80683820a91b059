package wire

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Command envelopes: the wire representation of an authenticated client
// command. A client wraps its application payload in a CommandEnvelope —
// client id, per-client sequence number and a MAC over all three — and the
// envelope travels the whole SMR path as an opaque value: queued, batched,
// voted on, decided, logged and applied without re-encoding. Every layer
// that must judge provenance (ingress, the batch chooser, the state
// machine) decodes and verifies the same bytes, so there is exactly one
// encoding to get right and it lives here, next to the rest of the wire
// codec.
//
// Layout (a value string, binary-safe):
//
//	envelope := cmdMagic client ';' seq ';' plen ':' payload mac
//
// with client, seq and plen in canonical ASCII decimal (no leading zeros)
// and mac exactly CommandMACSize raw bytes. The encoding is deterministic:
// identical (client, seq, payload, mac) tuples encode byte-identically on
// every process, so envelopes can be compared, deduplicated and batched as
// plain strings.

const (
	// cmdMagic prefixes every encoded command envelope. Like the batch
	// magic it contains control bytes no application payload starts with,
	// so envelopes, batches and raw commands can never be confused.
	cmdMagic = "\x02cmd\x02"
	// CommandMACSize is the exact authenticator length (HMAC-SHA256).
	CommandMACSize = 32
	// MaxCommandPayloadBytes bounds the application payload of one
	// envelope. It keeps the whole encoding comfortably inside the SMR
	// batch budget (32 KiB) and the codec's u16 string bound.
	MaxCommandPayloadBytes = 30 << 10
	// maxCommandSeqDigits bounds the ASCII width of client and seq fields
	// (u64 needs at most 20 digits).
	maxCommandSeqDigits = 20
	// DefaultSeqWindow is the standard per-client sequence horizon: the
	// state machine's dedup window (kv.DefaultSeqWindow), which is also
	// the replica's record of what committed. A client must not have more
	// than this many commands in flight.
	DefaultSeqWindow = 1024
)

// CommandEnvelope is one authenticated client command.
type CommandEnvelope struct {
	// Client identifies the issuing client (its key slot in the client
	// keyring).
	Client uint32
	// Seq is the client's command sequence number: (Client, Seq) identify
	// a command for at-most-once execution, replacing raw-bytes dedup.
	Seq uint64
	// Payload is the application command (e.g. a kv command string).
	Payload string
	// MAC authenticates (Client, Seq, Payload) under the client's key.
	MAC []byte
}

// Errors returned by the command codec.
var (
	ErrCommandMalformed = errors.New("wire: malformed command envelope")
	ErrCommandTooLarge  = errors.New("wire: command payload exceeds MaxCommandPayloadBytes")
)

// EncodedCommandSize accounts the exact encoded size of an envelope with a
// payload of the given length — the envelope's footprint in everything
// sized by value bytes (batch byte budgets charge this plus their own
// per-entry framing overhead). Callers with payloads near a size budget
// can pre-check without encoding.
func EncodedCommandSize(client uint32, seq uint64, payloadLen int) int {
	return len(cmdMagic) +
		decimalWidth(uint64(client)) + 1 + decimalWidth(seq) + 1 +
		decimalWidth(uint64(payloadLen)) + 1 +
		payloadLen + CommandMACSize
}

// decimalWidth is the ASCII width of v in canonical decimal.
func decimalWidth(v uint64) int {
	n := 1
	for v >= 10 {
		v /= 10
		n++
	}
	return n
}

// AppendCommand serializes an envelope onto dst (same validation as
// EncodeCommand) without the intermediate string allocation.
func AppendCommand(dst []byte, env CommandEnvelope) ([]byte, error) {
	return AppendCommandBytes(dst, env.Client, env.Seq, env.Payload, env.MAC)
}

// AppendCommandBytes is AppendCommand over loose fields; payload may be a
// string or byte slice, so builders that assemble the payload in a byte
// buffer skip the string conversion.
func AppendCommandBytes[P ~string | ~[]byte](dst []byte, client uint32, seq uint64, payload P, mac []byte) ([]byte, error) {
	if len(payload) == 0 {
		return dst, fmt.Errorf("%w: empty payload", ErrCommandMalformed)
	}
	if len(payload) > MaxCommandPayloadBytes {
		return dst, fmt.Errorf("%w: %d bytes", ErrCommandTooLarge, len(payload))
	}
	if len(mac) != CommandMACSize {
		return dst, fmt.Errorf("%w: MAC is %d bytes, want %d", ErrCommandMalformed, len(mac), CommandMACSize)
	}
	dst = append(dst, cmdMagic...)
	dst = strconv.AppendUint(dst, uint64(client), 10)
	dst = append(dst, ';')
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, ';')
	dst = strconv.AppendUint(dst, uint64(len(payload)), 10)
	dst = append(dst, ':')
	dst = append(dst, payload...)
	return append(dst, mac...), nil
}

// EncodeCommand serializes an envelope. The payload must be non-empty and
// within MaxCommandPayloadBytes; the MAC must be exactly CommandMACSize
// bytes (the codec carries authenticators, it does not compute them).
func EncodeCommand(env CommandEnvelope) (string, error) {
	buf := make([]byte, 0, EncodedCommandSize(env.Client, env.Seq, len(env.Payload)))
	buf, err := AppendCommand(buf, env)
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// DecodeCommand strictly parses an encoded envelope: canonical decimal
// fields, exact payload length, exactly CommandMACSize trailing MAC bytes,
// no slack anywhere. Byzantine proposers can put arbitrary bytes on the
// wire, so a decode error marks the value as not interpretable as an
// authenticated command — verification layers treat it as fabricated.
func DecodeCommand(v string) (CommandEnvelope, error) {
	var env CommandEnvelope
	client, seq, payload, mac, err := DecodeCommandParts(v)
	if err != nil {
		return env, err
	}
	env.Client = client
	env.Seq = seq
	env.Payload = payload
	env.MAC = []byte(mac)
	return env, nil
}

// DecodeCommandParts is the zero-copy variant of DecodeCommand: identical
// validation, but payload and mac are returned as substrings of v, so
// nothing is allocated. Hot paths that hold the value string anyway
// (verdict-cache lookups, the apply path) use it to avoid the per-call MAC
// copy.
func DecodeCommandParts(v string) (client uint32, seq uint64, payload, mac string, err error) {
	if !strings.HasPrefix(v, cmdMagic) {
		return 0, 0, "", "", fmt.Errorf("%w: missing magic", ErrCommandMalformed)
	}
	rest := v[len(cmdMagic):]
	c, rest, err := parseUint(rest, ';')
	if err != nil {
		return 0, 0, "", "", err
	}
	if c > 1<<32-1 {
		return 0, 0, "", "", fmt.Errorf("%w: client id overflow", ErrCommandMalformed)
	}
	seq, rest, err = parseUint(rest, ';')
	if err != nil {
		return 0, 0, "", "", err
	}
	plen, rest, err := parseUint(rest, ':')
	if err != nil {
		return 0, 0, "", "", err
	}
	if plen == 0 || plen > MaxCommandPayloadBytes {
		return 0, 0, "", "", fmt.Errorf("%w: payload length %d", ErrCommandTooLarge, plen)
	}
	if uint64(len(rest)) != plen+CommandMACSize {
		return 0, 0, "", "", fmt.Errorf("%w: %d bytes after header, want %d", ErrCommandMalformed, len(rest), plen+CommandMACSize)
	}
	return uint32(c), seq, rest[:plen], rest[plen:], nil
}

// SeqTracker is one client's sliding sequence horizon, holding the
// response the state machine cached for each applied seq: anything at or
// below Max-window is assumed recorded, the window sequences above it are
// tracked exactly, in a ring indexed by seq % window. Live sequences span
// less than one window, so no two share a slot, and a slot is live iff it
// stores the seq asked for — the horizon advances without a clearing pass.
// Not synchronized; callers wrap it in their own locking.
type SeqTracker struct {
	Max   uint64 // the highest recorded sequence number
	zero  bool   // seq 0 is recorded (an untouched slot 0 reads as seq 0 too)
	slots []seqSlot
}

type seqSlot struct {
	seq uint64
	v   string
}

// NewSeqTracker returns an empty tracker over a horizon of window >= 1.
func NewSeqTracker(window uint64) *SeqTracker {
	return &SeqTracker{slots: make([]seqSlot, window)}
}

// BelowHorizon reports whether seq fell below the exact-tracking horizon
// (assumed recorded; its value is gone).
func (t *SeqTracker) BelowHorizon(seq uint64) bool {
	window := uint64(len(t.slots))
	return t.Max >= window && seq <= t.Max-window
}

// Get returns the value recorded at seq, if seq is tracked exactly.
func (t *SeqTracker) Get(seq uint64) (v string, ok bool) {
	s := &t.slots[seq%uint64(len(t.slots))]
	if s.seq != seq || (seq == 0 && !t.zero) || t.BelowHorizon(seq) {
		return v, false
	}
	return s.v, true
}

// Record stores v at seq and advances the horizon; below the horizon it is
// a no-op. It reports whether seq was neither below the horizon nor
// recorded already.
func (t *SeqTracker) Record(seq uint64, v string) bool {
	if t.BelowHorizon(seq) {
		return false
	}
	_, had := t.Get(seq)
	t.slots[seq%uint64(len(t.slots))] = seqSlot{seq, v}
	t.zero = t.zero || seq == 0
	t.Max = max(t.Max, seq)
	return !had
}

// Each visits the exactly tracked entries in ascending seq order and
// returns their number.
func (t *SeqTracker) Each(fn func(seq uint64, v string)) (n int) {
	for seq := t.Max - min(t.Max, uint64(len(t.slots))-1); ; seq++ {
		if v, ok := t.Get(seq); ok {
			fn(seq, v)
			n++
		}
		if seq == t.Max {
			return n
		}
	}
}

// Clone returns an independent copy.
func (t *SeqTracker) Clone() *SeqTracker {
	c := new(SeqTracker)
	t.CopyTo(c)
	return c
}

// CopyTo makes dst an independent copy of t, reusing dst's slots when they
// are long enough.
func (t *SeqTracker) CopyTo(dst *SeqTracker) {
	slots := append(dst.slots[:0], t.slots...)
	*dst = *t
	dst.slots = slots
}

// parseUint reads a canonical ASCII decimal prefix terminated by sep: no
// empty digits, no leading zeros, bounded width (u64 range).
func parseUint(s string, sep byte) (uint64, string, error) {
	i := 0
	var n uint64
	for ; i < len(s); i++ {
		c := s[i]
		if c == sep {
			break
		}
		if c < '0' || c > '9' {
			return 0, "", fmt.Errorf("%w: bad digit %q", ErrCommandMalformed, c)
		}
		if i >= maxCommandSeqDigits {
			return 0, "", fmt.Errorf("%w: number too wide", ErrCommandMalformed)
		}
		d := uint64(c - '0')
		if n > (1<<64-1-d)/10 {
			return 0, "", fmt.Errorf("%w: number overflow", ErrCommandMalformed)
		}
		n = n*10 + d
	}
	if i == 0 || i >= len(s) {
		return 0, "", fmt.Errorf("%w: missing number or separator", ErrCommandMalformed)
	}
	if s[0] == '0' && i > 1 {
		return 0, "", fmt.Errorf("%w: non-canonical leading zero", ErrCommandMalformed)
	}
	return n, s[i+1:], nil
}
