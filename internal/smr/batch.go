package smr

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"genconsensus/internal/model"
)

// Batch limits. MaxBatchBytes stays well under the wire codec's 64 KiB
// string bound (wire encodes votes with a u16 length prefix), so an honest
// batch always survives TCP framing.
const (
	// MaxBatchSize is the maximum number of commands in one batch.
	MaxBatchSize = 128
	// MaxBatchBytes is the maximum encoded size of one batch.
	MaxBatchBytes = 32 << 10
	// maxCommandBytes is the largest single command Submit admits: it must
	// fit a singleton batch (magic + count + length prefix ≤ 32 bytes).
	maxCommandBytes = MaxBatchBytes - 32
)

// batchMagic prefixes every encoded batch. It contains a control byte, which
// no client command may contain, so plain commands and NoOp can never be
// mistaken for batches.
const batchMagic = "\x01batch\x01"

// Errors returned by the batch codec.
var (
	ErrBatchEmpty     = errors.New("smr: empty batch")
	ErrBatchTooLarge  = errors.New("smr: batch exceeds size limits")
	ErrBatchMalformed = errors.New("smr: malformed batch encoding")
)

// EncodeBatch deterministically encodes a command sequence into a single
// proposable value:
//
//	batch := magic count ';' {len ':' cmd}*
//
// with count and len in ASCII decimal. Identical command sequences encode
// identically on every replica, so replicas with identical pending queues
// propose identical batches. Commands must be non-empty, must not be NoOp,
// must not themselves be batches, and must not repeat within the batch; the
// whole encoding must fit MaxBatchSize/MaxBatchBytes.
func EncodeBatch(cmds []model.Value) (model.Value, error) {
	if len(cmds) == 0 {
		return model.NoValue, ErrBatchEmpty
	}
	if len(cmds) > MaxBatchSize {
		return model.NoValue, fmt.Errorf("%w: %d commands > %d", ErrBatchTooLarge, len(cmds), MaxBatchSize)
	}
	size := len(batchMagic) + 8
	for _, cmd := range cmds {
		size += len(cmd) + 8
	}
	b := make([]byte, 0, size)
	b = append(b, batchMagic...)
	b = strconv.AppendInt(b, int64(len(cmds)), 10)
	b = append(b, ';')
	seen := make(map[model.Value]bool, len(cmds))
	for _, cmd := range cmds {
		if cmd == model.NoValue || cmd == NoOp || IsBatch(cmd) {
			return model.NoValue, fmt.Errorf("%w: inadmissible entry %q", ErrBatchMalformed, cmd)
		}
		if seen[cmd] {
			return model.NoValue, fmt.Errorf("%w: duplicate entry %q", ErrBatchMalformed, cmd)
		}
		seen[cmd] = true
		b = strconv.AppendInt(b, int64(len(cmd)), 10)
		b = append(b, ':')
		b = append(b, cmd...)
	}
	if len(b) > MaxBatchBytes {
		return model.NoValue, fmt.Errorf("%w: %d bytes > %d", ErrBatchTooLarge, len(b), MaxBatchBytes)
	}
	return model.Value(b), nil
}

// IsBatch reports whether v carries the batch magic prefix. A true result
// does not imply validity; DecodeBatch performs full validation.
func IsBatch(v model.Value) bool {
	return strings.HasPrefix(string(v), batchMagic)
}

// Admissible reports whether Replica.Submit would accept the command:
// non-empty, not NoOp, not batch-prefixed and small enough to fit a
// singleton batch. Runtimes can reject inadmissible commands at their
// client boundary instead of silently dropping them.
func Admissible(cmd model.Value) bool {
	return cmd != model.NoValue && cmd != NoOp && !IsBatch(cmd) && !IsDigestVote(cmd) &&
		len(cmd) <= maxCommandBytes
}

// DecodeBatch strictly parses and validates an encoded batch: exact count,
// exact lengths, no trailing bytes, size limits respected, and every entry
// admissible under the EncodeBatch rules. Byzantine proposers can forge
// arbitrary values, so every replica must validate before trusting a batch;
// a decode error marks the value as not safely interpretable as a batch.
func DecodeBatch(v model.Value) ([]model.Value, error) {
	s := string(v)
	if !strings.HasPrefix(s, batchMagic) {
		return nil, fmt.Errorf("%w: missing magic", ErrBatchMalformed)
	}
	if len(s) > MaxBatchBytes {
		return nil, fmt.Errorf("%w: %d bytes > %d", ErrBatchTooLarge, len(s), MaxBatchBytes)
	}
	rest := s[len(batchMagic):]
	count, rest, err := parseInt(rest, ';')
	if err != nil {
		return nil, err
	}
	if count <= 0 || count > MaxBatchSize {
		return nil, fmt.Errorf("%w: count %d", ErrBatchTooLarge, count)
	}
	cmds := make([]model.Value, 0, count)
	seen := make(map[model.Value]bool, count)
	for i := 0; i < count; i++ {
		var n int
		n, rest, err = parseInt(rest, ':')
		if err != nil {
			return nil, err
		}
		if n <= 0 || n > len(rest) {
			return nil, fmt.Errorf("%w: entry %d length %d", ErrBatchMalformed, i, n)
		}
		cmd := model.Value(rest[:n])
		rest = rest[n:]
		if cmd == NoOp || IsBatch(cmd) || seen[cmd] {
			return nil, fmt.Errorf("%w: inadmissible entry %q", ErrBatchMalformed, cmd)
		}
		seen[cmd] = true
		cmds = append(cmds, cmd)
	}
	if rest != "" {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBatchMalformed, len(rest))
	}
	return cmds, nil
}

// Commands returns the command sequence a decided value stands for: the
// decoded commands of a valid batch, or the value itself as a singleton.
// An invalid batch-prefixed value (a Byzantine proposal that slipped past
// the chooser because FLV locked it) degrades to a singleton too: every
// replica makes the same deterministic call, and the application layer
// rejects the opaque command (e.g. kv.Apply answers ERR), so consistency
// is preserved.
func Commands(v model.Value) []model.Value {
	if IsBatch(v) {
		if cmds, err := DecodeBatch(v); err == nil {
			return cmds
		}
	}
	return []model.Value{v}
}

// parseInt reads an ASCII decimal prefix terminated by sep. It rejects
// empty digits, leading zeros (non-canonical encodings must not survive)
// and overflow-sized numbers.
func parseInt(s string, sep byte) (int, string, error) {
	i := 0
	n := 0
	for ; i < len(s); i++ {
		c := s[i]
		if c == sep {
			break
		}
		if c < '0' || c > '9' {
			return 0, "", fmt.Errorf("%w: bad digit %q", ErrBatchMalformed, c)
		}
		n = n*10 + int(c-'0')
		if n > MaxBatchBytes {
			return 0, "", fmt.Errorf("%w: number too large", ErrBatchTooLarge)
		}
	}
	if i == 0 || i >= len(s) {
		return 0, "", fmt.Errorf("%w: missing number or separator", ErrBatchMalformed)
	}
	if s[0] == '0' && i > 1 {
		return 0, "", fmt.Errorf("%w: non-canonical leading zero", ErrBatchMalformed)
	}
	return n, s[i+1:], nil
}
