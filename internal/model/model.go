// Package model defines the shared vocabulary of the generic consensus
// algorithm of Rütti, Milosevic and Schiper (DSN 2010): process identifiers,
// proposal values, phases, rounds, the per-round message tuple and the
// history variable. It has no dependencies on other packages of this module.
package model

import (
	"fmt"
	"sort"
	"strings"
)

// PID identifies a process. Processes are numbered 0..n-1.
type PID int

// Value is a consensus proposal value.
//
// The empty string is reserved as NoValue, the "null"/absent value used by
// the algorithm internally (e.g. the select_p variable before a value has
// been selected). Applications must propose non-empty values; constructors in
// the public API enforce this.
type Value string

// NoValue is the reserved absent value ("null" in the paper's pseudocode).
const NoValue Value = ""

// Phase numbers the phases of the generic algorithm, starting at 1.
// Timestamps (ts_p) are phases; the initial timestamp is 0.
type Phase int

// Round numbers the communication rounds of an execution, starting at 1.
// In the unoptimized algorithm phase φ spans rounds 3φ-2, 3φ-1 and 3φ.
type Round int

// RoundKind distinguishes the three round types of a phase.
type RoundKind int

const (
	// SelectionRound is round 3φ-2: validators are elected and a value is
	// selected with FLV. Pcons must (eventually) hold in this round.
	SelectionRound RoundKind = iota + 1
	// ValidationRound is round 3φ-1: validators announce the selected
	// value; processes validate it. Suppressed when FLAG = *.
	ValidationRound
	// DecisionRound is round 3φ: processes exchange ⟨vote, ts⟩ and decide
	// on TD matching votes.
	DecisionRound
)

// String returns the round kind name used in traces.
func (k RoundKind) String() string {
	switch k {
	case SelectionRound:
		return "selection"
	case ValidationRound:
		return "validation"
	case DecisionRound:
		return "decision"
	default:
		return fmt.Sprintf("RoundKind(%d)", int(k))
	}
}

// Flag is the FLAG parameter of the generic algorithm: which votes are taken
// into account in the decision round.
type Flag int

const (
	// FlagStar (FLAG = *) counts every vote regardless of its timestamp.
	// The validation round is suppressed and ts/history are not needed.
	FlagStar Flag = iota + 1
	// FlagPhase (FLAG = φ) counts only votes validated in the current
	// phase (ts = φ).
	FlagPhase
)

// String returns "*" or "φ".
func (f Flag) String() string {
	switch f {
	case FlagStar:
		return "*"
	case FlagPhase:
		return "φ"
	default:
		return fmt.Sprintf("Flag(%d)", int(f))
	}
}

// HistEntry records that vote_p was set to Val in the selection round of
// phase Phase.
type HistEntry struct {
	Val   Value
	Phase Phase
}

// History is the history_p variable: the list of (value, phase) pairs logged
// at line 14 of Algorithm 1. The zero value is an empty history; honest
// processes initialize it to {(init_p, 0)}.
type History []HistEntry

// NewHistory returns the initial history {(init, 0)} of an honest process.
func NewHistory(init Value) History {
	return History{{Val: init, Phase: 0}}
}

// Contains reports whether (v, φ) is in the history.
func (h History) Contains(v Value, phase Phase) bool {
	for _, e := range h {
		if e.Val == v && e.Phase == phase {
			return true
		}
	}
	return false
}

// ValueAt returns the value paired with timestamp phase, if any. It is used
// by line 26 of Algorithm 1 to revert vote_p to the value matching ts_p.
// Honest histories pair at most one value with any given phase.
func (h History) ValueAt(phase Phase) (Value, bool) {
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].Phase == phase {
			return h[i].Val, true
		}
	}
	return NoValue, false
}

// Add appends (v, φ) unless the exact pair is already present (the paper
// uses set union at line 14) and returns the updated history.
func (h History) Add(v Value, phase Phase) History {
	if h.Contains(v, phase) {
		return h
	}
	return append(h, HistEntry{Val: v, Phase: phase})
}

// Clone returns an independent copy. Messages must not alias the sender's
// mutable history (slices are copied at ownership boundaries).
func (h History) Clone() History {
	if h == nil {
		return nil
	}
	out := make(History, len(h))
	copy(out, h)
	return out
}

// Prune drops all entries with phase < keepFrom except the highest-phase
// entry per value mentioned, bounding history growth. This implements the
// bounded-history variant referenced by footnote 5 of the paper.
func (h History) Prune(keepFrom Phase) History {
	out := h[:0:0]
	for _, e := range h {
		if e.Phase >= keepFrom {
			out = append(out, e)
		}
	}
	return out
}

// String renders the history as {(v,φ), ...} for traces and test failures.
func (h History) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range h {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%s,%d)", e.Val, e.Phase)
	}
	b.WriteByte('}')
	return b.String()
}

// Message is the single message tuple of Algorithm 1. Depending on the round
// kind only a subset of the fields is meaningful:
//
//	selection round (line 7):  ⟨Vote, TS, History, Sel⟩
//	validation round (line 19): ⟨Vote (= select_p), Sel (= validators_p)⟩
//	decision round (line 29):  ⟨Vote, TS⟩
//
// Byzantine processes may populate any field arbitrarily and may send
// different contents to different destinations; honest processes cannot be
// impersonated (sender identity is attached by the network layer).
type Message struct {
	Kind    RoundKind
	Vote    Value
	TS      Phase
	History History
	Sel     []PID
	// Relay carries a batch of (possibly signed) inner messages for the
	// WIC sub-protocols that build Pcons out of Pgood (§2.2): the
	// coordinator relay and the echo broadcast forward entire received
	// vectors.
	Relay []Signed
}

// Signed is a relayed inner message attributed to its original sender, with
// an optional signature (authenticated Byzantine model) over the inner
// payload.
type Signed struct {
	Sender PID
	Msg    Message
	Sig    []byte
}

// SelKey returns a canonical string key for the Sel field so that message
// sets can be grouped by proposed validator set (lines 15 and 21). The key
// is the sorted PID list; nil and empty sets share the key "".
func (m Message) SelKey() string {
	return PIDSetKey(m.Sel)
}

// String renders the message for traces.
func (m Message) String() string {
	switch m.Kind {
	case ValidationRound:
		return fmt.Sprintf("⟨%s, %s⟩", voteStr(m.Vote), PIDSetKey(m.Sel))
	case DecisionRound:
		return fmt.Sprintf("⟨%s, %d⟩", voteStr(m.Vote), m.TS)
	default:
		return fmt.Sprintf("⟨%s, %d, %s, %s⟩", voteStr(m.Vote), m.TS, m.History, PIDSetKey(m.Sel))
	}
}

func voteStr(v Value) string {
	if v == NoValue {
		return "⊥"
	}
	return string(v)
}

// Received is the vector µ_p^r of messages received by a process in a round,
// indexed by sender. Absent senders (⊥ in the paper) are simply missing keys.
type Received map[PID]Message

// Senders returns the sender set in ascending PID order. Deterministic
// iteration matters: the deterministic choice at line 11 must produce the
// same result at every process that received the same vector.
func (mu Received) Senders() []PID {
	out := make([]PID, 0, len(mu))
	for p := range mu {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Votes returns the multiset of vote fields in ascending sender order,
// excluding NoValue.
func (mu Received) Votes() []Value {
	out := make([]Value, 0, len(mu))
	for _, p := range mu.Senders() {
		if v := mu[p].Vote; v != NoValue {
			out = append(out, v)
		}
	}
	return out
}

// VoteCounts returns, for each distinct non-null vote value, the number of
// messages carrying it.
func (mu Received) VoteCounts() map[Value]int {
	out := make(map[Value]int, len(mu))
	for _, m := range mu {
		if m.Vote != NoValue {
			out[m.Vote]++
		}
	}
	return out
}

// MinValue returns the smallest non-null vote in the vector, the default
// deterministic choice for line 11 of Algorithm 1. ok is false when the
// vector carries no votes.
func (mu Received) MinValue() (Value, bool) {
	best := NoValue
	for _, m := range mu {
		if m.Vote == NoValue {
			continue
		}
		if best == NoValue || m.Vote < best {
			best = m.Vote
		}
	}
	return best, best != NoValue
}

// SmallestMostOften returns the most frequent vote, breaking frequency ties
// by smallest value — the choice rule of the original OneThirdRule algorithm
// (line 8 of Algorithm 5). ok is false when the vector carries no votes.
func (mu Received) SmallestMostOften() (Value, bool) {
	counts := mu.VoteCounts()
	best := NoValue
	bestN := 0
	for v, n := range counts {
		if n > bestN || (n == bestN && (best == NoValue || v < best)) {
			best, bestN = v, n
		}
	}
	return best, best != NoValue
}

// PIDSetKey returns the canonical key of a PID set: sorted, comma-separated.
func PIDSetKey(pids []PID) string {
	if len(pids) == 0 {
		return ""
	}
	sorted := append([]PID(nil), pids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var b strings.Builder
	for i, p := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", int(p))
	}
	return b.String()
}

// PIDSetContains reports whether p is in the set.
func PIDSetContains(pids []PID, p PID) bool {
	for _, q := range pids {
		if q == p {
			return true
		}
	}
	return false
}

// AllPIDs returns {0, ..., n-1}, the process set Π.
func AllPIDs(n int) []PID {
	out := make([]PID, n)
	for i := range out {
		out[i] = PID(i)
	}
	return out
}
