package model

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestRoundKindString(t *testing.T) {
	tests := []struct {
		kind RoundKind
		want string
	}{
		{SelectionRound, "selection"},
		{ValidationRound, "validation"},
		{DecisionRound, "decision"},
		{RoundKind(42), "RoundKind(42)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("RoundKind(%d).String() = %q, want %q", int(tt.kind), got, tt.want)
		}
	}
}

func TestFlagString(t *testing.T) {
	if FlagStar.String() != "*" {
		t.Errorf("FlagStar.String() = %q, want *", FlagStar.String())
	}
	if FlagPhase.String() != "φ" {
		t.Errorf("FlagPhase.String() = %q, want φ", FlagPhase.String())
	}
	if Flag(9).String() != "Flag(9)" {
		t.Errorf("Flag(9).String() = %q", Flag(9).String())
	}
}

func TestNewHistory(t *testing.T) {
	h := NewHistory("v0")
	if len(h) != 1 {
		t.Fatalf("initial history length = %d, want 1", len(h))
	}
	if !h.Contains("v0", 0) {
		t.Error("initial history must contain (init, 0)")
	}
	if h.Contains("v0", 1) {
		t.Error("initial history must not contain (init, 1)")
	}
	if h.Contains("v1", 0) {
		t.Error("initial history must not contain (other, 0)")
	}
}

func TestHistoryAdd(t *testing.T) {
	h := NewHistory("a")
	h = h.Add("b", 1)
	h = h.Add("c", 2)
	if len(h) != 3 {
		t.Fatalf("history length = %d, want 3", len(h))
	}
	// Set semantics: re-adding the same pair does not grow the history.
	h = h.Add("b", 1)
	if len(h) != 3 {
		t.Errorf("duplicate Add grew history to %d entries", len(h))
	}
	// Same value at a new phase is a new entry.
	h = h.Add("b", 3)
	if len(h) != 4 {
		t.Errorf("Add of same value at new phase: length = %d, want 4", len(h))
	}
}

func TestHistoryValueAt(t *testing.T) {
	h := NewHistory("a").Add("b", 1).Add("c", 4)
	tests := []struct {
		phase  Phase
		want   Value
		wantOK bool
	}{
		{0, "a", true},
		{1, "b", true},
		{4, "c", true},
		{2, NoValue, false},
	}
	for _, tt := range tests {
		got, ok := h.ValueAt(tt.phase)
		if got != tt.want || ok != tt.wantOK {
			t.Errorf("ValueAt(%d) = (%q, %v), want (%q, %v)", tt.phase, got, ok, tt.want, tt.wantOK)
		}
	}
}

func TestHistoryClone(t *testing.T) {
	h := NewHistory("a").Add("b", 1)
	c := h.Clone()
	if !reflect.DeepEqual(h, c) {
		t.Fatalf("clone differs: %v vs %v", h, c)
	}
	c[0].Val = "mutated"
	if h[0].Val != "a" {
		t.Error("mutating the clone affected the original")
	}
	var nilH History
	if nilH.Clone() != nil {
		t.Error("Clone of nil history must be nil")
	}
}

func TestHistoryPrune(t *testing.T) {
	h := NewHistory("a").Add("b", 1).Add("c", 2).Add("d", 3)
	p := h.Prune(2)
	if len(p) != 2 {
		t.Fatalf("pruned length = %d, want 2", len(p))
	}
	if !p.Contains("c", 2) || !p.Contains("d", 3) {
		t.Errorf("prune kept wrong entries: %v", p)
	}
}

func TestHistoryString(t *testing.T) {
	h := NewHistory("a").Add("b", 2)
	want := "{(a,0), (b,2)}"
	if got := h.String(); got != want {
		t.Errorf("History.String() = %q, want %q", got, want)
	}
}

func TestMessageSelKey(t *testing.T) {
	m := Message{Sel: []PID{3, 1, 2}}
	if got := m.SelKey(); got != "1,2,3" {
		t.Errorf("SelKey = %q, want 1,2,3", got)
	}
	empty := Message{}
	if got := empty.SelKey(); got != "" {
		t.Errorf("empty SelKey = %q, want \"\"", got)
	}
}

func TestMessageString(t *testing.T) {
	sel := Message{Kind: SelectionRound, Vote: "v", TS: 1, History: NewHistory("v"), Sel: []PID{0}}
	if sel.String() == "" {
		t.Error("selection message renders empty")
	}
	val := Message{Kind: ValidationRound, Vote: NoValue, Sel: []PID{1, 0}}
	if got := val.String(); got != "⟨⊥, 0,1⟩" {
		t.Errorf("validation message = %q", got)
	}
	dec := Message{Kind: DecisionRound, Vote: "v", TS: 2}
	if got := dec.String(); got != "⟨v, 2⟩" {
		t.Errorf("decision message = %q", got)
	}
}

func TestReceivedSenders(t *testing.T) {
	mu := Received{3: {}, 0: {}, 7: {}}
	got := mu.Senders()
	want := []PID{0, 3, 7}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Senders() = %v, want %v", got, want)
	}
}

func TestReceivedVotes(t *testing.T) {
	mu := Received{
		0: {Vote: "b"},
		1: {Vote: "a"},
		2: {Vote: NoValue},
	}
	got := mu.Votes()
	// In ascending sender order, null votes excluded.
	want := []Value{"b", "a"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Votes() = %v, want %v", got, want)
	}
}

func TestReceivedVoteCounts(t *testing.T) {
	mu := Received{
		0: {Vote: "a"}, 1: {Vote: "a"}, 2: {Vote: "b"}, 3: {Vote: NoValue},
	}
	got := mu.VoteCounts()
	if got["a"] != 2 || got["b"] != 1 || len(got) != 2 {
		t.Errorf("VoteCounts() = %v", got)
	}
}

func TestReceivedMinValue(t *testing.T) {
	mu := Received{0: {Vote: "z"}, 1: {Vote: "m"}, 2: {Vote: "q"}}
	v, ok := mu.MinValue()
	if !ok || v != "m" {
		t.Errorf("MinValue() = (%q, %v), want (m, true)", v, ok)
	}
	empty := Received{0: {Vote: NoValue}}
	if _, ok := empty.MinValue(); ok {
		t.Error("MinValue on voteless vector reported ok")
	}
}

func TestReceivedSmallestMostOften(t *testing.T) {
	tests := []struct {
		name string
		mu   Received
		want Value
	}{
		{
			name: "clear majority",
			mu:   Received{0: {Vote: "b"}, 1: {Vote: "b"}, 2: {Vote: "a"}},
			want: "b",
		},
		{
			name: "tie broken by smaller value",
			mu:   Received{0: {Vote: "b"}, 1: {Vote: "a"}},
			want: "a",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := tt.mu.SmallestMostOften()
			if !ok || got != tt.want {
				t.Errorf("SmallestMostOften() = (%q, %v), want %q", got, ok, tt.want)
			}
		})
	}
	empty := Received{}
	if _, ok := empty.SmallestMostOften(); ok {
		t.Error("SmallestMostOften on empty vector reported ok")
	}
}

func TestAllPIDs(t *testing.T) {
	got := AllPIDs(4)
	want := []PID{0, 1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AllPIDs(4) = %v, want %v", got, want)
	}
	if len(AllPIDs(0)) != 0 {
		t.Error("AllPIDs(0) must be empty")
	}
}

func TestPIDSetContains(t *testing.T) {
	set := []PID{1, 5, 9}
	if !PIDSetContains(set, 5) {
		t.Error("PIDSetContains missed member")
	}
	if PIDSetContains(set, 2) {
		t.Error("PIDSetContains reported non-member")
	}
	if PIDSetContains(nil, 0) {
		t.Error("PIDSetContains on nil must be false")
	}
}

// Property: Add is idempotent per (value, phase) pair and Contains reflects
// exactly the added pairs.
func TestHistoryAddContainsProperty(t *testing.T) {
	f := func(vals []uint8, phases []uint8) bool {
		n := len(vals)
		if len(phases) < n {
			n = len(phases)
		}
		h := History{}
		type pair struct {
			v Value
			p Phase
		}
		seen := map[pair]bool{}
		for i := 0; i < n; i++ {
			v := Value([]string{"a", "b", "c", "d"}[vals[i]%4])
			p := Phase(phases[i] % 8)
			h = h.Add(v, p)
			seen[pair{v, p}] = true
		}
		if len(h) != len(seen) {
			return false
		}
		for k := range seen {
			if !h.Contains(k.v, k.p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Senders is always sorted and complete.
func TestSendersSortedProperty(t *testing.T) {
	f := func(ids []uint8) bool {
		mu := Received{}
		for _, id := range ids {
			mu[PID(id%32)] = Message{}
		}
		s := mu.Senders()
		if len(s) != len(mu) {
			return false
		}
		return sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
