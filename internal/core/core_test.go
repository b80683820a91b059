package core

import (
	"errors"
	"slices"
	"testing"

	"genconsensus/internal/flv"
	"genconsensus/internal/model"
	"genconsensus/internal/selector"
)

const (
	v1 = model.Value("v1")
	v2 = model.Value("v2")
)

// pbftParams returns a minimal PBFT-shaped parameterization: n=4, b=1,
// TD=3, FLAG=φ, class-3 FLV, whole-Π selector, history enabled.
func pbftParams() Params {
	return Params{
		N: 4, B: 1, F: 0, TD: 3,
		Flag:       model.FlagPhase,
		FLV:        flv.NewPBFT(4, 1),
		Selector:   selector.NewAll(4),
		UseHistory: true,
	}
}

// otrParams returns a OneThirdRule-shaped parameterization: n=4, f=1,
// TD=3, FLAG=*, class-1 FLV, merged rounds.
func otrParams() Params {
	return Params{
		N: 4, B: 0, F: 1, TD: 3,
		Flag:     model.FlagStar,
		FLV:      flv.NewClass1(4, 3, 0),
		Selector: selector.NewAll(4),
		Chooser:  MostOftenChooser{},
		Merged:   true,
	}
}

func mustProcess(t *testing.T, id model.PID, init model.Value, p Params) *Process {
	t.Helper()
	proc, err := NewProcess(id, init, p)
	if err != nil {
		t.Fatalf("NewProcess: %v", err)
	}
	return proc
}

func TestParamsValidate(t *testing.T) {
	valid := pbftParams()
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	tests := []struct {
		name    string
		mutate  func(*Params)
		wantErr error
	}{
		{"missing FLV", func(p *Params) { p.FLV = nil }, ErrNoFLV},
		{"missing selector", func(p *Params) { p.Selector = nil }, ErrNoSelector},
		{"bad flag", func(p *Params) { p.Flag = 0 }, ErrBadFlag},
		{"TD zero", func(p *Params) { p.TD = 0 }, ErrBadTD},
		{"TD above n", func(p *Params) { p.TD = 5 }, ErrBadTD},
		{"merged with φ", func(p *Params) { p.Merged = true }, ErrMergedNeedStar},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := pbftParams()
			tt.mutate(&p)
			if err := p.Validate(); !errors.Is(err, tt.wantErr) {
				t.Fatalf("Validate = %v, want %v", err, tt.wantErr)
			}
		})
	}
	t.Run("history with *", func(t *testing.T) {
		p := otrParams()
		p.UseHistory = true
		if err := p.Validate(); !errors.Is(err, ErrHistoryNeedPhi) {
			t.Fatalf("Validate = %v, want %v", err, ErrHistoryNeedPhi)
		}
	})
	t.Run("negative n", func(t *testing.T) {
		p := pbftParams()
		p.N = -1
		if err := p.Validate(); err == nil {
			t.Fatal("negative n accepted")
		}
	})
}

func TestNewProcessRejectsEmptyInit(t *testing.T) {
	if _, err := NewProcess(0, model.NoValue, pbftParams()); !errors.Is(err, ErrEmptyInit) {
		t.Fatalf("err = %v, want ErrEmptyInit", err)
	}
}

func TestNewProcessInitialState(t *testing.T) {
	p := mustProcess(t, 2, v1, pbftParams())
	if p.ID() != 2 {
		t.Errorf("ID = %d", p.ID())
	}
	if p.Vote() != v1 {
		t.Errorf("vote = %q, want init", p.Vote())
	}
	if p.TS() != 0 {
		t.Errorf("ts = %d, want 0", p.TS())
	}
	if !p.History().Contains(v1, 0) {
		t.Error("history must start as {(init, 0)}")
	}
	if _, decided := p.Decided(); decided {
		t.Error("fresh process reports decided")
	}
}

func TestSelectionSendShape(t *testing.T) {
	p := mustProcess(t, 0, v1, pbftParams())
	out := p.Send(1) // round 1 = selection of phase 1
	if len(out) != 4 {
		t.Fatalf("selection send to %d dests, want 4 (Π)", len(out))
	}
	msg := out[1]
	if msg.Kind != model.SelectionRound || msg.Vote != v1 || msg.TS != 0 {
		t.Errorf("selection message = %v", msg)
	}
	if !msg.History.Contains(v1, 0) {
		t.Error("selection message must carry history")
	}
	if msg.Sel != nil {
		t.Error("fixed selector: Sel must be omitted (§3.1 optimization)")
	}
}

func TestSelectionSendOmitsTSForStar(t *testing.T) {
	p := mustProcess(t, 0, v1, Params{
		N: 4, B: 0, F: 1, TD: 3,
		Flag: model.FlagStar, FLV: flv.NewClass1(4, 3, 0), Selector: selector.NewAll(4),
	})
	msg := p.Send(1)[0]
	if msg.TS != 0 || msg.History != nil {
		t.Errorf("FLAG=* selection message carries ts/history: %v", msg)
	}
}

// Selection transition: FLV returns ? on a fresh system, the chooser picks
// the minimum, vote and history are updated (lines 10-14).
func TestSelectionTransitionChoosesAndLogs(t *testing.T) {
	p := mustProcess(t, 0, "z", pbftParams())
	mu := model.Received{
		0: {Kind: model.SelectionRound, Vote: "z", TS: 0, History: model.NewHistory("z")},
		1: {Kind: model.SelectionRound, Vote: "a", TS: 0, History: model.NewHistory("a")},
		2: {Kind: model.SelectionRound, Vote: "m", TS: 0, History: model.NewHistory("m")},
		3: {Kind: model.SelectionRound, Vote: "a", TS: 0, History: model.NewHistory("a")},
	}
	p.Transition(1, mu)
	if p.Vote() != "a" {
		t.Errorf("vote = %q, want chooser minimum \"a\"", p.Vote())
	}
	if !p.History().Contains("a", 1) {
		t.Errorf("history %v must log (a, 1)", p.History())
	}
}

// Selection transition with an insufficient vector: FLV returns null, state
// is unchanged (lines 12-14 skipped).
func TestSelectionTransitionNull(t *testing.T) {
	p := mustProcess(t, 0, v1, pbftParams())
	mu := model.Received{
		0: {Kind: model.SelectionRound, Vote: v2, TS: 2},
	}
	p.Transition(1, mu)
	if p.Vote() != v1 {
		t.Errorf("vote = %q, want unchanged init", p.Vote())
	}
	if len(p.History()) != 1 {
		t.Errorf("history grew on null selection: %v", p.History())
	}
}

// Validation round: a majority of validators announcing v sets vote := v and
// ts := φ (lines 22-24).
func TestValidationTransitionValidates(t *testing.T) {
	p := mustProcess(t, 0, v1, pbftParams())
	mu := model.Received{
		0: {Kind: model.ValidationRound, Vote: v2},
		1: {Kind: model.ValidationRound, Vote: v2},
		2: {Kind: model.ValidationRound, Vote: v2},
		3: {Kind: model.ValidationRound, Vote: v1},
	}
	p.Transition(2, mu) // round 2 = validation of phase 1
	if p.Vote() != v2 {
		t.Errorf("vote = %q, want validated v2", p.Vote())
	}
	if p.TS() != 1 {
		t.Errorf("ts = %d, want 1", p.TS())
	}
}

// Validation round without a majority: the vote reverts to the history value
// matching ts (line 26).
func TestValidationTransitionReverts(t *testing.T) {
	p := mustProcess(t, 0, v1, pbftParams())
	// Selection of phase 1 moved the vote to v2.
	mu := model.Received{
		0: {Kind: model.SelectionRound, Vote: v2, TS: 0, History: model.NewHistory(v2)},
		1: {Kind: model.SelectionRound, Vote: v2, TS: 0, History: model.NewHistory(v2)},
		2: {Kind: model.SelectionRound, Vote: v2, TS: 0, History: model.NewHistory(v2)},
		3: {Kind: model.SelectionRound, Vote: v2, TS: 0, History: model.NewHistory(v2)},
	}
	p.Transition(1, mu)
	if p.Vote() != v2 {
		t.Fatalf("selection did not adopt v2 (vote=%q)", p.Vote())
	}
	// Validation: split announcements, no majority.
	p.Transition(2, model.Received{
		0: {Kind: model.ValidationRound, Vote: v2},
		1: {Kind: model.ValidationRound, Vote: v1},
	})
	if p.Vote() != v1 {
		t.Errorf("vote = %q, want revert to v1 (ts=0 history value)", p.Vote())
	}
	if p.TS() != 0 {
		t.Errorf("ts = %d, want unchanged 0", p.TS())
	}
}

// Without history (class 2) the failed validation keeps the selected vote
// (footnote 7: line 26 is optional).
func TestValidationNoRevertWithoutHistory(t *testing.T) {
	params := Params{
		N: 5, B: 1, F: 0, TD: 4,
		Flag:     model.FlagPhase,
		FLV:      flv.NewClass2(5, 4, 1),
		Selector: selector.NewAll(5),
	}
	p := mustProcess(t, 0, v1, params)
	mu := model.Received{}
	for i := 0; i < 5; i++ {
		mu[model.PID(i)] = model.Message{Kind: model.SelectionRound, Vote: v2, TS: 0}
	}
	p.Transition(1, mu)
	if p.Vote() != v2 {
		t.Fatalf("selection did not adopt v2")
	}
	p.Transition(2, model.Received{}) // empty validation round
	if p.Vote() != v2 {
		t.Errorf("vote = %q, want v2 kept (no revert without history)", p.Vote())
	}
}

// Decision round with FLAG=φ: only votes timestamped with the current phase
// count (line 31).
func TestDecisionFlagPhase(t *testing.T) {
	p := mustProcess(t, 0, v1, pbftParams())
	// TD=3 votes for v2 but stale timestamps: no decision.
	stale := model.Received{
		0: {Kind: model.DecisionRound, Vote: v2, TS: 0},
		1: {Kind: model.DecisionRound, Vote: v2, TS: 0},
		2: {Kind: model.DecisionRound, Vote: v2, TS: 0},
	}
	p.Transition(3, stale) // round 3 = decision of phase 1
	if _, decided := p.Decided(); decided {
		t.Fatal("decided on stale timestamps with FLAG=φ")
	}
	// Current-phase timestamps: decide. Phase 2's decision round is 6.
	fresh := model.Received{
		0: {Kind: model.DecisionRound, Vote: v2, TS: 2},
		1: {Kind: model.DecisionRound, Vote: v2, TS: 2},
		2: {Kind: model.DecisionRound, Vote: v2, TS: 2},
	}
	p.Transition(6, fresh)
	v, decided := p.Decided()
	if !decided || v != v2 {
		t.Fatalf("Decided = (%q, %v), want (v2, true)", v, decided)
	}
	if p.DecidedAt() != 6 {
		t.Errorf("DecidedAt = %d, want 6", p.DecidedAt())
	}
}

// Decision round with FLAG=*: all votes count regardless of timestamp.
func TestDecisionFlagStar(t *testing.T) {
	params := Params{
		N: 4, B: 0, F: 1, TD: 3,
		Flag: model.FlagStar, FLV: flv.NewClass1(4, 3, 0), Selector: selector.NewAll(4),
	}
	p := mustProcess(t, 0, v1, params)
	mu := model.Received{
		0: {Kind: model.DecisionRound, Vote: v2, TS: 0},
		1: {Kind: model.DecisionRound, Vote: v2, TS: 0},
		2: {Kind: model.DecisionRound, Vote: v2, TS: 0},
	}
	p.Transition(2, mu) // round 2 = decision of phase 1 under FLAG=*
	v, decided := p.Decided()
	if !decided || v != v2 {
		t.Fatalf("Decided = (%q, %v), want (v2, true)", v, decided)
	}
}

// A second qualifying decision does not overwrite the first.
func TestDecisionIsSticky(t *testing.T) {
	params := Params{
		N: 4, B: 0, F: 1, TD: 3,
		Flag: model.FlagStar, FLV: flv.NewClass1(4, 3, 0), Selector: selector.NewAll(4),
	}
	p := mustProcess(t, 0, v1, params)
	decide := func(v model.Value, r model.Round) {
		mu := model.Received{}
		for i := 0; i < 3; i++ {
			mu[model.PID(i)] = model.Message{Kind: model.DecisionRound, Vote: v}
		}
		p.Transition(r, mu)
	}
	decide(v1, 2)
	decide(v2, 4)
	v, _ := p.Decided()
	if v != v1 {
		t.Errorf("decision overwritten: %q", v)
	}
	if p.DecidedAt() != 2 {
		t.Errorf("DecidedAt = %d, want 2", p.DecidedAt())
	}
}

// Validation-round sender: only members of validators_p send (line 18).
func TestValidationSendOnlyValidators(t *testing.T) {
	params := Params{
		N: 3, B: 0, F: 1, TD: 2,
		Flag:     model.FlagPhase,
		FLV:      flv.NewPaxos(3),
		Selector: selector.NewStableLeader(1),
	}
	follower := mustProcess(t, 0, v1, params)
	leader := mustProcess(t, 1, v1, params)
	// Run the selection transition so validators_p is computed.
	mu := model.Received{
		0: {Kind: model.SelectionRound, Vote: v1, TS: 0},
		1: {Kind: model.SelectionRound, Vote: v2, TS: 0},
		2: {Kind: model.SelectionRound, Vote: v1, TS: 0},
	}
	follower.Transition(1, mu)
	leader.Transition(1, mu)
	if out := follower.Send(2); out != nil {
		t.Errorf("non-validator sent validation messages: %v", out)
	}
	out := leader.Send(2)
	if len(out) != 3 {
		t.Fatalf("leader validation send to %d dests, want all 3", len(out))
	}
	if out[0].Kind != model.ValidationRound {
		t.Errorf("kind = %v", out[0].Kind)
	}
}

// Merged OTR-style execution: a unanimous system decides in a single round.
func TestMergedDecidesInOneRound(t *testing.T) {
	p := mustProcess(t, 0, v1, otrParams())
	mu := model.Received{}
	for i := 0; i < 4; i++ {
		mu[model.PID(i)] = model.Message{Kind: model.SelectionRound, Vote: v1}
	}
	p.Transition(1, mu)
	v, decided := p.Decided()
	if !decided || v != v1 {
		t.Fatalf("Decided = (%q, %v), want (v1, true)", v, decided)
	}
}

// SkipFirstSelection: round 1 is the validation round and select_p is the
// initial value, so a unanimous leader-validated phase-1 decision works.
func TestSkipFirstSelection(t *testing.T) {
	params := pbftParams()
	params.SkipFirstSelection = true
	p := mustProcess(t, 0, v1, params)
	// Round 1 is now validation: all four validators announce init v1.
	mu := model.Received{}
	for i := 0; i < 4; i++ {
		mu[model.PID(i)] = model.Message{Kind: model.ValidationRound, Vote: v1}
	}
	p.Transition(1, mu)
	if p.TS() != 1 || p.Vote() != v1 {
		t.Fatalf("validation failed: vote=%q ts=%d", p.Vote(), p.TS())
	}
	// Round 2 is the decision round of phase 1.
	dec := model.Received{}
	for i := 0; i < 3; i++ {
		dec[model.PID(i)] = model.Message{Kind: model.DecisionRound, Vote: v1, TS: 1}
	}
	p.Transition(2, dec)
	if _, decided := p.Decided(); !decided {
		t.Fatal("no decision after phase 1 with skip-first optimization")
	}
	// A validator must send its init as select_p in round 1.
	p2 := mustProcess(t, 1, v2, params)
	out := p2.Send(1)
	if len(out) == 0 || out[0].Vote != v2 {
		t.Errorf("skip-first validator round-1 send = %v, want init vote", out)
	}
}

// A lone phase-1 decider under skip-first: process 0 decides in round 2
// and falls silent, while processes 1-3 each hear only two decision votes.
// Phase 2 must lock the phase-1 value, which needs (v, 1) in the histories
// that back it: line 13 for the skipped selection round.
func TestSkipFirstLoneDeciderLocksInPhaseTwo(t *testing.T) {
	params := pbftParams()
	params.SkipFirstSelection = true
	procs := make([]*Process, 4)
	for i := range procs {
		procs[i] = mustProcess(t, model.PID(i), v1, params)
	}
	// deliver runs round r: each live process hears from the senders
	// keep allows it.
	deliver := func(r model.Round, live []int, keep func(from, to int) bool) {
		out := make(map[int]map[model.PID]model.Message)
		for _, i := range live {
			out[i] = procs[i].Send(r)
		}
		for _, to := range live {
			mu := model.Received{}
			for _, from := range live {
				if m, ok := out[from][model.PID(to)]; ok && keep(from, to) {
					mu[model.PID(from)] = m
				}
			}
			procs[to].Transition(r, mu)
		}
	}
	all := []int{0, 1, 2, 3}
	deliver(1, all, func(int, int) bool { return true })
	// Round 2: process 0 hears everyone; 1-3 each lose two votes.
	lost := map[int][2]int{1: {0, 2}, 2: {0, 3}, 3: {0, 1}}
	deliver(2, all, func(from, to int) bool {
		l, ok := lost[to]
		return !ok || (from != l[0] && from != l[1])
	})
	if v, ok := procs[0].Decided(); !ok || v != v1 {
		t.Fatalf("process 0: Decided = (%q, %v), want (v1, true)", v, ok)
	}
	for _, i := range []int{1, 2, 3} {
		if _, ok := procs[i].Decided(); ok {
			t.Fatalf("process %d decided in round 2 on two votes", i)
		}
	}
	// Rounds 3-5 (phase 2) without process 0.
	for r := model.Round(3); r <= 5; r++ {
		deliver(r, []int{1, 2, 3}, func(int, int) bool { return true })
	}
	for _, i := range []int{1, 2, 3} {
		v, ok := procs[i].Decided()
		if !ok || v != v1 || procs[i].DecidedAt() != 5 {
			t.Errorf("process %d: Decided = (%q, %v) at round %d, want v1 at round 5",
				i, v, ok, procs[i].DecidedAt())
		}
	}
}

// Non-fixed selectors transmit the proposed set and lines 15/21 reconstruct
// validators from counts.
type perProcessSelector struct{ n int }

func (s perProcessSelector) Select(p model.PID, _ model.Phase) []model.PID {
	return model.AllPIDs(s.n)
}
func (s perProcessSelector) Fixed() bool  { return false }
func (s perProcessSelector) Name() string { return "selector/test-nonfixed" }

func TestNonFixedSelectorFlow(t *testing.T) {
	params := Params{
		N: 4, B: 1, F: 0, TD: 3,
		Flag:       model.FlagPhase,
		FLV:        flv.NewPBFT(4, 1),
		Selector:   perProcessSelector{n: 4},
		UseHistory: true,
	}
	p := mustProcess(t, 0, v1, params)
	// Selection send must now include the proposed set.
	out := p.Send(1)
	if got := out[0].Sel; model.PIDSetKey(got) != "0,1,2,3" {
		t.Fatalf("selection Sel = %v", got)
	}
	// Line 15: > (n+b)/2 = 2.5 matching proposals elect the validators.
	mu := model.Received{}
	for i := 0; i < 3; i++ {
		mu[model.PID(i)] = model.Message{
			Kind: model.SelectionRound, Vote: v1, Sel: model.AllPIDs(4),
			History: model.NewHistory(v1),
		}
	}
	p.Transition(1, mu)
	if model.PIDSetKey(p.validators) != "0,1,2,3" {
		t.Fatalf("validators after line 15 = %v", p.validators)
	}
	// Line 21: b+1 = 2 validation messages with the set reconstruct it.
	p2 := mustProcess(t, 1, v1, params)
	p2.Transition(2, model.Received{
		0: {Kind: model.ValidationRound, Vote: v1, Sel: model.AllPIDs(4)},
		1: {Kind: model.ValidationRound, Vote: v1, Sel: model.AllPIDs(4)},
	})
	if model.PIDSetKey(p2.validators) != "0,1,2,3" {
		t.Fatalf("validators after line 21 = %v", p2.validators)
	}
	// With fewer than b+1 copies the set is ∅.
	p3 := mustProcess(t, 2, v1, params)
	p3.Transition(2, model.Received{
		0: {Kind: model.ValidationRound, Vote: v1, Sel: model.AllPIDs(4)},
	})
	if len(p3.validators) != 0 {
		t.Fatalf("validators from a single proposal = %v, want empty", p3.validators)
	}
}

// HistoryBound prunes old entries.
func TestHistoryBound(t *testing.T) {
	params := pbftParams()
	params.HistoryBound = 2
	p := mustProcess(t, 0, v1, params)
	for phase := 1; phase <= 5; phase++ {
		mu := model.Received{}
		for i := 0; i < 4; i++ {
			mu[model.PID(i)] = model.Message{
				Kind: model.SelectionRound, Vote: v2, TS: 0,
				History: model.NewHistory(v2),
			}
		}
		p.Transition(model.Round(3*phase-2), mu)
	}
	h := p.History()
	for _, e := range h {
		if e.Phase < 3 {
			t.Errorf("entry (%s,%d) survived pruning with bound 2: %v", e.Val, e.Phase, h)
		}
	}
}

// Every process built from one Params draws its coin from its own source:
// process 1's flips are the same whether process 0 drew none or fifty.
func TestCoinChooserPerProcess(t *testing.T) {
	flips := func(drawnBy0 int) []model.Value {
		params := pbftParams()
		params.Chooser = NewCoinChooser(7, "0", "1")
		p0, err := NewProcess(0, v1, params)
		if err != nil {
			t.Fatal(err)
		}
		p1, err := NewProcess(1, v1, params)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < drawnBy0; i++ {
			p0.params.Chooser.Choose(nil)
		}
		out := make([]model.Value, 32)
		for i := range out {
			out[i], _ = p1.params.Chooser.Choose(nil)
		}
		return out
	}
	if a, b := flips(0), flips(50); !slices.Equal(a, b) {
		t.Errorf("process 1's flips depend on process 0's draws:\n%v\n%v", a, b)
	}
}

func TestChoosers(t *testing.T) {
	mu := model.Received{
		0: {Vote: "b"}, 1: {Vote: "b"}, 2: {Vote: "a"},
	}
	if v, ok := (MinChooser{}).Choose(mu); !ok || v != "a" {
		t.Errorf("MinChooser = (%q, %v)", v, ok)
	}
	if v, ok := (MostOftenChooser{}).Choose(mu); !ok || v != "b" {
		t.Errorf("MostOftenChooser = (%q, %v)", v, ok)
	}
	coin := NewCoinChooser(42, "0", "1")
	seen := map[model.Value]int{}
	for i := 0; i < 100; i++ {
		v, ok := coin.Choose(nil)
		if !ok {
			t.Fatal("coin chooser must always choose")
		}
		seen[v]++
	}
	if seen["0"] == 0 || seen["1"] == 0 {
		t.Errorf("coin is not fair over 100 flips: %v", seen)
	}
	// Same seed replays the same flips.
	c1, c2 := NewCoinChooser(7, "0", "1"), NewCoinChooser(7, "0", "1")
	for i := 0; i < 50; i++ {
		a, _ := c1.Choose(nil)
		b, _ := c2.Choose(nil)
		if a != b {
			t.Fatal("coin chooser is not seed-deterministic")
		}
	}
	if (MinChooser{}).Name() == "" || (MostOftenChooser{}).Name() == "" || coin.Name() == "" {
		t.Error("chooser names must be non-empty")
	}
}
