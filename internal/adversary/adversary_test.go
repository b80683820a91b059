package adversary

import (
	"testing"

	"genconsensus/internal/core"
	"genconsensus/internal/model"
)

func newTestProc(t *testing.T, s Strategy) *Proc {
	t.Helper()
	sched := core.Schedule{Flag: model.FlagPhase}
	return NewProc(3, 4, sched, 42, s)
}

func TestSilent(t *testing.T) {
	p := newTestProc(t, Silent{})
	for r := model.Round(1); r <= 6; r++ {
		if out := p.Send(r); out != nil {
			t.Fatalf("silent process sent %v in round %d", out, r)
		}
		p.Transition(r, model.Received{})
	}
	if _, decided := p.Decided(); decided {
		t.Error("Byzantine process must never report a decision")
	}
	if p.ID() != 3 {
		t.Errorf("ID = %d", p.ID())
	}
}

func TestRandomJunkSendsToAll(t *testing.T) {
	p := newTestProc(t, RandomJunk{Values: []model.Value{"a", "b", "c"}})
	out := p.Send(1)
	if len(out) != 4 {
		t.Fatalf("junk sent to %d dests, want 4", len(out))
	}
	for d, m := range out {
		if m.Vote == model.NoValue {
			t.Errorf("dest %d: empty vote", d)
		}
	}
	// Determinism under the same seed.
	p2 := newTestProc(t, RandomJunk{Values: []model.Value{"a", "b", "c"}})
	out2 := p2.Send(1)
	for d := range out {
		if out[d].Vote != out2[d].Vote || out[d].TS != out2[d].TS {
			t.Fatal("junk strategy is not seed-deterministic")
		}
	}
}

func TestEquivocateSplitsBothHalves(t *testing.T) {
	p := newTestProc(t, Equivocate{A: "a", B: "b"})
	out := p.Send(3) // decision round of phase 1
	if len(out) != 4 {
		t.Fatalf("equivocate sent to %d dests", len(out))
	}
	if out[0].Vote != "a" || out[1].Vote != "a" {
		t.Errorf("low half got %q/%q, want a/a", out[0].Vote, out[1].Vote)
	}
	if out[2].Vote != "b" || out[3].Vote != "b" {
		t.Errorf("high half got %q/%q, want b/b", out[2].Vote, out[3].Vote)
	}
	// The forged timestamp claims current-phase validation.
	if out[0].TS != 1 {
		t.Errorf("equivocate TS = %d, want phase 1", out[0].TS)
	}
}

func TestForgeTimestamp(t *testing.T) {
	p := newTestProc(t, ForgeTimestamp{Target: "evil"})
	// Selection round of phase 2 (round 4): claims validation at phase 1.
	out := p.Send(4)
	m := out[0]
	if m.Vote != "evil" || m.TS != 1 {
		t.Errorf("selection forge = %v, want (evil, ts=1)", m)
	}
	if !m.History.Contains("evil", 1) {
		t.Error("forged history must back the forged timestamp")
	}
	// Decision round of phase 2 (round 6): claims current phase.
	out = p.Send(6)
	if out[0].TS != 2 {
		t.Errorf("decision forge TS = %d, want 2", out[0].TS)
	}
}

func TestMimicFollowsMajorityAndWithholdsValidation(t *testing.T) {
	s := &Mimic{}
	p := newTestProc(t, s)
	mu := model.Received{
		0: {Vote: "x"}, 1: {Vote: "x"}, 2: {Vote: "y"},
	}
	p.Transition(1, mu)
	out := p.Send(3)
	if out[0].Vote != "x" {
		t.Errorf("mimic vote = %q, want observed majority x", out[0].Vote)
	}
	if out := p.Send(2); out != nil { // validation round withheld
		t.Errorf("mimic sent validation messages: %v", out)
	}
	// Before observing anything the mimic sends a default.
	fresh := newTestProc(t, &Mimic{})
	if out := fresh.Send(1); out[0].Vote == model.NoValue {
		t.Error("fresh mimic sent empty vote")
	}
}

func TestFlipFlop(t *testing.T) {
	p := newTestProc(t, FlipFlop{Even: Silent{}, Odd: Equivocate{A: "a", B: "b"}})
	if out := p.Send(2); out != nil {
		t.Errorf("even round must be silent, got %v", out)
	}
	if out := p.Send(3); len(out) == 0 {
		t.Error("odd round must equivocate")
	}
	p.Transition(1, model.Received{}) // Observe must not panic on either leg
	p.Transition(2, model.Received{})
	if (FlipFlop{Even: Silent{}, Odd: Silent{}}).Name() != "byz/flip-flop" {
		t.Error("name")
	}
}

func TestStrategiesNamedDistinctly(t *testing.T) {
	strategies := []Strategy{
		Silent{}, RandomJunk{Values: []model.Value{"a"}},
		Equivocate{A: "a", B: "b"}, ForgeTimestamp{Target: "t"}, &Mimic{},
	}
	seen := map[string]bool{}
	for _, s := range strategies {
		name := s.Name()
		if name == "" {
			t.Errorf("%T has empty name", s)
		}
		if seen[name] {
			t.Errorf("duplicate strategy name %q", name)
		}
		seen[name] = true
	}
}
