package sim

import (
	"maps"
	"testing"

	"genconsensus/internal/adversary"
	"genconsensus/internal/core"
	"genconsensus/internal/model"
)

// probe records every vector it receives; it proposes nothing.
type probe struct {
	id  model.PID
	n   int
	mus map[model.Round]model.Received
}

func (p *probe) ID() model.PID { return p.id }
func (p *probe) Send(r model.Round) map[model.PID]model.Message {
	msg := model.Message{Kind: model.SelectionRound, Vote: model.Value("v")}
	return model.Broadcast(msg, model.AllPIDs(p.n))
}
func (p *probe) Transition(r model.Round, mu model.Received) {
	if p.mus == nil {
		p.mus = map[model.Round]model.Received{}
	}
	p.mus[r] = maps.Clone(mu)
}
func (p *probe) Decided() (model.Value, bool) { return model.NoValue, false }

// equivocator sends different votes to different destinations every round.
type equivocator struct {
	id model.PID
	n  int
}

func (e *equivocator) ID() model.PID { return e.id }
func (e *equivocator) Send(model.Round) map[model.PID]model.Message {
	out := map[model.PID]model.Message{}
	for i := 0; i < e.n; i++ {
		v := model.Value("a")
		if i%2 == 1 {
			v = "b"
		}
		out[model.PID(i)] = model.Message{Kind: model.SelectionRound, Vote: v}
	}
	return out
}
func (e *equivocator) Transition(model.Round, model.Received) {}
func (e *equivocator) Decided() (model.Value, bool)           { return model.NoValue, false }

func runPredicateProbe(t *testing.T, n, b, f int, byzPID model.PID, mode Mode, rounds int) map[model.PID]*probe {
	t.Helper()
	procs := map[model.PID]model.Proc{}
	probes := map[model.PID]*probe{}
	inits := map[model.PID]model.Value{}
	for i := 0; i < n; i++ {
		p := model.PID(i)
		if p == byzPID {
			procs[p] = &equivocator{id: p, n: n}
			continue
		}
		pr := &probe{id: p, n: n}
		probes[p] = pr
		procs[p] = pr
		inits[p] = "v"
	}
	sched := core.Schedule{Flag: model.FlagPhase}
	byz := map[model.PID]bool{}
	if byzPID >= 0 {
		byz[byzPID] = true
	}
	e, err := New(Config{
		Params:    core.Params{N: n, B: b, F: f},
		Inits:     inits,
		Procs:     procs,
		ProcByz:   byz,
		Sched:     &sched,
		Modes:     func(model.Round, model.RoundKind) Mode { return mode },
		Seed:      5,
		MaxRounds: rounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	return probes
}

// Pcons oracle mode: even an equivocating Byzantine sender is canonicalized
// so that all correct processes receive identical vectors.
func TestModeConsCanonicalizesEquivocation(t *testing.T) {
	probes := runPredicateProbe(t, 4, 1, 0, 3, ModeCons, 5)
	for r := model.Round(1); r <= 5; r++ {
		var ref model.Received
		var refPID model.PID
		for p, pr := range probes {
			mu := pr.mus[r]
			if ref == nil {
				ref, refPID = mu, p
				continue
			}
			if len(mu) != len(ref) {
				t.Fatalf("round %d: %d and %d received different vector sizes %d vs %d",
					r, p, refPID, len(mu), len(ref))
			}
			for q, m := range mu {
				if ref[q].Vote != m.Vote {
					t.Fatalf("round %d: sender %d delivered %q to %d but %q to %d under Pcons",
						r, q, m.Vote, p, ref[q].Vote, refPID)
				}
			}
		}
		// The Byzantine message must have been delivered to everyone.
		for p, pr := range probes {
			if _, ok := pr.mus[r][3]; !ok {
				t.Fatalf("round %d: process %d missing the canonicalized Byzantine message", r, p)
			}
		}
	}
}

// Pgood mode preserves equivocation: the halves see different votes.
func TestModeGoodPreservesEquivocation(t *testing.T) {
	probes := runPredicateProbe(t, 4, 1, 0, 3, ModeGood, 3)
	m0 := probes[0].mus[1][3]
	m1 := probes[1].mus[1][3]
	if m0.Vote == m1.Vote {
		t.Fatalf("Pgood canonicalized the equivocator: both got %q", m0.Vote)
	}
}

// Prel: every correct process receives at least n-b-f messages per round.
func TestModeRelMinimumDelivery(t *testing.T) {
	n, b, f := 5, 1, 1
	probes := runPredicateProbe(t, n, b, f, -1, ModeRel, 12)
	min := n - b - f
	for p, pr := range probes {
		for r, mu := range pr.mus {
			if len(mu) < min {
				t.Fatalf("process %d round %d: received %d < n-b-f = %d", p, r, len(mu), min)
			}
			if _, ok := mu[p]; !ok {
				t.Fatalf("process %d round %d: self-delivery missing", p, r)
			}
		}
	}
}

// Bad mode with DropAll still delivers self-messages.
func TestModeBadSelfDelivery(t *testing.T) {
	procs := map[model.PID]model.Proc{}
	probes := map[model.PID]*probe{}
	inits := map[model.PID]model.Value{}
	n := 3
	for i := 0; i < n; i++ {
		p := model.PID(i)
		pr := &probe{id: p, n: n}
		probes[p] = pr
		procs[p] = pr
		inits[p] = "v"
	}
	sched := core.Schedule{Flag: model.FlagPhase}
	e, err := New(Config{
		Params:    core.Params{N: n, B: 0, F: 1},
		Inits:     inits,
		Procs:     procs,
		Sched:     &sched,
		Modes:     AlwaysBad(),
		Drop:      DropAll{},
		Seed:      1,
		MaxRounds: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	for p, pr := range probes {
		for r, mu := range pr.mus {
			if len(mu) != 1 {
				t.Fatalf("process %d round %d: %d messages under DropAll, want 1 (self)", p, r, len(mu))
			}
			if _, ok := mu[p]; !ok {
				t.Fatalf("process %d round %d: self message missing", p, r)
			}
		}
	}
}

// Crashed processes stop transitioning and never count as deciders.
func TestCrashStopsParticipation(t *testing.T) {
	cfgParams := pbftParams()
	cfgParams.F = 1
	cfgParams.B = 0
	cfgParams.TD = 3
	e, err := New(Config{
		Params:  cfgParams,
		Inits:   inits("a", "a", "a", "a"),
		Crashes: map[model.PID]CrashPlan{2: {Round: 2}},
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if !res.AllDecided {
		t.Fatalf("correct processes did not decide: %+v", res)
	}
	if _, ok := res.Decisions[2]; ok {
		t.Error("crashed process reported a decision")
	}
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
}

// Byzantine processes under equivocation in a *dropping* network still
// cannot break MQB at its bound (interaction of Bad mode and adversary).
func TestMQBBadPeriodsWithEquivocator(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		e, err := New(Config{
			Params:    mqbParams(),
			Inits:     inits("b", "a", "b", "a"),
			Byzantine: map[model.PID]adversary.Strategy{4: adversary.Equivocate{A: "a", B: "b"}},
			Modes:     GoodFromPhase(mqbParams().Schedule(), 3),
			Drop:      RandomDrop{P: 0.6},
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := e.Run()
		if !res.AllDecided {
			t.Fatalf("seed %d: no decision in %d rounds", seed, res.Rounds)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("seed %d: %v", seed, res.Violations)
		}
	}
}
