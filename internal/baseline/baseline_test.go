package baseline

import (
	"testing"

	"genconsensus/internal/core"
	"genconsensus/internal/flv"
	"genconsensus/internal/model"
	"genconsensus/internal/selector"
	"genconsensus/internal/sim"
)

// runCustom drives baseline processes through the shared simulator.
func runCustom(t *testing.T, n, b, f int, sched core.Schedule, procs map[model.PID]model.Proc,
	inits map[model.PID]model.Value, modes sim.ModeFunc, drop sim.Dropper, seed int64, maxRounds int) sim.Result {
	t.Helper()
	e, err := sim.New(sim.Config{
		Params:    core.Params{N: n, B: b, F: f},
		Inits:     inits,
		Procs:     procs,
		Sched:     &sched,
		Modes:     modes,
		Drop:      drop,
		Seed:      seed,
		MaxRounds: maxRounds,
	})
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	return e.Run()
}

func TestOTRUnanimousDecidesRoundOne(t *testing.T) {
	n := 4
	procs := map[model.PID]model.Proc{}
	inits := map[model.PID]model.Value{}
	for i := 0; i < n; i++ {
		procs[model.PID(i)] = NewOTR(model.PID(i), n, "v")
		inits[model.PID(i)] = "v"
	}
	sched := core.Schedule{Flag: model.FlagStar, Merged: true}
	res := runCustom(t, n, 0, 1, sched, procs, inits, nil, nil, 1, 0)
	if !res.AllDecided {
		t.Fatalf("OTR did not decide in %d rounds", res.Rounds)
	}
	if res.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", res.Rounds)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
}

func TestOTRSplitInputs(t *testing.T) {
	n := 4
	procs := map[model.PID]model.Proc{}
	inits := map[model.PID]model.Value{}
	vals := []model.Value{"a", "a", "b", "b"}
	for i := 0; i < n; i++ {
		procs[model.PID(i)] = NewOTR(model.PID(i), n, vals[i])
		inits[model.PID(i)] = vals[i]
	}
	sched := core.Schedule{Flag: model.FlagStar, Merged: true}
	res := runCustom(t, n, 0, 1, sched, procs, inits, nil, nil, 1, 0)
	if !res.AllDecided || len(res.Violations) > 0 {
		t.Fatalf("res: %+v", res)
	}
	for p, v := range res.Decisions {
		if v != "a" {
			t.Errorf("process %d decided %q, want smallest-most-often a", p, v)
		}
	}
}

// The original guard: below 2n/3 messages the OTR does nothing.
func TestOTRGuard(t *testing.T) {
	p := NewOTR(0, 6, "x")
	mu := model.Received{
		0: {Vote: "y"}, 1: {Vote: "y"}, 2: {Vote: "y"}, 3: {Vote: "y"},
	}
	p.Transition(1, mu) // 4 ≤ 2n/3 = 4: guard fails
	if p.Vote() != "x" {
		t.Errorf("vote changed below the 2n/3 guard: %q", p.Vote())
	}
	mu[4] = model.Message{Vote: "y"}
	p.Transition(2, mu) // 5 > 4: adopt and decide (5 > 4 identical votes)
	if p.Vote() != "y" {
		t.Errorf("vote = %q, want y", p.Vote())
	}
	if v, ok := p.Decided(); !ok || v != "y" {
		t.Errorf("Decided = (%q, %v)", v, ok)
	}
	if p.DecidedAt() != 2 {
		t.Errorf("DecidedAt = %d", p.DecidedAt())
	}
}

func TestBenOrOriginalTerminates(t *testing.T) {
	n, f := 3, 1
	for seed := int64(0); seed < 10; seed++ {
		procs := map[model.PID]model.Proc{}
		inits := map[model.PID]model.Value{}
		vals := []model.Value{"0", "1", "1"}
		for i := 0; i < n; i++ {
			procs[model.PID(i)] = NewBenOr(model.PID(i), n, f, vals[i], seed*100+int64(i))
			inits[model.PID(i)] = vals[i]
		}
		sched := core.Schedule{Flag: model.FlagStar} // 2 rounds per phase
		res := runCustom(t, n, 0, f, sched, procs, inits, sim.AlwaysRel(), nil, seed, 4000)
		if !res.AllDecided {
			t.Fatalf("seed %d: original Ben-Or did not terminate in %d rounds", seed, res.Rounds)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("seed %d: %v", seed, res.Violations)
		}
	}
}

// Unanimous inputs decide in the first phase without coin flips.
func TestBenOrOriginalUnanimous(t *testing.T) {
	n, f := 3, 1
	procs := map[model.PID]model.Proc{}
	inits := map[model.PID]model.Value{}
	for i := 0; i < n; i++ {
		procs[model.PID(i)] = NewBenOr(model.PID(i), n, f, "1", int64(i))
		inits[model.PID(i)] = "1"
	}
	sched := core.Schedule{Flag: model.FlagStar}
	res := runCustom(t, n, 0, f, sched, procs, inits, sim.AlwaysRel(), nil, 3, 0)
	if !res.AllDecided || res.Rounds != 2 {
		t.Fatalf("rounds = %d (decided=%v), want 2", res.Rounds, res.AllDecided)
	}
	for _, v := range res.Decisions {
		if v != "1" {
			t.Errorf("decided %q, want 1", v)
		}
	}
}

// Ben-Or transition unit semantics: proposal formation and adoption.
func TestBenOrTransitions(t *testing.T) {
	p := NewBenOr(0, 3, 1, "0", 7)
	// Report round: majority of "1" forms a proposal.
	p.Transition(1, model.Received{
		0: {Vote: "0"}, 1: {Vote: "1"}, 2: {Vote: "1"},
	})
	if p.proposal != "1" {
		t.Fatalf("proposal = %q, want 1", p.proposal)
	}
	// Proposal round: f+1 = 2 proposals decide.
	p.Transition(2, model.Received{
		1: {Vote: "1", TS: 1}, 2: {Vote: "1", TS: 1},
	})
	if v, ok := p.Decided(); !ok || v != "1" {
		t.Fatalf("Decided = (%q, %v), want (1, true)", v, ok)
	}
	// A single proposal only adopts.
	q := NewBenOr(1, 3, 1, "0", 8)
	q.Transition(1, model.Received{0: {Vote: "0"}, 1: {Vote: "0"}})
	if q.proposal != "0" {
		t.Fatalf("proposal = %q, want 0", q.proposal)
	}
	q.Transition(2, model.Received{0: {Vote: "1", TS: 1}})
	if _, ok := q.Decided(); ok {
		t.Fatal("decided on a single proposal")
	}
	if q.Vote() != "1" {
		t.Errorf("vote = %q, want adopted 1", q.Vote())
	}
	// No proposals at all: coin flip (value stays binary).
	r := NewBenOr(2, 3, 1, "0", 9)
	r.Transition(2, model.Received{0: {Vote: model.NoValue, TS: 1}})
	if v := r.Vote(); v != "0" && v != "1" {
		t.Errorf("coin produced %q", v)
	}
}

// --- E-DIFF: differential runs against the instantiations ------------------

// Selection-level improvement claim (§5.1): whenever the original OTR's
// guard passes (|µ| > 2n/3), the instantiated class-1 FLV returns non-null.
func TestOTRSelectionImprovement(t *testing.T) {
	n := 6
	td := 5 // ⌈(2n+1)/3⌉
	f := flv.NewClass1(n, td, 0)
	vals := []model.Value{"a", "b", "c"}
	for mask := 0; mask < 1<<n; mask++ {
		mu := model.Received{}
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				mu[model.PID(i)] = model.Message{Vote: vals[i%3]}
			}
		}
		if 3*len(mu) > 2*n {
			if res := f.Eval(mu, 1); res.Out == flv.None {
				t.Fatalf("FLV null on %d messages (> 2n/3): instantiation must select whenever the original does", len(mu))
			}
		}
	}
}

// End-to-end differential OTR: same seeds, same drop schedule; the
// instantiation decides at least as often, and no later in the vast
// majority of runs (the paper claims a "(small) improvement").
func TestOTRDifferential(t *testing.T) {
	n, f := 4, 1
	const seeds = 150
	origWins, instWins, ties := 0, 0, 0
	origDecided, instDecided := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		vals := []model.Value{"a", "b", "a", "c"}
		// Original.
		procs := map[model.PID]model.Proc{}
		inits := map[model.PID]model.Value{}
		for i := 0; i < n; i++ {
			procs[model.PID(i)] = NewOTR(model.PID(i), n, vals[i])
			inits[model.PID(i)] = vals[i]
		}
		sched := core.Schedule{Flag: model.FlagStar, Merged: true}
		modes := func(model.Round, model.RoundKind) sim.Mode { return sim.ModeBad }
		orig := runCustom(t, n, 0, f, sched, procs, inits, modes, sim.RandomDrop{P: 0.85}, seed, 60)

		// Instantiated (same network schedule and seed).
		params := core.Params{
			N: n, B: 0, F: f, TD: 3,
			Flag:     model.FlagStar,
			FLV:      flv.NewClass1(n, 3, 0),
			Selector: selector.NewAll(n),
			Chooser:  core.MostOftenChooser{},
			Merged:   true,
		}
		e, err := sim.New(sim.Config{
			Params: params, Inits: inits,
			Modes: modes, Drop: sim.RandomDrop{P: 0.85},
			Seed: seed, MaxRounds: 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		inst := e.Run()

		if len(orig.Violations) > 0 || len(inst.Violations) > 0 {
			t.Fatalf("seed %d: violations orig=%v inst=%v", seed, orig.Violations, inst.Violations)
		}
		if orig.AllDecided {
			origDecided++
		}
		if inst.AllDecided {
			instDecided++
		}
		switch {
		case orig.AllDecided && inst.AllDecided:
			switch {
			case inst.Rounds < orig.Rounds:
				instWins++
			case inst.Rounds > orig.Rounds:
				origWins++
			default:
				ties++
			}
		case inst.AllDecided && !orig.AllDecided:
			instWins++
		case orig.AllDecided && !inst.AllDecided:
			origWins++
		}
	}
	if instDecided < origDecided {
		t.Errorf("instantiation decided in %d/%d runs, original in %d: improvement claim inverted",
			instDecided, seeds, origDecided)
	}
	if origWins > (instWins+ties)/4 {
		t.Errorf("original won %d runs vs instantiation %d wins + %d ties: not a '(small) improvement' shape",
			origWins, instWins, ties)
	}
	t.Logf("E-DIFF OTR: inst wins %d, ties %d, orig wins %d; decided inst=%d orig=%d of %d",
		instWins, ties, origWins, instDecided, origDecided, seeds)
}

// End-to-end differential Ben-Or: both versions terminate under Prel and
// agree internally; phase counts are on the same order.
func TestBenOrDifferential(t *testing.T) {
	n, f := 3, 1
	const seeds = 30
	sumOrig, sumInst := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		vals := []model.Value{"0", "1", "0"}
		procs := map[model.PID]model.Proc{}
		inits := map[model.PID]model.Value{}
		for i := 0; i < n; i++ {
			procs[model.PID(i)] = NewBenOr(model.PID(i), n, f, vals[i], seed*100+int64(i))
			inits[model.PID(i)] = vals[i]
		}
		sched := core.Schedule{Flag: model.FlagStar}
		orig := runCustom(t, n, 0, f, sched, procs, inits, sim.AlwaysRel(), nil, seed, 4000)

		params := core.Params{
			N: n, B: 0, F: f, TD: 2,
			Flag:     model.FlagPhase,
			FLV:      flv.NewBenOr(0),
			Selector: selector.NewAll(n),
			Chooser:  core.NewCoinChooser(seed*31+11, "0", "1"),
		}
		e, err := sim.New(sim.Config{
			Params: params, Inits: inits,
			Modes: sim.AlwaysRel(), Seed: seed, MaxRounds: 4000,
		})
		if err != nil {
			t.Fatal(err)
		}
		inst := e.Run()
		if !orig.AllDecided || !inst.AllDecided {
			t.Fatalf("seed %d: termination orig=%v inst=%v", seed, orig.AllDecided, inst.AllDecided)
		}
		if len(orig.Violations) > 0 || len(inst.Violations) > 0 {
			t.Fatalf("seed %d: violations orig=%v inst=%v", seed, orig.Violations, inst.Violations)
		}
		sumOrig += (orig.Rounds + 1) / 2 // phases of 2 rounds
		sumInst += (inst.Rounds + 2) / 3 // phases of 3 rounds
	}
	meanOrig := float64(sumOrig) / seeds
	meanInst := float64(sumInst) / seeds
	if meanInst > 6*meanOrig+3 || meanOrig > 6*meanInst+3 {
		t.Errorf("phase counts diverge: original mean %.1f, instantiated mean %.1f", meanOrig, meanInst)
	}
	t.Logf("E-DIFF Ben-Or: mean phases original=%.2f instantiated=%.2f", meanOrig, meanInst)
}
