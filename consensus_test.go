package genconsensus

import (
	"errors"
	"strings"
	"testing"
)

func TestConstructorsAtMinimalN(t *testing.T) {
	tests := []struct {
		name   string
		make   func() (*Spec, error)
		class  Class
		rounds int
		state  int
	}{
		{"OneThirdRule n=4 f=1", func() (*Spec, error) { return NewOneThirdRule(4, 1) }, Class1, 1, 1},
		{"FaB n=6 b=1", func() (*Spec, error) { return NewFaBPaxos(6, 1) }, Class1, 2, 1},
		{"MQB n=5 b=1", func() (*Spec, error) { return NewMQB(5, 1) }, Class2, 3, 2},
		{"Paxos n=3 f=1", func() (*Spec, error) { return NewPaxos(3, 1) }, Class3, 3, 2},
		{"CT n=3 f=1", func() (*Spec, error) { return NewChandraToueg(3, 1) }, Class2, 3, 2},
		{"PBFT n=4 b=1", func() (*Spec, error) { return NewPBFT(4, 1) }, Class3, 3, 3},
		{"BenOr n=3 f=1", func() (*Spec, error) { return NewBenOr(3, 1, 7) }, Class2, 3, 2},
		{"ByzBenOr n=6 b=1", func() (*Spec, error) { return NewByzantineBenOr(6, 1, 7, false) }, Class2, 3, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec, err := tt.make()
			if err != nil {
				t.Fatalf("constructor: %v", err)
			}
			if spec.Class != tt.class {
				t.Errorf("class = %v, want %v", spec.Class, tt.class)
			}
			if got := spec.RoundsPerPhase(); got != tt.rounds {
				t.Errorf("rounds/phase = %d, want %d", got, tt.rounds)
			}
			if got := len(spec.StateVars()); got != tt.state {
				t.Errorf("state vars = %v, want %d", spec.StateVars(), tt.state)
			}
			if s := spec.String(); !strings.Contains(s, spec.Name) {
				t.Errorf("String() = %q must contain the name", s)
			}
		})
	}
}

func TestConstructorsRejectBelowBound(t *testing.T) {
	cases := []struct {
		name string
		make func() (*Spec, error)
	}{
		{"OneThirdRule n=3 f=1", func() (*Spec, error) { return NewOneThirdRule(3, 1) }},
		{"FaB n=5 b=1", func() (*Spec, error) { return NewFaBPaxos(5, 1) }},
		{"MQB n=4 b=1", func() (*Spec, error) { return NewMQB(4, 1) }},
		{"Paxos n=2 f=1", func() (*Spec, error) { return NewPaxos(2, 1) }},
		{"CT n=2 f=1", func() (*Spec, error) { return NewChandraToueg(2, 1) }},
		{"PBFT n=3 b=1", func() (*Spec, error) { return NewPBFT(3, 1) }},
		{"BenOr n=2 f=1", func() (*Spec, error) { return NewBenOr(2, 1, 0) }},
		{"generic c1 n=5 b=1", func() (*Spec, error) { return NewGeneric(Class1, 5, 1, 0) }},
		{"generic c2 n=4 b=1", func() (*Spec, error) { return NewGeneric(Class2, 4, 1, 0) }},
		{"generic c3 n=3 b=1", func() (*Spec, error) { return NewGeneric(Class3, 3, 1, 0) }},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.make(); !errors.Is(err, ErrBadSize) {
				t.Fatalf("err = %v, want ErrBadSize", err)
			}
		})
	}
}

func TestByzantineBenOrGuardsPaperBound(t *testing.T) {
	if _, err := NewByzantineBenOr(5, 1, 0, false); !errors.Is(err, ErrUnsafeBound) {
		t.Fatalf("err = %v, want ErrUnsafeBound at n=4b+1", err)
	}
	if _, err := NewByzantineBenOr(5, 1, 0, true); err != nil {
		t.Fatalf("allowPaperBound must accept n=4b+1 for reproduction: %v", err)
	}
}

// The full deterministic matrix: every algorithm decides cleanly on a
// fault-free synchronous run with split inputs.
func TestAllAlgorithmsFaultFree(t *testing.T) {
	specs := map[string]*Spec{}
	add := func(name string, s *Spec, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		specs[name] = s
	}
	otr, err := NewOneThirdRule(4, 1)
	add("otr", otr, err)
	fab, err := NewFaBPaxos(6, 1)
	add("fab", fab, err)
	mqb, err := NewMQB(5, 1)
	add("mqb", mqb, err)
	paxos, err := NewPaxos(3, 1)
	add("paxos", paxos, err)
	ct, err := NewChandraToueg(3, 1)
	add("ct", ct, err)
	pbft, err := NewPBFT(4, 1)
	add("pbft", pbft, err)
	g3, err := NewGeneric(Class3, 6, 1, 1)
	add("generic3", g3, err)

	for name, spec := range specs {
		name, spec := name, spec
		t.Run(name, func(t *testing.T) {
			res, err := Run(spec, SplitInits(spec.N, "b", "a"), WithSeed(3))
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllDecided {
				t.Fatalf("not all decided in %d rounds", res.Rounds)
			}
			if len(res.Violations) > 0 {
				t.Fatalf("violations: %v", res.Violations)
			}
			if res.Rounds > 2*spec.RoundsPerPhase() {
				t.Errorf("decided in %d rounds; expected within two phases (%d)",
					res.Rounds, 2*spec.RoundsPerPhase())
			}
		})
	}
}

// Byzantine-tolerant algorithms under the full strategy set at minimal n.
func TestByzantineMatrix(t *testing.T) {
	makeSpecs := func() map[string]*Spec {
		fab, _ := NewFaBPaxos(6, 1)
		mqb, _ := NewMQB(5, 1)
		pbft, _ := NewPBFT(4, 1)
		// The node's shape: PBFT with the first selection round skipped.
		pbftSkip, _ := NewPBFT(4, 1)
		if err := pbftSkip.Apply(WithSkipFirstSelection()); err != nil {
			t.Fatal(err)
		}
		return map[string]*Spec{"fab": fab, "mqb": mqb, "pbft": pbft, "pbft-skip": pbftSkip}
	}
	strategies := map[string]func() Strategy{
		"silent":     Silent,
		"equivocate": func() Strategy { return Equivocate("a", "b") },
		"junk":       func() Strategy { return RandomJunk("a", "b", "z") },
		"forge-ts":   func() Strategy { return ForgeTimestamp("z") },
		"mimic":      Mimic,
	}
	for specName, spec := range makeSpecs() {
		for stratName, mk := range strategies {
			spec, mk := spec, mk
			t.Run(specName+"/"+stratName, func(t *testing.T) {
				byzPID := PID(spec.N - 1)
				inits := SplitInits(spec.N, "b", "a")
				delete(inits, byzPID)
				for seed := int64(0); seed < 8; seed++ {
					res, err := Run(spec, inits,
						WithSeed(seed), WithByzantine(byzPID, mk()))
					if err != nil {
						t.Fatal(err)
					}
					if !res.AllDecided {
						t.Fatalf("seed %d: no termination in %d rounds", seed, res.Rounds)
					}
					if len(res.Violations) > 0 {
						t.Fatalf("seed %d: %v", seed, res.Violations)
					}
				}
			})
		}
	}
}

// Benign algorithms with crash faults, including coordinator crashes.
func TestCrashMatrix(t *testing.T) {
	paxos, err := NewPaxos(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := NewChandraToueg(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	otr, err := NewOneThirdRule(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	type tc struct {
		name string
		spec *Spec
		opts []RunOption
	}
	cases := []tc{
		{"paxos coordinator crash", paxos, []RunOption{WithCrash(0, 1)}},
		{"paxos follower crash", paxos, []RunOption{WithCrash(2, 2)}},
		{"paxos partial crash", paxos, []RunOption{WithCrashPartial(1, 3, 0)}},
		{"ct coordinator crash", ct, []RunOption{WithCrash(0, 2)}},
		{"otr crash", otr, []RunOption{WithCrash(3, 1)}},
	}
	for _, tt := range cases {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				opts := append([]RunOption{WithSeed(seed)}, tt.opts...)
				res, err := Run(tt.spec, SplitInits(tt.spec.N, "b", "a", "c"), opts...)
				if err != nil {
					t.Fatal(err)
				}
				if !res.AllDecided {
					t.Fatalf("seed %d: no termination in %d rounds", seed, res.Rounds)
				}
				if len(res.Violations) > 0 {
					t.Fatalf("seed %d: %v", seed, res.Violations)
				}
			}
		})
	}
}

// GST sweep across algorithms: bad periods first, decisions shortly after
// the first good phase.
func TestGSTSweep(t *testing.T) {
	mqb, err := NewMQB(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	pbft, err := NewPBFT(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []*Spec{mqb, pbft} {
		for _, phi0 := range []Phase{2, 4} {
			res, err := Run(spec, SplitInits(spec.N, "b", "a"),
				WithSeed(11), WithGoodFromPhase(phi0), WithDropProbability(0.4))
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllDecided {
				t.Fatalf("%s phi0=%d: no termination in %d rounds", spec.Name, phi0, res.Rounds)
			}
			if len(res.Violations) > 0 {
				t.Fatalf("%s phi0=%d: %v", spec.Name, phi0, res.Violations)
			}
		}
	}
}

// Unanimity: promised instantiations decide the common honest value even
// under Byzantine pressure.
func TestUnanimityPromise(t *testing.T) {
	g3, err := NewGeneric(Class3, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !g3.Unanimity {
		t.Fatal("generic class 3 must promise unanimity")
	}
	inits := UnanimousInits(4, "v")
	delete(inits, 3)
	for seed := int64(0); seed < 10; seed++ {
		res, err := Run(g3, inits,
			WithSeed(seed),
			WithByzantine(3, ForgeTimestamp("evil")),
			WithUnanimityCheck())
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided {
			t.Fatalf("seed %d: no termination", seed)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("seed %d: %v", seed, res.Violations)
		}
		for p, v := range res.Decisions {
			if v != "v" {
				t.Fatalf("seed %d: process %d decided %q", seed, p, v)
			}
		}
	}
}

// Randomized Ben-Or through the public API.
func TestBenOrPublicAPI(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		spec, err := NewBenOr(3, 1, seed*13+1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(spec, SplitInits(3, "0", "1"),
			WithSeed(seed), WithRel(), WithMaxRounds(4000))
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided {
			t.Fatalf("seed %d: Ben-Or did not terminate", seed)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("seed %d: %v", seed, res.Violations)
		}
	}
}

// Safety-only runs under perpetual asynchrony with adversaries, for PBFT
// as the paper gives it and in the node's skip-first shape.
func TestSafetyUnderPerpetualBadPeriods(t *testing.T) {
	pbft, err := NewPBFT(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	pbftSkip, err := NewPBFT(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pbftSkip.Apply(WithSkipFirstSelection()); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []*Spec{pbft, pbftSkip} {
		for seed := int64(0); seed < 10; seed++ {
			res, err := Run(spec, SplitInits(3, "b", "a"),
				WithSeed(seed),
				WithByzantine(3, Equivocate("a", "b")),
				WithAlwaysBad(),
				WithMaxRounds(90))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) > 0 {
				t.Fatalf("skip-first=%v seed %d: %v", spec.Params.SkipFirstSelection, seed, res.Violations)
			}
		}
	}
}

// Spec options.
func TestSpecOptions(t *testing.T) {
	pbft, err := NewPBFT(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pbft.Apply(WithSkipFirstSelection(), WithHistoryBound(4)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !pbft.Params.SkipFirstSelection || pbft.Params.HistoryBound != 4 {
		t.Error("options not applied")
	}
	res, err := Run(pbft, SplitInits(4, "a"), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided || len(res.Violations) > 0 {
		t.Fatalf("skip-first PBFT run failed: %+v", res)
	}
	// Skip-first with unanimous inputs must save the selection round:
	// phase 1 is validation+decision = 2 rounds.
	if res.Rounds != 2 {
		t.Errorf("rounds = %d, want 2 with skip-first optimization", res.Rounds)
	}

	if err := pbft.Apply(WithHistoryBound(0)); err == nil {
		t.Error("zero history bound accepted")
	}
	paxos, err := NewPaxos(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := paxos.Apply(WithStableLeader(1)); err != nil {
		t.Fatalf("stable leader on benign spec: %v", err)
	}
	if err := pbft.Apply(WithStableLeader(0)); err == nil {
		t.Error("stable leader accepted with b>0")
	}
	mqb, err := NewMQB(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := mqb.Apply(WithRotatingSubsetSelector(3)); err != nil {
		t.Fatalf("rotating subset b+1 on MQB: %v", err)
	}
	if err := mqb.Apply(WithRotatingSubsetSelector(2)); err == nil {
		t.Error("subset of size b accepted (violates Selector-validity)")
	}
}

// Run-option validation.
func TestRunOptionValidation(t *testing.T) {
	spec, err := NewPBFT(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	inits := SplitInits(4, "a")
	if _, err := Run(spec, inits, WithMaxRounds(0)); err == nil {
		t.Error("zero max rounds accepted")
	}
	if _, err := Run(spec, inits, WithGoodFromPhase(0)); err == nil {
		t.Error("phase 0 accepted")
	}
	if _, err := Run(spec, inits, WithDropProbability(1.5)); err == nil {
		t.Error("probability out of range accepted")
	}
}

func TestInitHelpers(t *testing.T) {
	split := SplitInits(5, "a", "b")
	if split[0] != "a" || split[1] != "b" || split[4] != "a" {
		t.Errorf("SplitInits = %v", split)
	}
	un := UnanimousInits(3, "v")
	for p, v := range un {
		if v != "v" {
			t.Errorf("UnanimousInits[%d] = %q", p, v)
		}
	}
	if len(un) != 3 {
		t.Errorf("UnanimousInits size = %d", len(un))
	}
}

// Rotating-subset selector end to end: MQB with per-phase b+1-sized
// validator windows still decides (an alternative §4.2 instantiation).
func TestMQBRotatingSubset(t *testing.T) {
	mqb, err := NewMQB(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := mqb.Apply(WithRotatingSubsetSelector(3)); err != nil {
		t.Fatal(err)
	}
	res, err := Run(mqb, SplitInits(9, "b", "a"), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided || len(res.Violations) > 0 {
		t.Fatalf("rotating-subset MQB failed: rounds=%d violations=%v", res.Rounds, res.Violations)
	}
}
