// Package genconsensus is a Go implementation of the generic consensus
// algorithm of Rütti, Milosevic and Schiper ("Generic Construction of
// Consensus Algorithms for Benign and Byzantine Faults", DSN 2010).
//
// The generic algorithm proceeds in phases of three rounds — selection,
// validation, decision — and is parameterized by four items: the FLV
// ("find the locked value") function, the Selector function electing
// validators, the decision threshold TD, and the FLAG (* or φ) choosing
// which votes count for decision. Instantiating the parameters yields the
// well-known algorithms, which fall into three classes (Table 1 of the
// paper):
//
//	class 1 (FLAG=*, TD > (n+3b+f)/2, n > 5b+3f): OneThirdRule, FaB Paxos
//	class 2 (FLAG=φ, TD > 3b+f,       n > 4b+2f): Paxos/CT (b=0), MQB
//	class 3 (FLAG=φ, TD > 2b+f,       n > 3b+2f): Paxos/CT (b=0), PBFT
//
// This package exposes constructors for every instantiation discussed in
// the paper plus the generic classes, and a seeded simulation Runner
// implementing the §2.1 partially synchronous system model with Byzantine
// adversaries and crash faults. The internal packages provide the
// substrates: the round model, the network simulator, the communication
// predicates (Pgood, Pcons, Prel), WIC-based Pcons construction, and a TCP
// runtime.
package genconsensus

import (
	"errors"
	"fmt"

	"genconsensus/internal/adversary"
	"genconsensus/internal/core"
	"genconsensus/internal/flv"
	"genconsensus/internal/model"
	"genconsensus/internal/quorum"
	"genconsensus/internal/selector"
)

// Re-exported vocabulary types. The empty Value is reserved ("no value").
type (
	// Value is a consensus proposal value.
	Value = model.Value
	// PID identifies a process (0..n-1).
	PID = model.PID
	// Phase numbers algorithm phases, starting at 1.
	Phase = model.Phase
	// Round numbers communication rounds, starting at 1.
	Round = model.Round
	// Class is one of the paper's three algorithm classes.
	Class = quorum.Class
)

// The three classes of Table 1.
const (
	Class1 = quorum.Class1
	Class2 = quorum.Class2
	Class3 = quorum.Class3
)

// Spec is a fully parameterized consensus algorithm: a named instantiation
// of the generic algorithm, validated against its class's resilience bounds.
type Spec struct {
	// Name of the instantiation (e.g. "PBFT", "MQB").
	Name string
	// Class per the paper's classification.
	Class Class
	// N, B, F: system size and fault budgets.
	N, B, F int
	// TD is the decision threshold.
	TD int
	// Unanimity reports whether this instantiation guarantees the
	// (optional) unanimity property.
	Unanimity bool
	// Params is the underlying parameterization of Algorithm 1.
	Params core.Params
}

// RoundsPerPhase returns the phase length in rounds (after optimizations).
func (s *Spec) RoundsPerPhase() int { return s.Params.Schedule().RoundsPerPhase() }

// StateVars lists the process state variables the instantiation maintains.
func (s *Spec) StateVars() []string {
	switch {
	case s.Params.UseHistory:
		return []string{"vote", "ts", "history"}
	case s.Params.Flag == model.FlagPhase:
		return []string{"vote", "ts"}
	default:
		return []string{"vote"}
	}
}

// String renders a one-line description.
func (s *Spec) String() string {
	return fmt.Sprintf("%s (%s, n=%d b=%d f=%d TD=%d FLAG=%s, %d rounds/phase)",
		s.Name, s.Class, s.N, s.B, s.F, s.TD, s.Params.Flag, s.RoundsPerPhase())
}

// Errors returned by constructors.
var (
	// ErrBadSize reports a system size violating the class bound.
	ErrBadSize = errors.New("genconsensus: system size below resilience bound")
	// ErrUnsafeBound reports the Byzantine Ben-Or n > 4b configuration
	// (see NewByzantineBenOr).
	ErrUnsafeBound = errors.New("genconsensus: n ≤ 5b Byzantine Ben-Or requires AllowPaperBound " +
		"(agreement can fail; see part (b) of `go run ./cmd/experiments -exp benor`)")
)

func checkBounds(name string, class Class, n, b, f, td int) error {
	cfg := quorum.Config{Class: class, N: n, B: b, F: f, TD: td}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBadSize, name, err)
	}
	return nil
}

// NewOneThirdRule returns the OneThirdRule instantiation (§5.1): benign
// faults only, n > 3f, TD = ⌈(2n+1)/3⌉, FLAG = *, merged selection+decision
// rounds (one round per phase, as in the original Algorithm 5), whole-Π
// selector and the class-1 FLV. The instantiation is a slight improvement
// over the original: it may select a value from fewer than 2n/3 messages.
func NewOneThirdRule(n, f int) (*Spec, error) {
	td := quorum.OneThirdRuleTD(n)
	if err := checkBounds("OneThirdRule", Class1, n, 0, f, td); err != nil {
		return nil, err
	}
	return &Spec{
		Name: "OneThirdRule", Class: Class1, N: n, B: 0, F: f, TD: td,
		Unanimity: true,
		Params: core.Params{
			N: n, B: 0, F: f, TD: td,
			Flag:     model.FlagStar,
			FLV:      flv.NewClass1(n, td, 0),
			Selector: selector.NewAll(n),
			Chooser:  core.MostOftenChooser{},
			Merged:   true,
		},
	}, nil
}

// NewFaBPaxos returns the FaB Paxos instantiation (§5.1): Byzantine faults,
// n > 5b, TD = ⌈(n+3b+1)/2⌉, FLAG = *, whole-Π selector and the class-1 FLV
// (Algorithm 6). Two rounds per phase; decisions in two message delays in
// good runs.
func NewFaBPaxos(n, b int) (*Spec, error) {
	td := quorum.FaBPaxosTD(n, b)
	if err := checkBounds("FaB Paxos", Class1, n, b, 0, td); err != nil {
		return nil, err
	}
	return &Spec{
		Name: "FaB Paxos", Class: Class1, N: n, B: b, F: 0, TD: td,
		Params: core.Params{
			N: n, B: b, F: 0, TD: td,
			Flag:     model.FlagStar,
			FLV:      flv.NewFaB(n, b),
			Selector: selector.NewAll(n),
		},
	}, nil
}

// NewMQB returns the paper's new Masking Quorum Byzantine algorithm (§5.2):
// Byzantine faults, n > 4b, TD = ⌈(n+2b+1)/2⌉, FLAG = φ, whole-Π selector
// and the class-2 FLV (Algorithm 3). Compared to PBFT it avoids the
// unbounded history variable at the cost of n > 4b instead of n > 3b.
func NewMQB(n, b int) (*Spec, error) {
	td := quorum.MQBTD(n, b)
	if err := checkBounds("MQB", Class2, n, b, 0, td); err != nil {
		return nil, err
	}
	return &Spec{
		Name: "MQB", Class: Class2, N: n, B: b, F: 0, TD: td,
		Params: core.Params{
			N: n, B: b, F: 0, TD: td,
			Flag:     model.FlagPhase,
			FLV:      flv.NewClass2(n, td, b),
			Selector: selector.NewAll(n),
		},
	}, nil
}

// NewPaxos returns the Paxos instantiation (§5.3): benign faults, n > 2f,
// TD = ⌈(n+1)/2⌉, FLAG = φ, a rotating coordinator standing in for the Ω
// leader oracle, and the benign class-3 FLV (Algorithm 7). Histories are
// unnecessary with b = 0, so the process state is (vote, ts).
func NewPaxos(n, f int) (*Spec, error) {
	td := quorum.PaxosTD(n)
	if err := checkBounds("Paxos", Class3, n, 0, f, td); err != nil {
		return nil, err
	}
	return &Spec{
		Name: "Paxos", Class: Class3, N: n, B: 0, F: f, TD: td,
		Unanimity: true,
		Params: core.Params{
			N: n, B: 0, F: f, TD: td,
			Flag:     model.FlagPhase,
			FLV:      flv.NewPaxos(n),
			Selector: selector.NewRotatingCoordinator(n),
		},
	}, nil
}

// NewChandraToueg returns the CT (◇S) instantiation: benign faults, n > 2f,
// TD = f+1, FLAG = φ, rotating coordinator and the class-2 FLV with b = 0.
func NewChandraToueg(n, f int) (*Spec, error) {
	td := quorum.ChandraTouegTD(f)
	if err := checkBounds("Chandra-Toueg", Class2, n, 0, f, td); err != nil {
		return nil, err
	}
	return &Spec{
		Name: "Chandra-Toueg", Class: Class2, N: n, B: 0, F: f, TD: td,
		Unanimity: true,
		Params: core.Params{
			N: n, B: 0, F: f, TD: td,
			Flag:     model.FlagPhase,
			FLV:      flv.NewClass2(n, td, 0),
			Selector: selector.NewRotatingCoordinator(n),
		},
	}, nil
}

// NewPBFT returns the PBFT instantiation (§5.3): Byzantine faults, n > 3b,
// TD = 2b+1, FLAG = φ, whole-Π selector and the class-3 FLV without the
// unanimity lines (Algorithm 8). The state includes the history variable.
func NewPBFT(n, b int) (*Spec, error) {
	td := quorum.PBFTTD(b)
	if err := checkBounds("PBFT", Class3, n, b, 0, td); err != nil {
		return nil, err
	}
	return &Spec{
		Name: "PBFT", Class: Class3, N: n, B: b, F: 0, TD: td,
		Params: core.Params{
			N: n, B: b, F: 0, TD: td,
			Flag:       model.FlagPhase,
			FLV:        flv.NewPBFT(n, b),
			Selector:   selector.NewAll(n),
			UseHistory: true,
		},
	}, nil
}

// NewBenOr returns the benign randomized Ben-Or instantiation (§6): binary
// consensus over values "0"/"1", n > 2f, TD = f+1, FLAG = φ, whole-Π
// selector, the Algorithm 9 FLV and a seeded fair coin replacing the
// deterministic choice of line 11. Run it under the Prel predicate
// (WithRel); termination holds with probability 1.
func NewBenOr(n, f int, coinSeed int64) (*Spec, error) {
	td := quorum.BenOrBenignTD(f)
	if err := checkBounds("Ben-Or", Class2, n, 0, f, td); err != nil {
		return nil, err
	}
	return &Spec{
		Name: "Ben-Or", Class: Class2, N: n, B: 0, F: f, TD: td,
		Params: core.Params{
			N: n, B: 0, F: f, TD: td,
			Flag:     model.FlagPhase,
			FLV:      flv.NewBenOr(0),
			Selector: selector.NewAll(n),
			Chooser:  core.NewCoinChooser(coinSeed, "0", "1"),
		},
	}, nil
}

// NewByzantineBenOr returns the Byzantine randomized Ben-Or instantiation
// (§6): TD = 3b+1, FLAG = φ, Algorithm 9 FLV, seeded coin, under Prel.
//
// The paper states n > 4b for this instantiation, but our reproduction found
// that at n = 4b+1 the ⟨v, φ-1⟩ lock evidence can decay after a decision
// (Prel may persistently deliver only 3b honest validation announcements
// plus b Byzantine ones, which does not exceed (n+b)/2), after which coin
// flips can produce a conflicting decision — the original Ben-Or requirement
// is n ≥ 5b+1. This constructor therefore demands n > 5b unless
// allowPaperBound is set (useful only for reproducing the violation, which
// part (b) of `go run ./cmd/experiments -exp benor` does).
func NewByzantineBenOr(n, b int, coinSeed int64, allowPaperBound bool) (*Spec, error) {
	td := quorum.BenOrByzantineTD(b)
	if err := checkBounds("Byzantine Ben-Or", Class2, n, b, 0, td); err != nil {
		return nil, err
	}
	if n <= 5*b && !allowPaperBound {
		return nil, ErrUnsafeBound
	}
	return &Spec{
		Name: "Byzantine Ben-Or", Class: Class2, N: n, B: b, F: 0, TD: td,
		Params: core.Params{
			N: n, B: b, F: 0, TD: td,
			Flag:     model.FlagPhase,
			FLV:      flv.NewBenOr(b),
			Selector: selector.NewAll(n),
			Chooser:  core.NewCoinChooser(coinSeed, "0", "1"),
		},
	}, nil
}

// NewGeneric returns the canonical representative of a class for arbitrary
// (n, b, f): minimal TD, whole-Π selector, the class's FLV, unanimity
// enabled for class 3. It is the workhorse of the Table 1 experiments.
func NewGeneric(class Class, n, b, f int) (*Spec, error) {
	td := quorum.MinTD(class, n, b, f)
	if err := checkBounds("generic", class, n, b, f, td); err != nil {
		return nil, err
	}
	spec := &Spec{
		Name: fmt.Sprintf("generic-%s", class), Class: class,
		N: n, B: b, F: f, TD: td,
		Params: core.Params{
			N: n, B: b, F: f, TD: td,
			Selector: selector.NewAll(n),
		},
	}
	switch class {
	case Class1:
		spec.Params.Flag = model.FlagStar
		spec.Params.FLV = flv.NewClass1(n, td, b)
	case Class2:
		spec.Params.Flag = model.FlagPhase
		spec.Params.FLV = flv.NewClass2(n, td, b)
	default:
		spec.Params.Flag = model.FlagPhase
		spec.Params.FLV = flv.NewClass3(n, td, b, true)
		spec.Params.UseHistory = true
		spec.Unanimity = true
	}
	return spec, nil
}

// Spec options -----------------------------------------------------------

// Option tweaks a Spec after construction.
type Option func(*Spec) error

// WithSkipFirstSelection enables the §3.1 optimization suppressing the
// selection round of phase 1 (requires a fixed selector).
func WithSkipFirstSelection() Option {
	return func(s *Spec) error {
		s.Params.SkipFirstSelection = true
		return s.Params.Validate()
	}
}

// WithHistoryBound bounds history growth to the last k phases (the [3]
// variant referenced by footnote 5).
func WithHistoryBound(k int) Option {
	return func(s *Spec) error {
		if k <= 0 {
			return fmt.Errorf("genconsensus: history bound must be positive, got %d", k)
		}
		s.Params.HistoryBound = k
		return nil
	}
}

// WithStableLeader replaces the selector with a stable leader oracle
// (benign algorithms only: a singleton set violates Selector-validity when
// b > 0).
func WithStableLeader(leader PID) Option {
	return func(s *Spec) error {
		if s.B > 0 {
			return fmt.Errorf("genconsensus: singleton leader selector violates Selector-validity with b=%d", s.B)
		}
		s.Params.Selector = selector.NewStableLeader(leader)
		return nil
	}
}

// WithRotatingSubsetSelector replaces the selector with the rotating
// k-subset instantiation of §4.2.
func WithRotatingSubsetSelector(k int) Option {
	return func(s *Spec) error {
		sub, err := selector.NewRotatingSubset(s.N, k)
		if err != nil {
			return err
		}
		if err := selector.CheckValidity(sub, s.N, s.B, s.F, 2*s.N, s.Params.UseHistory); err != nil {
			return err
		}
		s.Params.Selector = sub
		return nil
	}
}

// Apply applies options in order, returning the first error.
func (s *Spec) Apply(opts ...Option) error {
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return err
		}
	}
	return nil
}

// Byzantine strategies (re-exported from the adversary substrate) ---------

// Strategy drives a Byzantine process in simulations.
type Strategy = adversary.Strategy

// Silent returns the always-silent Byzantine strategy.
func Silent() Strategy { return adversary.Silent{} }

// Equivocate returns the split-vote strategy: value a to the lower half of
// the process space, b to the upper half, with forged current-phase
// timestamps.
func Equivocate(a, b Value) Strategy { return adversary.Equivocate{A: a, B: b} }

// RandomJunk returns the random-garbage strategy over the given value pool.
func RandomJunk(values ...Value) Strategy { return adversary.RandomJunk{Values: values} }

// ForgeTimestamp returns the timestamp/history-forging strategy pushing
// target.
func ForgeTimestamp(target Value) Strategy { return adversary.ForgeTimestamp{Target: target} }

// Mimic returns the strategy that echoes observed majorities but withholds
// validation participation.
func Mimic() Strategy { return &adversary.Mimic{} }
