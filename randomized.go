package genconsensus

import (
	"genconsensus/internal/core"
	"genconsensus/internal/flv"
	"genconsensus/internal/model"
	"genconsensus/internal/quorum"
	"genconsensus/internal/selector"
)

// §6 of the paper observes that any class-1 or class-2 algorithm can be
// transformed into a randomized binary consensus algorithm: replace the
// deterministic choice of line 11 with a fair coin and run every round under
// the Prel predicate. The FLV functions of those classes already satisfy the
// stronger liveness property randomized algorithms need (non-null on any
// vector of n-b-f messages); class-3 FLV does not, which is why no
// randomized class-3 algorithm exists.
//
// Unlike Ben-Or's degenerate FLV (Algorithm 9, which only counts
// previous-phase timestamps and whose lock evidence can decay — part (b) of
// `go run ./cmd/experiments -exp benor`), the full class-1/2 FLV functions
// maintain locks through the vote fields: once v is decided every honest
// vote converges to v and stays there, so FLV keeps returning v regardless
// of later validation failures.

// NewRandomizedOneThirdRule returns the randomized class-1 transform of
// OneThirdRule: binary values "0"/"1", FLAG = *, merged rounds, class-1 FLV
// and a seeded fair coin at line 11. Run it with WithRel; termination holds
// with probability 1, agreement unconditionally.
func NewRandomizedOneThirdRule(n, f int, coinSeed int64) (*Spec, error) {
	td := quorum.OneThirdRuleTD(n)
	if err := checkBounds("randomized OneThirdRule", Class1, n, 0, f, td); err != nil {
		return nil, err
	}
	return &Spec{
		Name: "Randomized OneThirdRule", Class: Class1, N: n, B: 0, F: f, TD: td,
		Params: core.Params{
			N: n, B: 0, F: f, TD: td,
			Flag:     model.FlagStar,
			FLV:      flv.NewClass1(n, td, 0),
			Selector: selector.NewAll(n),
			Chooser:  core.NewCoinChooser(coinSeed, "0", "1"),
			Merged:   true,
		},
	}, nil
}

// NewRandomizedMQB returns the randomized class-2 transform of MQB: binary
// values, FLAG = φ, class-2 FLV (Algorithm 3) and a seeded coin. Safety
// holds against b Byzantine processes at n > 4b under any scheduler.
// Termination holds with probability 1 under oblivious (non-adaptive)
// message scheduling; a fully adaptive Prel adversary can stall the
// validation round at n ≤ 5b exactly as for Ben-Or — unlike Ben-Or,
// agreement is never at risk because the class-2 FLV locks on votes rather
// than on previous-phase timestamps (part (c) of
// `go run ./cmd/experiments -exp benor`).
func NewRandomizedMQB(n, b int, coinSeed int64) (*Spec, error) {
	td := quorum.MQBTD(n, b)
	if err := checkBounds("randomized MQB", Class2, n, b, 0, td); err != nil {
		return nil, err
	}
	return &Spec{
		Name: "Randomized MQB", Class: Class2, N: n, B: b, F: 0, TD: td,
		Params: core.Params{
			N: n, B: b, F: 0, TD: td,
			Flag:     model.FlagPhase,
			FLV:      flv.NewClass2(n, td, b),
			Selector: selector.NewAll(n),
			Chooser:  core.NewCoinChooser(coinSeed, "0", "1"),
		},
	}, nil
}
