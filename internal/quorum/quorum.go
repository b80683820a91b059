// Package quorum implements the threshold arithmetic of the generic consensus
// algorithm: the three classes of Table 1, their decision thresholds TD,
// their resilience bounds on n, and the strict-fraction comparisons the
// algorithm performs (e.g. "more than (n+b)/2 messages" at line 15).
//
// All comparisons against real-valued fractions x/2 are done in integers:
// count > x/2 over the reals iff 2*count > x over the integers.
package quorum

import (
	"errors"
	"fmt"
)

// Class identifies one of the three classes of consensus algorithms of the
// paper (Table 1). The classes differ in the FLAG and TD parameters, hence
// in the required n, the process state and the number of rounds per phase.
type Class int

const (
	// Class1 (FLAG = *, TD > (n+3b+f)/2): no validation round, state is
	// just vote_p, 2 rounds per phase, requires n > 5b+3f.
	// Examples: OneThirdRule (b=0), FaB Paxos (f=0).
	Class1 Class = 1
	// Class2 (FLAG = φ, TD > 3b+f): state (vote_p, ts_p), 3 rounds per
	// phase, requires n > 4b+2f. Examples: Paxos/CT (b=0), MQB (f=0).
	Class2 Class = 2
	// Class3 (FLAG = φ, TD > 2b+f): state (vote_p, ts_p, history_p),
	// 3 rounds per phase, requires n > 3b+2f.
	// Examples: Paxos/CT (b=0), PBFT (f=0).
	Class3 Class = 3
)

// String returns "class 1|2|3".
func (c Class) String() string { return fmt.Sprintf("class %d", int(c)) }

// RoundsPerPhase returns the number of communication rounds per phase for
// the class: 2 when the validation round is suppressed (class 1), else 3.
func (c Class) RoundsPerPhase() int {
	if c == Class1 {
		return 2
	}
	return 3
}

// StateVars returns the process state variables used by the class, as listed
// in Table 1.
func (c Class) StateVars() []string {
	switch c {
	case Class1:
		return []string{"vote"}
	case Class2:
		return []string{"vote", "ts"}
	default:
		return []string{"vote", "ts", "history"}
	}
}

// MinN returns the smallest n tolerating b Byzantine and f benign-faulty
// processes for the class: the "n" column of Table 1 is a strict bound, so
// MinN = bound + 1.
func MinN(c Class, b, f int) int {
	switch c {
	case Class1:
		return 5*b + 3*f + 1
	case Class2:
		return 4*b + 2*f + 1
	default:
		return 3*b + 2*f + 1
	}
}

// MinTD returns the smallest decision threshold satisfying the class's lower
// bound for the given n, b, f.
//
//	class 1: TD > (n+3b+f)/2  ⇒  MinTD = floor((n+3b+f)/2) + 1
//	class 2: TD > 3b+f        ⇒  MinTD = 3b+f+1
//	class 3: TD > 2b+f        ⇒  MinTD = 2b+f+1
func MinTD(c Class, n, b, f int) int {
	switch c {
	case Class1:
		return (n+3*b+f)/2 + 1
	case Class2:
		return 3*b + f + 1
	default:
		return 2*b + f + 1
	}
}

// MaxTD returns the largest threshold compatible with termination:
// TD ≤ n − b − f (votes of faulty and Byzantine processes must not be needed
// to decide).
func MaxTD(n, b, f int) int { return n - b - f }

// Errors returned by Validate.
var (
	ErrNonPositiveN = errors.New("quorum: n must be positive")
	ErrNegativeB    = errors.New("quorum: b must be non-negative")
	ErrNegativeF    = errors.New("quorum: f must be non-negative")
	ErrNTooSmall    = errors.New("quorum: n below class resilience bound")
	ErrTDTooSmall   = errors.New("quorum: TD below class lower bound (agreement at risk)")
	ErrTDTooLarge   = errors.New("quorum: TD > n-b-f (termination at risk)")
)

// Config is a validated (class, n, b, f, TD) tuple.
type Config struct {
	Class Class
	N     int // total number of processes
	B     int // maximum number of Byzantine processes
	F     int // maximum number of benign-faulty (crash) processes
	TD    int // decision threshold
}

// Validate checks the Table 1 constraints: positivity, n above the class
// bound, and MinTD ≤ TD ≤ MaxTD. It returns nil iff the configuration is
// one for which Theorem 1 guarantees agreement and termination.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("%w: n=%d", ErrNonPositiveN, c.N)
	}
	if c.B < 0 {
		return fmt.Errorf("%w: b=%d", ErrNegativeB, c.B)
	}
	if c.F < 0 {
		return fmt.Errorf("%w: f=%d", ErrNegativeF, c.F)
	}
	if c.N < MinN(c.Class, c.B, c.F) {
		return fmt.Errorf("%w: %s requires n ≥ %d for b=%d f=%d, got n=%d",
			ErrNTooSmall, c.Class, MinN(c.Class, c.B, c.F), c.B, c.F, c.N)
	}
	if c.TD < MinTD(c.Class, c.N, c.B, c.F) {
		return fmt.Errorf("%w: %s requires TD ≥ %d, got TD=%d",
			ErrTDTooSmall, c.Class, MinTD(c.Class, c.N, c.B, c.F), c.TD)
	}
	if c.TD > MaxTD(c.N, c.B, c.F) {
		return fmt.Errorf("%w: TD=%d > %d (n=%d b=%d f=%d)",
			ErrTDTooLarge, c.TD, MaxTD(c.N, c.B, c.F), c.N, c.B, c.F)
	}
	return nil
}

// MoreThanHalf reports count > total/2 over the reals: the strict-majority
// comparisons at lines 15 (total = n+b) and 22 (total = |validators|+b) of
// Algorithm 1.
func MoreThanHalf(count, total int) bool { return 2*count > total }

// Named thresholds of the instantiations in §5 and §6 of the paper.

// OneThirdRuleTD returns TD = ⌈(2n+1)/3⌉ (§5.1, OneThirdRule, b=0).
func OneThirdRuleTD(n int) int { return ceilDiv(2*n+1, 3) }

// FaBPaxosTD returns TD = ⌈(n+3b+1)/2⌉ (§5.1, FaB Paxos, f=0).
func FaBPaxosTD(n, b int) int { return ceilDiv(n+3*b+1, 2) }

// MQBTD returns TD = ⌈(n+2b+1)/2⌉ (§5.2, MQB, f=0).
func MQBTD(n, b int) int { return ceilDiv(n+2*b+1, 2) }

// PaxosTD returns TD = ⌈(n+1)/2⌉, a strict majority (§5.3, Paxos, b=0).
func PaxosTD(n int) int { return ceilDiv(n+1, 2) }

// PBFTTD returns TD = 2b+1 (§5.3, PBFT, f=0).
func PBFTTD(b int) int { return 2*b + 1 }

// ChandraTouegTD returns TD = f+1 (class 2 with b=0; CT with ◇S).
func ChandraTouegTD(f int) int { return f + 1 }

// BenOrBenignTD returns TD = f+1 (§6, Ben-Or with benign faults, n > 2f).
func BenOrBenignTD(f int) int { return f + 1 }

// BenOrByzantineTD returns TD = 3b+1 (§6, Ben-Or with Byzantine faults,
// n > 4b).
func BenOrByzantineTD(b int) int { return 3*b + 1 }

func ceilDiv(a, b int) int { return (a + b - 1) / b }
