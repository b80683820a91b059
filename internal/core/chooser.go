package core

import (
	"math/rand"

	"genconsensus/internal/model"
)

// Chooser implements line 11 of Algorithm 1: when FLV returns "?", a value is
// chosen among the votes of the received vector. Deterministic choosers
// guarantee that processes with identical vectors (Pcons rounds) choose
// identically; the coin chooser implements the §6 randomized adaptation.
type Chooser interface {
	// Choose picks a value given the selection-round vector. ok is false
	// when no value can be chosen (e.g. no votes received).
	Choose(mu model.Received) (v model.Value, ok bool)
	// Name identifies the rule in traces.
	Name() string
}

// MinChooser picks the smallest vote in the vector: the default
// deterministic rule.
type MinChooser struct{}

// Choose implements Chooser.
func (MinChooser) Choose(mu model.Received) (model.Value, bool) { return mu.MinValue() }

// Name implements Chooser.
func (MinChooser) Name() string { return "choose/min" }

// MostOftenChooser picks the most frequent vote, ties broken by smallest
// value: the rule of the original OneThirdRule algorithm (Algorithm 5,
// line 8: "the smallest most often received value").
type MostOftenChooser struct{}

// Choose implements Chooser.
func (MostOftenChooser) Choose(mu model.Received) (model.Value, bool) {
	return mu.SmallestMostOften()
}

// Name implements Chooser.
func (MostOftenChooser) Name() string { return "choose/smallest-most-often" }

// CoinChooser implements the randomized adaptation of §6 for binary
// consensus: "select_p := 1 or 0 with probability 0.5". Each process owns an
// independent seeded source — NewProcess derives it from the chooser's seed
// and the process id — making executions replayable.
type CoinChooser struct {
	seed int64
	rng  *rand.Rand
	zero model.Value
	one  model.Value
}

// NewCoinChooser returns a coin chooser over the two given values, seeded
// deterministically.
func NewCoinChooser(seed int64, zero, one model.Value) *CoinChooser {
	return &CoinChooser{seed: seed, rng: rand.New(rand.NewSource(seed)), zero: zero, one: one}
}

// Choose implements Chooser: a fair coin flip, ignoring the vector.
func (c *CoinChooser) Choose(model.Received) (model.Value, bool) {
	if c.rng.Intn(2) == 0 {
		return c.zero, true
	}
	return c.one, true
}

// Name implements Chooser.
func (c *CoinChooser) Name() string { return "choose/coin" }
