package core

import (
	"genconsensus/internal/model"
)

// Schedule maps global round numbers to (phase, round kind) according to the
// FLAG parameter and the §3.1 structural optimizations:
//
//   - FLAG = φ: phases of 3 rounds (selection, validation, decision);
//     phase φ spans rounds 3φ-2 .. 3φ.
//   - FLAG = *: the validation round is suppressed; phases of 2 rounds.
//   - SkipFirstSelection: the selection round of phase 1 is suppressed
//     (select_p is initialized to init_p and validators to a fixed set).
//   - Merged (FLAG = * only): the decision round of phase φ executes
//     concurrently with the selection round of phase φ+1, collapsing each
//     phase to a single round (the OneThirdRule shape).
type Schedule struct {
	Flag      model.Flag
	SkipFirst bool
	Merged    bool
}

// MergedRound is the pseudo-kind for merged selection+decision rounds. It is
// reported as SelectionRound by At (the message content is the selection
// tuple); IsMerged distinguishes it.
func (s Schedule) IsMerged() bool { return s.Merged && s.Flag == model.FlagStar }

// RoundsPerPhase returns the number of rounds a (non-first) phase spans.
func (s Schedule) RoundsPerPhase() int {
	if s.IsMerged() {
		return 1
	}
	if s.Flag == model.FlagStar {
		return 2
	}
	return 3
}

// At returns the phase and round kind of global round r ≥ 1.
func (s Schedule) At(r model.Round) (model.Phase, model.RoundKind) {
	if r < 1 {
		return 0, 0
	}
	if s.IsMerged() {
		return model.Phase(r), model.SelectionRound
	}
	per := s.RoundsPerPhase()
	kinds := []model.RoundKind{model.SelectionRound, model.DecisionRound}
	if s.Flag == model.FlagPhase {
		kinds = []model.RoundKind{model.SelectionRound, model.ValidationRound, model.DecisionRound}
	}
	if !s.SkipFirst {
		idx := (int(r) - 1) % per
		phase := model.Phase((int(r)-1)/per + 1)
		return phase, kinds[idx]
	}
	// Phase 1 lacks its selection round.
	firstLen := per - 1
	if int(r) <= firstLen {
		return 1, kinds[1+int(r)-1]
	}
	rest := int(r) - firstLen
	idx := (rest - 1) % per
	phase := model.Phase((rest-1)/per + 2)
	return phase, kinds[idx]
}

// FirstRoundOf returns the first global round of phase φ.
func (s Schedule) FirstRoundOf(phase model.Phase) model.Round {
	if phase < 1 {
		return 0
	}
	if s.IsMerged() {
		return model.Round(phase)
	}
	per := s.RoundsPerPhase()
	if !s.SkipFirst {
		return model.Round((int(phase)-1)*per + 1)
	}
	if phase == 1 {
		return 1
	}
	return model.Round((per - 1) + (int(phase)-2)*per + 1)
}
