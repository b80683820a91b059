package core

import (
	"testing"

	"genconsensus/internal/model"
)

func TestScheduleFlagPhase(t *testing.T) {
	s := Schedule{Flag: model.FlagPhase}
	tests := []struct {
		r     model.Round
		phase model.Phase
		kind  model.RoundKind
	}{
		{1, 1, model.SelectionRound},
		{2, 1, model.ValidationRound},
		{3, 1, model.DecisionRound},
		{4, 2, model.SelectionRound},
		{5, 2, model.ValidationRound},
		{6, 2, model.DecisionRound},
		{7, 3, model.SelectionRound},
	}
	for _, tt := range tests {
		phase, kind := s.At(tt.r)
		if phase != tt.phase || kind != tt.kind {
			t.Errorf("At(%d) = (%d, %v), want (%d, %v)", tt.r, phase, kind, tt.phase, tt.kind)
		}
	}
	if s.RoundsPerPhase() != 3 {
		t.Errorf("RoundsPerPhase = %d, want 3", s.RoundsPerPhase())
	}
}

func TestScheduleFlagStar(t *testing.T) {
	s := Schedule{Flag: model.FlagStar}
	tests := []struct {
		r     model.Round
		phase model.Phase
		kind  model.RoundKind
	}{
		{1, 1, model.SelectionRound},
		{2, 1, model.DecisionRound},
		{3, 2, model.SelectionRound},
		{4, 2, model.DecisionRound},
		{5, 3, model.SelectionRound},
	}
	for _, tt := range tests {
		phase, kind := s.At(tt.r)
		if phase != tt.phase || kind != tt.kind {
			t.Errorf("At(%d) = (%d, %v), want (%d, %v)", tt.r, phase, kind, tt.phase, tt.kind)
		}
	}
	if s.RoundsPerPhase() != 2 {
		t.Errorf("RoundsPerPhase = %d, want 2", s.RoundsPerPhase())
	}
}

func TestScheduleSkipFirstPhi(t *testing.T) {
	s := Schedule{Flag: model.FlagPhase, SkipFirst: true}
	tests := []struct {
		r     model.Round
		phase model.Phase
		kind  model.RoundKind
	}{
		{1, 1, model.ValidationRound},
		{2, 1, model.DecisionRound},
		{3, 2, model.SelectionRound},
		{4, 2, model.ValidationRound},
		{5, 2, model.DecisionRound},
		{6, 3, model.SelectionRound},
	}
	for _, tt := range tests {
		phase, kind := s.At(tt.r)
		if phase != tt.phase || kind != tt.kind {
			t.Errorf("At(%d) = (%d, %v), want (%d, %v)", tt.r, phase, kind, tt.phase, tt.kind)
		}
	}
}

func TestScheduleSkipFirstStar(t *testing.T) {
	s := Schedule{Flag: model.FlagStar, SkipFirst: true}
	tests := []struct {
		r     model.Round
		phase model.Phase
		kind  model.RoundKind
	}{
		{1, 1, model.DecisionRound},
		{2, 2, model.SelectionRound},
		{3, 2, model.DecisionRound},
		{4, 3, model.SelectionRound},
	}
	for _, tt := range tests {
		phase, kind := s.At(tt.r)
		if phase != tt.phase || kind != tt.kind {
			t.Errorf("At(%d) = (%d, %v), want (%d, %v)", tt.r, phase, kind, tt.phase, tt.kind)
		}
	}
}

func TestScheduleMerged(t *testing.T) {
	s := Schedule{Flag: model.FlagStar, Merged: true}
	if !s.IsMerged() {
		t.Fatal("IsMerged must be true")
	}
	if s.RoundsPerPhase() != 1 {
		t.Errorf("RoundsPerPhase = %d, want 1", s.RoundsPerPhase())
	}
	for r := model.Round(1); r <= 5; r++ {
		phase, kind := s.At(r)
		if phase != model.Phase(r) || kind != model.SelectionRound {
			t.Errorf("At(%d) = (%d, %v)", r, phase, kind)
		}
	}
	// Merged requires FLAG=*: a φ schedule ignores the flag.
	phi := Schedule{Flag: model.FlagPhase, Merged: true}
	if phi.IsMerged() {
		t.Error("merged must not apply to FLAG=φ")
	}
}

func TestScheduleFirstRoundOf(t *testing.T) {
	tests := []struct {
		name  string
		s     Schedule
		phase model.Phase
		want  model.Round
	}{
		{"phi p1", Schedule{Flag: model.FlagPhase}, 1, 1},
		{"phi p3", Schedule{Flag: model.FlagPhase}, 3, 7},
		{"star p2", Schedule{Flag: model.FlagStar}, 2, 3},
		{"merged p4", Schedule{Flag: model.FlagStar, Merged: true}, 4, 4},
		{"skip phi p1", Schedule{Flag: model.FlagPhase, SkipFirst: true}, 1, 1},
		{"skip phi p2", Schedule{Flag: model.FlagPhase, SkipFirst: true}, 2, 3},
		{"skip phi p3", Schedule{Flag: model.FlagPhase, SkipFirst: true}, 3, 6},
		{"skip star p2", Schedule{Flag: model.FlagStar, SkipFirst: true}, 2, 2},
		{"invalid phase", Schedule{Flag: model.FlagStar}, 0, 0},
	}
	for _, tt := range tests {
		if got := tt.s.FirstRoundOf(tt.phase); got != tt.want {
			t.Errorf("%s: FirstRoundOf(%d) = %d, want %d", tt.name, tt.phase, got, tt.want)
		}
	}
}

// FirstRoundOf and At must agree on every schedule shape.
func TestScheduleConsistency(t *testing.T) {
	shapes := []Schedule{
		{Flag: model.FlagPhase},
		{Flag: model.FlagStar},
		{Flag: model.FlagPhase, SkipFirst: true},
		{Flag: model.FlagStar, SkipFirst: true},
		{Flag: model.FlagStar, Merged: true},
	}
	for _, s := range shapes {
		for phase := model.Phase(1); phase <= 6; phase++ {
			r := s.FirstRoundOf(phase)
			gotPhase, gotKind := s.At(r)
			if gotPhase != phase {
				t.Errorf("%+v: At(FirstRoundOf(%d)) phase = %d", s, phase, gotPhase)
			}
			wantKind := model.SelectionRound
			if s.SkipFirst && phase == 1 {
				wantKind = model.ValidationRound
				if s.Flag == model.FlagStar {
					wantKind = model.DecisionRound
				}
			}
			if gotKind != wantKind {
				t.Errorf("%+v: At(FirstRoundOf(%d)) kind = %v, want %v", s, phase, gotKind, wantKind)
			}
		}
	}
}

func TestScheduleInvalidRound(t *testing.T) {
	s := Schedule{Flag: model.FlagPhase}
	phase, kind := s.At(0)
	if phase != 0 || kind != 0 {
		t.Errorf("At(0) = (%d, %v), want zero values", phase, kind)
	}
}
