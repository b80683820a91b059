// Package core implements the generic consensus algorithm (Algorithm 1 of
// Rütti, Milosevic & Schiper, DSN 2010): a sequence of phases, each composed
// of a selection round, a validation round and a decision round, and
// parameterized by the functions FLV and Selector, the decision threshold TD
// and the flag FLAG.
//
// A core.Process is a pure state machine implementing model.Proc; it contains
// no goroutines and no clocks. Runtimes (internal/sim, internal/transport)
// drive it round by round.
package core

import (
	"errors"
	"fmt"
	"sort"

	"genconsensus/internal/flv"
	"genconsensus/internal/model"
	"genconsensus/internal/quorum"
	"genconsensus/internal/selector"
)

// Params are the parameters of the generic algorithm: the boxed items of
// Algorithm 1 plus the structural options of §3.1.
type Params struct {
	// N, B, F describe the system: n processes, at most b Byzantine, at
	// most f benign-faulty.
	N, B, F int
	// TD is the decision threshold (line 31).
	TD int
	// Flag selects which votes count in the decision round (FLAG).
	Flag model.Flag
	// FLV is the "find the locked value" function (line 9).
	FLV flv.Func
	// Selector is the validator-election function (lines 7 and 15).
	Selector selector.Selector
	// Chooser is the deterministic (or randomized, §6) choice of line 11.
	// Defaults to MinChooser.
	Chooser Chooser
	// UseHistory maintains history_p, includes it in selection messages
	// and enables the line-26 revert (class-3 algorithms).
	UseHistory bool
	// SkipFirstSelection suppresses the selection round of phase 1
	// (§3.1 optimization); select_p is initialized to init_p. With
	// UseHistory, history_p starts as {(init_p, 0), (init_p, 1)}: the
	// second pair is line 13 for the skipped round, without which no
	// later phase's FLV could find a backer for a phase-1 vote.
	SkipFirstSelection bool
	// Merged collapses each FLAG=* phase to a single round by overlapping
	// the decision round of phase φ with the selection round of phase
	// φ+1 (§3.2 optimization; the OneThirdRule shape).
	Merged bool
	// HistoryBound, when positive, prunes history entries older than
	// HistoryBound phases (the bounded variant of footnote 5 / [3]).
	// Zero keeps the history unbounded as in the paper.
	HistoryBound int
}

// Errors returned by Params.Validate.
var (
	ErrNoFLV          = errors.New("core: FLV function required")
	ErrNoSelector     = errors.New("core: Selector required")
	ErrBadFlag        = errors.New("core: FLAG must be * or φ")
	ErrBadTD          = errors.New("core: TD out of range")
	ErrMergedNeedStar = errors.New("core: merged rounds require FLAG = *")
	ErrHistoryNeedPhi = errors.New("core: history requires FLAG = φ")
	ErrEmptyInit      = errors.New("core: initial value must be non-empty")
	ErrSkipNeedsFixed = errors.New("core: SkipFirstSelection requires a fixed selector")
)

// Validate checks structural well-formedness. Resilience-level validation
// (Table 1 bounds) is the concern of quorum.Config and the public API.
func (p Params) Validate() error {
	if p.N <= 0 || p.B < 0 || p.F < 0 {
		return fmt.Errorf("core: bad system size n=%d b=%d f=%d", p.N, p.B, p.F)
	}
	if p.FLV == nil {
		return ErrNoFLV
	}
	if p.Selector == nil {
		return ErrNoSelector
	}
	if p.Flag != model.FlagStar && p.Flag != model.FlagPhase {
		return ErrBadFlag
	}
	if p.TD < 1 || p.TD > p.N {
		return fmt.Errorf("%w: TD=%d n=%d", ErrBadTD, p.TD, p.N)
	}
	if p.Merged && p.Flag != model.FlagStar {
		return ErrMergedNeedStar
	}
	if p.UseHistory && p.Flag != model.FlagPhase {
		return ErrHistoryNeedPhi
	}
	if p.SkipFirstSelection && !p.Selector.Fixed() {
		return ErrSkipNeedsFixed
	}
	return nil
}

// Schedule returns the round schedule induced by the parameters.
func (p Params) Schedule() Schedule {
	return Schedule{Flag: p.Flag, SkipFirst: p.SkipFirstSelection, Merged: p.Merged}
}

// Process is an honest process executing Algorithm 1.
type Process struct {
	id     model.PID
	params Params
	sched  Schedule

	// Algorithm 1 state (lines 2-4).
	vote    model.Value
	ts      model.Phase
	history model.History

	// Per-phase transients.
	selectVal  model.Value // select_p; NoValue encodes "null"
	validators []model.PID // validators_p

	decided   bool
	decision  model.Value
	decidedAt model.Round
}

var _ model.Proc = (*Process)(nil)

// NewProcess returns an honest process with the given initial value.
func NewProcess(id model.PID, init model.Value, params Params) (*Process, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if init == model.NoValue {
		return nil, ErrEmptyInit
	}
	switch c := params.Chooser.(type) {
	case nil:
		params.Chooser = MinChooser{}
	case *CoinChooser:
		// The process's own coin, so its flips never depend on how many
		// another process built from these Params has drawn.
		params.Chooser = NewCoinChooser(c.seed*1000003+int64(id), c.zero, c.one)
	}
	p := &Process{
		id:     id,
		params: params,
		sched:  params.Schedule(),
		vote:   init,
		ts:     0,
	}
	if params.UseHistory {
		p.history = model.NewHistory(init)
	}
	if params.SkipFirstSelection {
		// §3.1: initialize select_p with init_p and validators_p with
		// the (necessarily fixed) selector set of phase 1.
		p.selectVal = init
		p.validators = params.Selector.Select(id, 1)
		if params.UseHistory {
			p.history = p.history.Add(init, 1)
		}
	}
	return p, nil
}

// ID implements model.Proc.
func (p *Process) ID() model.PID { return p.id }

// Decided implements model.Proc.
func (p *Process) Decided() (model.Value, bool) { return p.decision, p.decided }

// DecidedAt returns the round in which the process decided (0 if undecided).
func (p *Process) DecidedAt() model.Round { return p.decidedAt }

// Vote exposes vote_p for tests and traces.
func (p *Process) Vote() model.Value { return p.vote }

// TS exposes ts_p for tests and traces.
func (p *Process) TS() model.Phase { return p.ts }

// History exposes a copy of history_p for tests and traces.
func (p *Process) History() model.History { return p.history.Clone() }

// Send implements model.Proc (the S_p^r functions of Algorithm 1).
func (p *Process) Send(r model.Round) map[model.PID]model.Message {
	phase, kind := p.sched.At(r)
	switch kind {
	case model.SelectionRound:
		return p.sendSelection(phase)
	case model.ValidationRound:
		return p.sendValidation()
	case model.DecisionRound:
		return p.sendDecision(phase)
	default:
		return nil
	}
}

// sendSelection implements line 7: send ⟨vote, ts, history, S⟩ to S. In
// merged mode the same message also serves as the decision-round vote.
func (p *Process) sendSelection(phase model.Phase) map[model.PID]model.Message {
	dests := p.params.Selector.Select(p.id, phase)
	if p.sched.IsMerged() {
		dests = model.AllPIDs(p.params.N)
	}
	msg := model.Message{Kind: model.SelectionRound, Vote: p.vote}
	if p.params.Flag == model.FlagPhase {
		msg.TS = p.ts
	}
	if p.params.UseHistory {
		msg.History = p.history.Clone()
	}
	if !p.params.Selector.Fixed() {
		msg.Sel = append([]model.PID(nil), dests...)
	}
	return model.Broadcast(msg, dests)
}

// sendValidation implements line 18-19: validators send ⟨select, validators⟩
// to all.
func (p *Process) sendValidation() map[model.PID]model.Message {
	if !model.PIDSetContains(p.validators, p.id) {
		return nil
	}
	msg := model.Message{Kind: model.ValidationRound, Vote: p.selectVal}
	if !p.params.Selector.Fixed() {
		msg.Sel = append([]model.PID(nil), p.validators...)
	}
	return model.Broadcast(msg, model.AllPIDs(p.params.N))
}

// sendDecision implements line 29: send ⟨vote, ts⟩ to all.
func (p *Process) sendDecision(model.Phase) map[model.PID]model.Message {
	msg := model.Message{Kind: model.DecisionRound, Vote: p.vote}
	if p.params.Flag == model.FlagPhase {
		msg.TS = p.ts
	}
	return model.Broadcast(msg, model.AllPIDs(p.params.N))
}

// Transition implements model.Proc (the T_p^r functions of Algorithm 1).
func (p *Process) Transition(r model.Round, mu model.Received) {
	phase, kind := p.sched.At(r)
	switch kind {
	case model.SelectionRound:
		if p.sched.IsMerged() {
			// §3.2 optimization: the decision round of phase φ-1
			// overlaps the selection round of phase φ; both read
			// the same vector.
			p.checkDecision(r, phase, mu)
		}
		p.transitionSelection(phase, mu)
	case model.ValidationRound:
		p.transitionValidation(phase, mu)
	case model.DecisionRound:
		p.checkDecision(r, phase, mu)
	}
}

// transitionSelection implements lines 9-15.
func (p *Process) transitionSelection(phase model.Phase, mu model.Received) {
	res := p.params.FLV.Eval(mu, phase)
	p.selectVal = model.NoValue
	switch res.Out {
	case flv.Locked:
		p.selectVal = res.Val
	case flv.Any:
		if v, ok := p.params.Chooser.Choose(mu); ok {
			p.selectVal = v
		}
	case flv.None:
		// select_p stays null.
	}
	if p.selectVal != model.NoValue {
		p.vote = p.selectVal
		if p.params.UseHistory {
			p.history = p.history.Add(p.selectVal, phase)
			if bound := p.params.HistoryBound; bound > 0 && phase > model.Phase(bound) {
				p.history = p.history.Prune(phase - model.Phase(bound))
			}
		}
	}
	// Line 15: elect the validators for the validation round.
	if p.params.Selector.Fixed() {
		p.validators = p.params.Selector.Select(p.id, phase)
		return
	}
	p.validators = selFromCounts(mu, func(count int) bool {
		return quorum.MoreThanHalf(count, p.params.N+p.params.B)
	})
}

// transitionValidation implements lines 21-26.
func (p *Process) transitionValidation(phase model.Phase, mu model.Received) {
	// Line 21 (suppressed under the fixed-selector optimization of §3.1).
	if p.params.Selector.Fixed() {
		p.validators = p.params.Selector.Select(p.id, phase)
	} else {
		p.validators = selFromCounts(mu, func(count int) bool {
			return count >= p.params.B+1
		})
	}
	// Line 22: a value validated by a strict majority of validators
	// (counting at most b Byzantine among them).
	counts := make(map[model.Value]int)
	for _, q := range p.validators {
		m, ok := mu[q]
		if !ok || m.Vote == model.NoValue {
			continue
		}
		counts[m.Vote]++
	}
	for _, v := range sortedVoteKeys(counts) {
		if quorum.MoreThanHalf(counts[v], len(p.validators)+p.params.B) {
			p.vote = v
			p.ts = phase
			return
		}
	}
	// Line 26: revert vote_p to the value matching ts_p. Requires the
	// history variable (class 3); class-2 algorithms keep the selected
	// vote (footnote 7: the revert is not mandatory).
	if p.params.UseHistory {
		if v, ok := p.history.ValueAt(p.ts); ok {
			p.vote = v
		}
	}
}

// checkDecision implements lines 31-32.
func (p *Process) checkDecision(r model.Round, phase model.Phase, mu model.Received) {
	counts := make(map[model.Value]int)
	for _, m := range mu {
		if m.Vote == model.NoValue {
			continue
		}
		if p.params.Flag == model.FlagPhase && m.TS != phase {
			continue
		}
		counts[m.Vote]++
	}
	for _, v := range sortedVoteKeys(counts) {
		if counts[v] >= p.params.TD {
			if !p.decided {
				p.decided = true
				p.decision = v
				p.decidedAt = r
			}
			return
		}
	}
}

// selFromCounts groups the Sel fields of a vector by canonical key and
// returns the set whose multiplicity satisfies enough, or nil. With at most
// b Byzantine senders the thresholds of lines 15 and 21 admit at most one
// such set (Lemma 3); keys are scanned in sorted order anyway so the result
// is deterministic even on adversarial input.
func selFromCounts(mu model.Received, enough func(int) bool) []model.PID {
	counts := make(map[string]int)
	sets := make(map[string][]model.PID)
	for _, m := range mu {
		if len(m.Sel) == 0 {
			continue
		}
		k := m.SelKey()
		counts[k]++
		if _, ok := sets[k]; !ok {
			sets[k] = append([]model.PID(nil), m.Sel...)
		}
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if enough(counts[k]) {
			return sets[k]
		}
	}
	return nil
}

// sortedVoteKeys returns the map keys in ascending order for deterministic
// iteration.
func sortedVoteKeys(counts map[model.Value]int) []model.Value {
	out := make([]model.Value, 0, len(counts))
	for v := range counts {
		out = append(out, v)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
