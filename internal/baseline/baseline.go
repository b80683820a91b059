// Package baseline provides verbatim implementations of the original
// algorithms the paper instantiates — OneThirdRule exactly as in
// Algorithm 5 (Charron-Bost & Schiper's Heard-Of formulation) and Ben-Or's
// randomized binary consensus (PODC 1983, benign variant) — for
// differential testing against the generic instantiations. The paper claims
// its instantiations are "(small) improvements": they decide whenever the
// originals do, and sometimes earlier. The E-DIFF experiment checks exactly
// that.
package baseline

import (
	"math/rand"

	"genconsensus/internal/model"
)

// OTR is the original OneThirdRule algorithm (Algorithm 5 of the paper):
// one round per phase; on receiving more than 2n/3 messages adopt the
// smallest most-often-received value, and decide when more than 2n/3 of the
// received values are equal.
type OTR struct {
	id        model.PID
	n         int
	vote      model.Value
	decided   bool
	decision  model.Value
	decidedAt model.Round
}

var _ model.Proc = (*OTR)(nil)

// NewOTR returns an original-OneThirdRule process.
func NewOTR(id model.PID, n int, init model.Value) *OTR {
	return &OTR{id: id, n: n, vote: init}
}

// ID implements model.Proc.
func (p *OTR) ID() model.PID { return p.id }

// Decided implements model.Proc.
func (p *OTR) Decided() (model.Value, bool) { return p.decision, p.decided }

// DecidedAt returns the decision round (0 if undecided).
func (p *OTR) DecidedAt() model.Round { return p.decidedAt }

// Vote exposes the current estimate.
func (p *OTR) Vote() model.Value { return p.vote }

// Send implements model.Proc: line 5, send ⟨vote⟩ to all.
func (p *OTR) Send(model.Round) map[model.PID]model.Message {
	msg := model.Message{Kind: model.SelectionRound, Vote: p.vote}
	return model.Broadcast(msg, model.AllPIDs(p.n))
}

// Transition implements model.Proc: lines 7-10 of Algorithm 5. Note the
// original's stricter guard: nothing happens unless more than 2n/3 messages
// arrive (the instantiated version may select from fewer).
func (p *OTR) Transition(r model.Round, mu model.Received) {
	if 3*len(mu) <= 2*p.n {
		return
	}
	if v, ok := mu.SmallestMostOften(); ok {
		p.vote = v
	}
	for v, count := range mu.VoteCounts() {
		if 3*count > 2*p.n {
			if !p.decided {
				p.decided = true
				p.decision = v
				p.decidedAt = r
			}
			return
		}
	}
}

// BenOr is Ben-Or's original randomized binary consensus for benign faults
// (n > 2f): each phase has a report round and a proposal round.
//
//	report round:   broadcast (φ, x). If more than n/2 report the same v,
//	                propose v; otherwise propose ⊥.
//	proposal round: broadcast the proposal. On ≥ f+1 proposals for v,
//	                decide v; on ≥ 1 proposal for v, adopt x := v;
//	                otherwise flip a coin.
//
// Proposals are encoded as validation-kind messages with TS=1 ("D" marker);
// ⊥ proposals carry NoValue.
type BenOr struct {
	id        model.PID
	n, f      int
	vote      model.Value
	proposal  model.Value
	rng       *rand.Rand
	zero, one model.Value
	decided   bool
	decision  model.Value
	decidedAt model.Round
}

var _ model.Proc = (*BenOr)(nil)

// NewBenOr returns an original Ben-Or process with a seeded coin.
func NewBenOr(id model.PID, n, f int, init model.Value, seed int64) *BenOr {
	return &BenOr{
		id: id, n: n, f: f, vote: init,
		rng:  rand.New(rand.NewSource(seed)),
		zero: "0", one: "1",
	}
}

// ID implements model.Proc.
func (p *BenOr) ID() model.PID { return p.id }

// Decided implements model.Proc.
func (p *BenOr) Decided() (model.Value, bool) { return p.decision, p.decided }

// DecidedAt returns the decision round (0 if undecided).
func (p *BenOr) DecidedAt() model.Round { return p.decidedAt }

// Vote exposes the current estimate.
func (p *BenOr) Vote() model.Value { return p.vote }

// Send implements model.Proc: odd rounds report, even rounds propose.
func (p *BenOr) Send(r model.Round) map[model.PID]model.Message {
	var msg model.Message
	if r%2 == 1 {
		msg = model.Message{Kind: model.SelectionRound, Vote: p.vote}
	} else {
		msg = model.Message{Kind: model.ValidationRound, Vote: p.proposal, TS: 1}
	}
	return model.Broadcast(msg, model.AllPIDs(p.n))
}

// Transition implements model.Proc.
func (p *BenOr) Transition(r model.Round, mu model.Received) {
	if r%2 == 1 {
		p.proposal = model.NoValue
		for v, count := range mu.VoteCounts() {
			if 2*count > p.n {
				p.proposal = v
				break
			}
		}
		return
	}
	counts := mu.VoteCounts() // ⊥ proposals are excluded by VoteCounts
	decideV, adoptV := model.NoValue, model.NoValue
	for _, v := range []model.Value{p.zero, p.one} {
		if counts[v] >= p.f+1 {
			decideV = v
		}
		if counts[v] >= 1 {
			adoptV = v
		}
	}
	switch {
	case decideV != model.NoValue:
		p.vote = decideV
		if !p.decided {
			p.decided = true
			p.decision = decideV
			p.decidedAt = r
		}
	case adoptV != model.NoValue:
		p.vote = adoptV
	default:
		if p.rng.Intn(2) == 0 {
			p.vote = p.zero
		} else {
			p.vote = p.one
		}
	}
}
