// Package adversary implements Byzantine process behaviours for testing and
// for the tightness experiments: silence, random garbage, equivocation,
// timestamp forgery, history forgery and coordinated vote splitting.
//
// A Byzantine process is a model.Proc whose Send is controlled by a Strategy.
// Strategies observe everything the process receives (full-information
// adversary) and may send different messages to different destinations;
// they cannot impersonate other processes (§2.1), which the network layer
// enforces by attaching sender identities.
package adversary

import (
	"math/rand"

	"genconsensus/internal/core"
	"genconsensus/internal/model"
)

// Ctx gives strategies their execution context.
type Ctx struct {
	Self model.PID
	N    int
	Rng  *rand.Rand
	// Sched maps rounds to (phase, kind) for the honest algorithm under
	// attack, letting strategies target specific round types.
	Sched core.Schedule
}

// Strategy decides what a Byzantine process sends each round.
type Strategy interface {
	// Name identifies the strategy in traces and test output.
	Name() string
	// Messages returns the per-destination messages for round r; nil
	// means silence.
	Messages(ctx *Ctx, r model.Round) map[model.PID]model.Message
	// Observe shows the strategy the vector its process received.
	Observe(ctx *Ctx, r model.Round, mu model.Received)
}

// Proc is a Byzantine process driven by a Strategy. It never decides.
type Proc struct {
	ctx      Ctx
	strategy Strategy
}

var _ model.Proc = (*Proc)(nil)

// NewProc returns a Byzantine process. The seed isolates this process's
// randomness so executions replay deterministically.
func NewProc(self model.PID, n int, sched core.Schedule, seed int64, s Strategy) *Proc {
	return &Proc{
		ctx: Ctx{
			Self:  self,
			N:     n,
			Rng:   rand.New(rand.NewSource(seed)),
			Sched: sched,
		},
		strategy: s,
	}
}

// ID implements model.Proc.
func (p *Proc) ID() model.PID { return p.ctx.Self }

// Send implements model.Proc.
func (p *Proc) Send(r model.Round) map[model.PID]model.Message {
	return p.strategy.Messages(&p.ctx, r)
}

// Transition implements model.Proc.
func (p *Proc) Transition(r model.Round, mu model.Received) {
	p.strategy.Observe(&p.ctx, r, mu)
}

// Decided implements model.Proc: Byzantine processes never report decisions.
func (p *Proc) Decided() (model.Value, bool) { return model.NoValue, false }

// --- Strategies -------------------------------------------------------------

// Silent sends nothing, ever: the weakest Byzantine behaviour (equivalent to
// an initially-crashed process, but counted against b rather than f).
type Silent struct{}

// Name implements Strategy.
func (Silent) Name() string { return "byz/silent" }

// Messages implements Strategy.
func (Silent) Messages(*Ctx, model.Round) map[model.PID]model.Message { return nil }

// Observe implements Strategy.
func (Silent) Observe(*Ctx, model.Round, model.Received) {}

// RandomJunk sends uniformly random votes, timestamps and histories,
// independently to every destination.
type RandomJunk struct {
	// Values is the pool junk votes are drawn from.
	Values []model.Value
}

// Name implements Strategy.
func (s RandomJunk) Name() string { return "byz/random-junk" }

// Observe implements Strategy.
func (s RandomJunk) Observe(*Ctx, model.Round, model.Received) {}

// Messages implements Strategy.
func (s RandomJunk) Messages(ctx *Ctx, r model.Round) map[model.PID]model.Message {
	phase, kind := ctx.Sched.At(r)
	out := make(map[model.PID]model.Message, ctx.N)
	for _, d := range model.AllPIDs(ctx.N) {
		v := s.Values[ctx.Rng.Intn(len(s.Values))]
		ts := model.Phase(ctx.Rng.Intn(int(phase) + 2))
		h := model.NewHistory(v).Add(v, ts)
		out[d] = model.Message{Kind: kind, Vote: v, TS: ts, History: h}
	}
	return out
}

// Equivocate sends value A to the lower half of the process space and B to
// the upper half, in every round, with timestamps claiming current-phase
// validation — the canonical split attack against decision thresholds.
type Equivocate struct {
	A, B model.Value
}

// Name implements Strategy.
func (s Equivocate) Name() string { return "byz/equivocate" }

// Observe implements Strategy.
func (s Equivocate) Observe(*Ctx, model.Round, model.Received) {}

// Messages implements Strategy.
func (s Equivocate) Messages(ctx *Ctx, r model.Round) map[model.PID]model.Message {
	phase, kind := ctx.Sched.At(r)
	out := make(map[model.PID]model.Message, ctx.N)
	for _, d := range model.AllPIDs(ctx.N) {
		v := s.A
		if int(d) >= ctx.N/2 {
			v = s.B
		}
		h := model.NewHistory(v).Add(v, phase)
		out[d] = model.Message{Kind: kind, Vote: v, TS: phase, History: h}
	}
	return out
}

// ForgeTimestamp pushes Target with fabricated past-validation evidence: in
// selection rounds it claims Target was validated in the previous phase
// (with a matching forged history); in decision rounds it votes Target with
// the current phase's timestamp.
type ForgeTimestamp struct {
	Target model.Value
}

// Name implements Strategy.
func (s ForgeTimestamp) Name() string { return "byz/forge-timestamp" }

// Observe implements Strategy.
func (s ForgeTimestamp) Observe(*Ctx, model.Round, model.Received) {}

// Messages implements Strategy.
func (s ForgeTimestamp) Messages(ctx *Ctx, r model.Round) map[model.PID]model.Message {
	phase, kind := ctx.Sched.At(r)
	claim := phase
	if kind == model.SelectionRound && phase > 1 {
		claim = phase - 1
	}
	h := model.NewHistory(s.Target).Add(s.Target, claim)
	msg := model.Message{Kind: kind, Vote: s.Target, TS: claim, History: h}
	return model.Broadcast(msg, model.AllPIDs(ctx.N))
}

// Mimic echoes the majority vote it last observed, making the Byzantine
// process look honest while withholding validation-round participation —
// a liveness attack against small validator sets.
type Mimic struct {
	last model.Value
}

// Name implements Strategy.
func (s *Mimic) Name() string { return "byz/mimic" }

// Observe implements Strategy.
func (s *Mimic) Observe(_ *Ctx, _ model.Round, mu model.Received) {
	if v, ok := mu.SmallestMostOften(); ok {
		s.last = v
	}
}

// Messages implements Strategy.
func (s *Mimic) Messages(ctx *Ctx, r model.Round) map[model.PID]model.Message {
	phase, kind := ctx.Sched.At(r)
	if kind == model.ValidationRound {
		return nil // withhold validation
	}
	v := s.last
	if v == model.NoValue {
		v = "0"
	}
	msg := model.Message{Kind: kind, Vote: v, TS: phase}
	return model.Broadcast(msg, model.AllPIDs(ctx.N))
}

// Fabricate is the injection shell for proposer-content attacks: each round
// it broadcasts an attacker-chosen value (drawn from Next — e.g. a batch of
// forged command envelopes, replayed client commands or signature-stripped
// payloads) wrapped in honest-looking round metadata (current-phase
// timestamp and a matching history), so the value survives structural
// checks and is judged purely on its content. The callback keeps this
// package free of the batch and envelope codecs: internal/smr supplies
// concrete fabricators (FabricateCommands, ReplayCommands,
// StripSignatures).
type Fabricate struct {
	// Label names the concrete attack in traces ("byz/" is prefixed).
	Label string
	// Next produces the round's injected value. It is called once per
	// round; returning NoValue silences the round.
	Next func(ctx *Ctx, r model.Round) model.Value
}

// Name implements Strategy.
func (s Fabricate) Name() string { return "byz/" + s.Label }

// Observe implements Strategy.
func (s Fabricate) Observe(*Ctx, model.Round, model.Received) {}

// Messages implements Strategy.
func (s Fabricate) Messages(ctx *Ctx, r model.Round) map[model.PID]model.Message {
	v := s.Next(ctx, r)
	if v == model.NoValue {
		return nil
	}
	phase, kind := ctx.Sched.At(r)
	h := model.NewHistory(v).Add(v, phase)
	msg := model.Message{Kind: kind, Vote: v, TS: phase, History: h}
	return model.Broadcast(msg, model.AllPIDs(ctx.N))
}

// FlipFlop alternates between two sub-strategies round by round, modelling
// intermittently detectable behaviour.
type FlipFlop struct {
	Even, Odd Strategy
}

// Name implements Strategy.
func (s FlipFlop) Name() string { return "byz/flip-flop" }

// Observe implements Strategy.
func (s FlipFlop) Observe(ctx *Ctx, r model.Round, mu model.Received) {
	s.pick(r).Observe(ctx, r, mu)
}

// Messages implements Strategy.
func (s FlipFlop) Messages(ctx *Ctx, r model.Round) map[model.PID]model.Message {
	return s.pick(r).Messages(ctx, r)
}

func (s FlipFlop) pick(r model.Round) Strategy {
	if r%2 == 0 {
		return s.Even
	}
	return s.Odd
}
