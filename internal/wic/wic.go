// Package wic implements Weak Interactive Consistency: building the Pcons
// communication predicate out of Pgood (§2.2 of the paper, following
// Milosevic, Hutle & Schiper [17] and Borran & Schiper [2]).
//
// Pcons requires every correct process to receive the same vector of
// messages in a round. The package provides two constructions that expand
// each selection round of the generic algorithm into micro-rounds:
//
//   - Relay (authenticated Byzantine model, 2 micro-rounds): processes send
//     signed messages to a coordinator, which relays the batch to everyone.
//     Signatures make the relay trustworthy: the coordinator cannot forge
//     or alter messages, only omit them. Pcons holds in good periods
//     whenever the coordinator is correct; the coordinator rotates, so this
//     happens eventually.
//
//   - Echo (Byzantine model without signatures, 3 micro-rounds): processes
//     broadcast, echo the received vectors, and confirm per-sender values
//     supported by more than (n+b)/2 echoes. In good periods Pcons holds
//     for every consistently-sent message; an equivocating Byzantine sender
//     can deny Pcons for its own entry in a round (no two correct processes
//     accept different values, but one may accept ⊥), which only delays
//     termination — safety of the consensus on top is untouched.
//
// Both constructions are exposed as wrappers around a model.Proc: the
// wrapped process sees logical (inner) rounds while the network executes
// micro-rounds.
package wic

import (
	"fmt"
	"sort"

	"genconsensus/internal/auth"
	"genconsensus/internal/core"
	"genconsensus/internal/model"
)

// Mode selects the WIC construction.
type Mode int

const (
	// Relay is the coordinator-based authenticated construction
	// (2 micro-rounds per selection round).
	Relay Mode = iota + 1
	// Echo is the signature-free construction (3 micro-rounds per
	// selection round).
	Echo
)

// Micros returns the number of micro-rounds a selection round expands into.
func (m Mode) Micros() int {
	if m == Relay {
		return 2
	}
	return 3
}

// String names the mode.
func (m Mode) String() string {
	if m == Relay {
		return "wic/relay"
	}
	return "wic/echo"
}

// Schedule maps outer (micro) rounds to inner (logical) rounds: selection
// rounds expand to Micros() rounds, other rounds pass through.
type Schedule struct {
	Inner core.Schedule
	Mode  Mode
}

// At returns the inner round and micro index (1-based) for an outer round.
func (s Schedule) At(outer model.Round) (inner model.Round, micro int) {
	micros := s.Mode.Micros()
	o := int(outer)
	r := model.Round(1)
	for {
		_, kind := s.Inner.At(r)
		span := 1
		if kind == model.SelectionRound {
			span = micros
		}
		if o <= span {
			return r, o
		}
		o -= span
		r++
	}
}

// OuterRounds returns the number of outer rounds needed to execute inner
// rounds 1..innerMax.
func (s Schedule) OuterRounds(innerMax model.Round) int {
	total := 0
	for r := model.Round(1); r <= innerMax; r++ {
		_, kind := s.Inner.At(r)
		if kind == model.SelectionRound {
			total += s.Mode.Micros()
		} else {
			total++
		}
	}
	return total
}

// Config parameterizes a WIC wrapper.
type Config struct {
	N, B int
	Mode Mode
	// Keyring supplies signing keys (Relay mode).
	Keyring *auth.Keyring
	// Coordinator maps an inner round to the relay coordinator
	// (Relay mode); defaults to rotating by inner round number.
	Coordinator func(inner model.Round) model.PID
}

// Proc wraps an inner process, expanding its selection rounds into WIC
// micro-rounds. It implements model.Proc over outer rounds.
type Proc struct {
	cfg   Config
	inner model.Proc
	sched Schedule

	// Per-selection-round state, keyed by inner round.
	pendingSend map[model.PID]model.Message // inner Send output being transported
	collected   []model.Signed              // relay: signed messages gathered by the coordinator
	echoes      model.Received              // echo: micro-1 vector
	candidates  map[model.PID]model.Message // echo: per-sender candidate after micro-2
}

var _ model.Proc = (*Proc)(nil)

// Wrap builds a WIC wrapper around inner. The inner process must use a
// whole-Π selector (all §5 Byzantine algorithms do): WIC transports
// selection messages to every process.
func Wrap(inner model.Proc, cfg Config, sched core.Schedule) (*Proc, error) {
	if cfg.Mode != Relay && cfg.Mode != Echo {
		return nil, fmt.Errorf("wic: unknown mode %d", int(cfg.Mode))
	}
	if cfg.Mode == Relay && cfg.Keyring == nil {
		return nil, fmt.Errorf("wic: relay mode requires a keyring")
	}
	if cfg.Coordinator == nil {
		n := cfg.N
		cfg.Coordinator = func(inner model.Round) model.PID {
			return model.PID(int(inner) % n)
		}
	}
	return &Proc{
		cfg:   cfg,
		inner: inner,
		sched: Schedule{Inner: sched, Mode: cfg.Mode},
	}, nil
}

// ID implements model.Proc.
func (p *Proc) ID() model.PID { return p.inner.ID() }

// Decided implements model.Proc.
func (p *Proc) Decided() (model.Value, bool) { return p.inner.Decided() }

// DecidedAt forwards the inner decision round when available.
func (p *Proc) DecidedAt() model.Round {
	if dp, ok := p.inner.(interface{ DecidedAt() model.Round }); ok {
		return dp.DecidedAt()
	}
	return 0
}

// Schedule exposes the outer schedule for engine drivers.
func (p *Proc) Schedule() Schedule { return p.sched }

// Send implements model.Proc.
func (p *Proc) Send(outer model.Round) map[model.PID]model.Message {
	innerR, micro := p.sched.At(outer)
	_, kind := p.sched.Inner.At(innerR)
	if kind != model.SelectionRound {
		return p.inner.Send(innerR)
	}
	switch {
	case micro == 1:
		p.pendingSend = p.inner.Send(innerR)
		own, ok := p.ownMessage()
		if !ok {
			return nil
		}
		signed := p.sign(own)
		carrier := model.Message{Kind: model.SelectionRound, Relay: []model.Signed{signed}}
		if p.cfg.Mode == Relay {
			coord := p.cfg.Coordinator(innerR)
			return model.Broadcast(carrier, []model.PID{coord})
		}
		return model.Broadcast(carrier, model.AllPIDs(p.cfg.N))
	case p.cfg.Mode == Relay && micro == 2:
		if p.cfg.Coordinator(innerR) != p.ID() || len(p.collected) == 0 {
			return nil
		}
		carrier := model.Message{Kind: model.SelectionRound, Relay: p.collected}
		return model.Broadcast(carrier, model.AllPIDs(p.cfg.N))
	case p.cfg.Mode == Echo && micro == 2:
		batch := make([]model.Signed, 0, len(p.echoes))
		for _, q := range p.echoes.Senders() {
			batch = append(batch, model.Signed{Sender: q, Msg: p.echoes[q]})
		}
		carrier := model.Message{Kind: model.SelectionRound, Relay: batch}
		return model.Broadcast(carrier, model.AllPIDs(p.cfg.N))
	case p.cfg.Mode == Echo && micro == 3:
		batch := make([]model.Signed, 0, len(p.candidates))
		pids := make([]model.PID, 0, len(p.candidates))
		for q := range p.candidates {
			pids = append(pids, q)
		}
		sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
		for _, q := range pids {
			batch = append(batch, model.Signed{Sender: q, Msg: p.candidates[q]})
		}
		carrier := model.Message{Kind: model.SelectionRound, Relay: batch}
		return model.Broadcast(carrier, model.AllPIDs(p.cfg.N))
	}
	return nil
}

// Transition implements model.Proc.
func (p *Proc) Transition(outer model.Round, mu model.Received) {
	innerR, micro := p.sched.At(outer)
	_, kind := p.sched.Inner.At(innerR)
	if kind != model.SelectionRound {
		p.inner.Transition(innerR, mu)
		return
	}
	switch {
	case p.cfg.Mode == Relay && micro == 1:
		p.collected = nil
		if p.cfg.Coordinator(innerR) != p.ID() {
			return
		}
		seen := map[model.PID]bool{}
		for _, q := range mu.Senders() {
			for _, s := range mu[q].Relay {
				// The relayed message must be self-signed by its
				// original sender; the coordinator drops forgeries.
				if s.Sender != q || seen[q] {
					continue
				}
				if p.verify(s) {
					p.collected = append(p.collected, s)
					seen[q] = true
				}
			}
		}
		sort.Slice(p.collected, func(i, j int) bool {
			return p.collected[i].Sender < p.collected[j].Sender
		})
	case p.cfg.Mode == Relay && micro == 2:
		innerMu := model.Received{}
		coord := p.cfg.Coordinator(innerR)
		if m, ok := mu[coord]; ok {
			for _, s := range m.Relay {
				if p.verify(s) {
					innerMu[s.Sender] = s.Msg
				}
			}
		}
		p.inner.Transition(innerR, innerMu)
	case p.cfg.Mode == Echo && micro == 1:
		p.echoes = model.Received{}
		for _, q := range mu.Senders() {
			for _, s := range mu[q].Relay {
				if s.Sender == q {
					p.echoes[q] = s.Msg
					break
				}
			}
		}
	case p.cfg.Mode == Echo && micro == 2:
		p.candidates = p.tally(mu)
	case p.cfg.Mode == Echo && micro == 3:
		accepted := p.tally(mu)
		innerMu := model.Received{}
		for q, m := range accepted {
			innerMu[q] = m
		}
		p.inner.Transition(innerR, innerMu)
	}
}

// tally counts, per original sender, the relayed values and returns those
// supported by more than (n+b)/2 of the relayers.
func (p *Proc) tally(mu model.Received) map[model.PID]model.Message {
	type key struct {
		sender model.PID
		fp     string
	}
	counts := map[key]int{}
	repr := map[key]model.Message{}
	for _, relayer := range mu.Senders() {
		seen := map[model.PID]bool{}
		for _, s := range mu[relayer].Relay {
			if seen[s.Sender] {
				continue // one claim per (relayer, sender)
			}
			seen[s.Sender] = true
			k := key{s.Sender, fingerprint(s.Msg)}
			counts[k]++
			if _, ok := repr[k]; !ok {
				repr[k] = s.Msg
			}
		}
	}
	out := map[model.PID]model.Message{}
	for k, c := range counts {
		if 2*c > p.cfg.N+p.cfg.B {
			out[k.sender] = repr[k]
		}
	}
	return out
}

// ownMessage extracts the message the inner process wants transported. With
// a whole-Π selector the per-destination contents coincide; the wrapper
// takes the copy addressed to the lowest PID.
func (p *Proc) ownMessage() (model.Message, bool) {
	if len(p.pendingSend) == 0 {
		return model.Message{}, false
	}
	best := model.PID(-1)
	for d := range p.pendingSend {
		if best < 0 || d < best {
			best = d
		}
	}
	return p.pendingSend[best], true
}

func (p *Proc) sign(m model.Message) model.Signed {
	s := model.Signed{Sender: p.ID(), Msg: m}
	if p.cfg.Mode == Relay {
		signer, err := p.cfg.Keyring.Signer(p.ID())
		if err == nil {
			s.Sig = signer.Sign(fingerprintBytes(m))
		}
	}
	return s
}

func (p *Proc) verify(s model.Signed) bool {
	if p.cfg.Mode != Relay {
		return true
	}
	return p.cfg.Keyring.Verifier().Verify(s.Sender, fingerprintBytes(s.Msg), s.Sig) == nil
}

// fingerprint serializes a message canonically for counting and signing.
func fingerprint(m model.Message) string { return string(fingerprintBytes(m)) }

func fingerprintBytes(m model.Message) []byte {
	out := make([]byte, 0, 64)
	out = append(out, byte(m.Kind))
	out = append(out, []byte(m.Vote)...)
	out = append(out, 0)
	out = appendUint(out, uint64(m.TS))
	for _, e := range m.History {
		out = append(out, []byte(e.Val)...)
		out = append(out, 1)
		out = appendUint(out, uint64(e.Phase))
	}
	out = append(out, 2)
	for _, p := range m.Sel {
		out = appendUint(out, uint64(p))
	}
	return out
}

func appendUint(b []byte, v uint64) []byte {
	for i := 7; i >= 0; i-- {
		b = append(b, byte(v>>(8*i)))
	}
	return b
}
