// Package sim is a deterministic, lock-step simulator of the §2.1 system
// model: a partially synchronous round-based network alternating between
// good periods (where the communication predicates Pgood and Pcons hold) and
// bad periods (where an adversary controls deliveries), with benign crash
// faults and Byzantine processes.
//
// The simulator is single-threaded and fully seeded: the same configuration
// and seed always replay the identical execution.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"genconsensus/internal/adversary"
	"genconsensus/internal/core"
	"genconsensus/internal/model"
)

// Mode is the communication guarantee the network provides in a round.
type Mode int

const (
	// ModeBad provides no guarantee: the Dropper decides deliveries.
	ModeBad Mode = iota
	// ModeGood enforces Pgood: every correct process receives every
	// message addressed to it by a correct process.
	ModeGood
	// ModeCons enforces Pcons: Pgood plus all correct processes receive
	// the same vector (Byzantine messages are canonicalized and
	// delivered to every correct process).
	ModeCons
	// ModeRel enforces Prel: every correct process receives at least
	// n-b-f messages (§6, randomized algorithms).
	ModeRel
)

// String names the mode for traces.
func (m Mode) String() string {
	switch m {
	case ModeBad:
		return "bad"
	case ModeGood:
		return "good"
	case ModeCons:
		return "cons"
	case ModeRel:
		return "rel"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ModeFunc decides the communication mode of each round; kind is the round's
// role in the consensus schedule, letting schedules claim Pcons exactly for
// selection rounds.
type ModeFunc func(r model.Round, kind model.RoundKind) Mode

// GoodFromPhase returns the canonical partial-synchrony schedule: rounds of
// phases before phi0 are bad; from phase phi0 on, selection rounds get Pcons
// and all other rounds get Pgood. phi0 = 1 models a synchronous ("nice")
// execution from the start.
func GoodFromPhase(cs core.Schedule, phi0 model.Phase) ModeFunc {
	first := cs.FirstRoundOf(phi0)
	return func(r model.Round, kind model.RoundKind) Mode {
		if r < first {
			return ModeBad
		}
		if kind == model.SelectionRound {
			return ModeCons
		}
		return ModeGood
	}
}

// AlwaysGood is GoodFromPhase(cs, 1).
func AlwaysGood(cs core.Schedule) ModeFunc { return GoodFromPhase(cs, 1) }

// AlwaysRel runs every round under Prel (randomized algorithms, §6).
func AlwaysRel() ModeFunc {
	return func(model.Round, model.RoundKind) Mode { return ModeRel }
}

// AlwaysBad gives the adversary every round (safety-only executions).
func AlwaysBad() ModeFunc {
	return func(model.Round, model.RoundKind) Mode { return ModeBad }
}

// Dropper controls deliveries in bad rounds. Keep is consulted per
// (src, dst) edge; self-delivery is never dropped.
type Dropper interface {
	Keep(r model.Round, src, dst model.PID, rng *rand.Rand) bool
}

// KeepAll delivers everything (bad rounds become Pgood-like for honest
// messages, but without the Byzantine canonicalization of Pcons).
type KeepAll struct{}

// Keep implements Dropper.
func (KeepAll) Keep(model.Round, model.PID, model.PID, *rand.Rand) bool { return true }

// DropAll suppresses every non-self delivery.
type DropAll struct{}

// Keep implements Dropper.
func (DropAll) Keep(model.Round, model.PID, model.PID, *rand.Rand) bool { return false }

// RandomDrop keeps each edge independently with probability P.
type RandomDrop struct{ P float64 }

// Keep implements Dropper.
func (d RandomDrop) Keep(_ model.Round, _, _ model.PID, rng *rand.Rand) bool {
	return rng.Float64() < d.P
}

// Partition delivers only within groups. Processes absent from every group
// are isolated.
type Partition struct{ Groups [][]model.PID }

// Keep implements Dropper.
func (d Partition) Keep(_ model.Round, src, dst model.PID, _ *rand.Rand) bool {
	for _, g := range d.Groups {
		if model.PIDSetContains(g, src) && model.PIDSetContains(g, dst) {
			return true
		}
	}
	return false
}

// BlockSenders drops every message from the blocked senders (e.g. isolating
// the coordinator during bad periods).
type BlockSenders struct{ Blocked map[model.PID]bool }

// Keep implements Dropper.
func (d BlockSenders) Keep(_ model.Round, src, _ model.PID, _ *rand.Rand) bool {
	return !d.Blocked[src]
}

// Edges delivers exactly the allowed (src, dst) pairs: full scheduler
// control for crafted attack executions (plus the always-on self-delivery).
type Edges struct {
	Allow map[model.PID]map[model.PID]bool
}

// Keep implements Dropper.
func (d Edges) Keep(_ model.Round, src, dst model.PID, _ *rand.Rand) bool {
	return d.Allow[src][dst]
}

// CrashPlan schedules a benign fault: the process performs its round-r send
// only to Partial (possibly empty) destinations and is silent from then on.
type CrashPlan struct {
	Round   model.Round
	Partial []model.PID
}

// Config assembles a simulation.
type Config struct {
	// Params is the honest-process parameterization (Algorithm 1).
	Params core.Params
	// Inits maps every honest process to its initial value. Byzantine
	// processes need no entry.
	Inits map[model.PID]model.Value
	// Byzantine assigns strategies to Byzantine processes.
	Byzantine map[model.PID]adversary.Strategy
	// Crashes assigns crash plans to benign-faulty processes.
	Crashes map[model.PID]CrashPlan
	// Modes is the predicate schedule; defaults to AlwaysGood.
	Modes ModeFunc
	// Drop controls bad-round deliveries; defaults to RandomDrop{0.5}.
	Drop Dropper
	// Seed drives all simulator randomness.
	Seed int64
	// MaxRounds bounds the execution; defaults to 600.
	MaxRounds int
	// CheckUnanimity audits the Unanimity property. Enable only for
	// instantiations whose FLV ensures it (class-3 with the unanimity
	// lines, or benign algorithms); other algorithms may legitimately
	// decide a Byzantine value even when honest proposals coincide.
	CheckUnanimity bool
	// Procs, when non-nil, supplies the processes directly instead of
	// building core.Process instances from Params — used to drive
	// baseline algorithms (internal/baseline) through the same network.
	// Params then only provides N, B, F; Sched must be set; Inits is
	// used for auditing only.
	Procs map[model.PID]model.Proc
	// Sched overrides the round schedule (kind labelling for ModeFuncs)
	// when Procs is set.
	Sched *core.Schedule
	// ProcByz marks which custom Procs are Byzantine (audit exclusion and
	// Pcons canonicalization). Ignored unless Procs is set.
	ProcByz map[model.PID]bool
}

// Result reports an execution.
type Result struct {
	// Decisions holds the decision of every process that decided.
	Decisions map[model.PID]model.Value
	// DecidedAt holds each decider's decision round.
	DecidedAt map[model.PID]model.Round
	// Rounds is the number of rounds executed.
	Rounds int
	// AllDecided reports whether every correct process decided.
	AllDecided bool
	// Violations lists any safety properties violated (agreement,
	// validity, unanimity), for below-bound experiments.
	Violations []string
	// Stats aggregates traffic accounting.
	Stats Stats
	// Records is the per-round trace.
	Records []RoundRecord
}

// Engine drives one execution.
type Engine struct {
	cfg     Config
	n       int
	sched   core.Schedule
	procs   map[model.PID]model.Proc
	byz     map[model.PID]bool
	crashed map[model.PID]bool
	rng     *rand.Rand
	col     *Collector
	r       model.Round
}

// Errors returned by New.
var (
	ErrBadConfig = errors.New("sim: invalid configuration")
)

// New validates the configuration and builds the engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Procs != nil {
		return newCustom(cfg)
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	n := cfg.Params.N
	if cfg.Modes == nil {
		cfg.Modes = AlwaysGood(cfg.Params.Schedule())
	}
	if cfg.Drop == nil {
		cfg.Drop = RandomDrop{P: 0.5}
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 600
	}
	if len(cfg.Byzantine) > cfg.Params.B {
		return nil, fmt.Errorf("%w: %d Byzantine processes configured, b=%d",
			ErrBadConfig, len(cfg.Byzantine), cfg.Params.B)
	}
	if len(cfg.Crashes) > cfg.Params.F {
		return nil, fmt.Errorf("%w: %d crashes configured, f=%d",
			ErrBadConfig, len(cfg.Crashes), cfg.Params.F)
	}
	e := &Engine{
		cfg:     cfg,
		n:       n,
		sched:   cfg.Params.Schedule(),
		procs:   make(map[model.PID]model.Proc, n),
		byz:     make(map[model.PID]bool, len(cfg.Byzantine)),
		crashed: make(map[model.PID]bool),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		col:     &Collector{},
		r:       1,
	}
	for _, p := range model.AllPIDs(n) {
		if strat, ok := cfg.Byzantine[p]; ok {
			e.byz[p] = true
			e.procs[p] = adversary.NewProc(p, n, e.sched, cfg.Seed+int64(p)+1, strat)
			continue
		}
		init, ok := cfg.Inits[p]
		if !ok {
			return nil, fmt.Errorf("%w: process %d has no initial value", ErrBadConfig, p)
		}
		proc, err := core.NewProcess(p, init, cfg.Params)
		if err != nil {
			return nil, fmt.Errorf("%w: process %d: %v", ErrBadConfig, p, err)
		}
		e.procs[p] = proc
	}
	for p := range cfg.Crashes {
		if e.byz[p] {
			return nil, fmt.Errorf("%w: process %d is both Byzantine and crashing", ErrBadConfig, p)
		}
	}
	return e, nil
}

// newCustom builds an engine around externally supplied processes (baseline
// algorithms). Params provides only N, B, F.
func newCustom(cfg Config) (*Engine, error) {
	n := cfg.Params.N
	if n <= 0 || len(cfg.Procs) != n {
		return nil, fmt.Errorf("%w: need exactly n=%d custom processes, got %d",
			ErrBadConfig, n, len(cfg.Procs))
	}
	if cfg.Sched == nil {
		return nil, fmt.Errorf("%w: custom processes require an explicit schedule", ErrBadConfig)
	}
	if cfg.Modes == nil {
		cfg.Modes = AlwaysGood(*cfg.Sched)
	}
	if cfg.Drop == nil {
		cfg.Drop = RandomDrop{P: 0.5}
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 600
	}
	e := &Engine{
		cfg:     cfg,
		n:       n,
		sched:   *cfg.Sched,
		procs:   make(map[model.PID]model.Proc, n),
		byz:     make(map[model.PID]bool, len(cfg.ProcByz)),
		crashed: make(map[model.PID]bool),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		col:     &Collector{},
		r:       1,
	}
	for p, proc := range cfg.Procs {
		e.procs[p] = proc
	}
	for p, isByz := range cfg.ProcByz {
		if isByz {
			e.byz[p] = true
		}
	}
	return e, nil
}

// correct reports whether p is correct: honest and never scheduled to crash.
func (e *Engine) correct(p model.PID) bool {
	if e.byz[p] {
		return false
	}
	_, crashes := e.cfg.Crashes[p]
	return !crashes
}

// Step executes one round: Run's loop body, exposed so a caller can time
// or inspect single rounds. It returns false, executing nothing, once
// MaxRounds is exceeded.
func (e *Engine) Step() bool {
	if int(e.r) > e.cfg.MaxRounds {
		return false
	}
	r := e.r
	_, kind := e.sched.At(r)
	mode := e.cfg.Modes(r, kind)

	// Sending step (S functions), honouring crash plans.
	sent := make(map[model.PID]map[model.PID]model.Message, e.n)
	sentCount, bytes := 0, int64(0)
	for _, p := range model.AllPIDs(e.n) {
		if e.crashed[p] {
			continue
		}
		out := e.procs[p].Send(r)
		if plan, ok := e.cfg.Crashes[p]; ok {
			switch {
			case r > plan.Round:
				continue
			case r == plan.Round:
				restricted := make(map[model.PID]model.Message, len(plan.Partial))
				for _, d := range plan.Partial {
					if m, ok := out[d]; ok {
						restricted[d] = m
					}
				}
				out = restricted
				e.crashed[p] = true
			}
		}
		if len(out) == 0 {
			continue
		}
		sent[p] = out
		sentCount += len(out)
		for _, m := range out {
			bytes += int64(EstimateSize(m))
		}
	}

	// Delivery step.
	delivered := e.deliver(r, mode, sent)
	deliveredCount := 0
	for _, mu := range delivered {
		deliveredCount += len(mu)
	}

	// Transition step (T functions).
	for _, p := range model.AllPIDs(e.n) {
		if e.crashed[p] {
			continue
		}
		mu := delivered[p]
		if mu == nil {
			mu = model.Received{}
		}
		e.procs[p].Transition(r, mu)
	}

	phase, _ := e.sched.At(r)
	e.col.Record(RoundRecord{
		Round: r, Phase: phase, Kind: kind,
		Sent: sentCount, Delivered: deliveredCount, Bytes: bytes,
		Mode: mode.String(),
	})
	e.r++
	return true
}

// deliver computes each process's received vector under the round's mode.
func (e *Engine) deliver(r model.Round, mode Mode, sent map[model.PID]map[model.PID]model.Message) map[model.PID]model.Received {
	out := make(map[model.PID]model.Received, e.n)
	for _, p := range model.AllPIDs(e.n) {
		out[p] = model.Received{}
	}
	addressed := func(src model.PID) []model.PID {
		dests := make([]model.PID, 0, len(sent[src]))
		for d := range sent[src] {
			dests = append(dests, d)
		}
		sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
		return dests
	}

	switch mode {
	case ModeCons:
		// Pcons: all correct processes receive the same vector.
		// Honest messages are delivered to all addressed destinations;
		// each Byzantine sender's messages are canonicalized (the copy
		// addressed to the lowest correct PID) and delivered to every
		// correct process, so correct vectors coincide.
		for src, msgs := range sent {
			if !e.byz[src] {
				for d, m := range msgs {
					out[d][src] = m
				}
				continue
			}
			var canonical model.Message
			found := false
			for _, d := range addressed(src) {
				if e.correct(d) {
					canonical = msgs[d]
					found = true
					break
				}
			}
			if !found {
				continue
			}
			for _, d := range model.AllPIDs(e.n) {
				if e.correct(d) {
					out[d][src] = canonical
				} else if m, ok := msgs[d]; ok {
					out[d][src] = m
				}
			}
		}
	case ModeGood:
		// Pgood: every addressed message from a correct process
		// arrives; Byzantine deliveries are as sent (equivocation
		// visible).
		for src, msgs := range sent {
			for d, m := range msgs {
				out[d][src] = m
			}
		}
	case ModeRel:
		// Prel: each correct process receives at least n-b-f of the
		// messages addressed to it; extras are dropped at random.
		minDeliver := e.n - e.cfg.Params.B - e.cfg.Params.F
		for _, dst := range model.AllPIDs(e.n) {
			var srcs []model.PID
			for src, msgs := range sent {
				if _, ok := msgs[dst]; ok {
					srcs = append(srcs, src)
				}
			}
			sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
			e.rng.Shuffle(len(srcs), func(i, j int) { srcs[i], srcs[j] = srcs[j], srcs[i] })
			keep := len(srcs)
			if keep > minDeliver {
				keep = minDeliver + e.rng.Intn(len(srcs)-minDeliver+1)
			}
			// Self-delivery is physical: always included.
			for i, src := range srcs {
				if i < keep || src == dst {
					out[dst][src] = sent[src][dst]
				}
			}
		}
	default: // ModeBad
		// Deterministic (src, dst) iteration so that equal seeds replay
		// equal drop patterns across engines (differential tests).
		for _, src := range model.AllPIDs(e.n) {
			msgs, ok := sent[src]
			if !ok {
				continue
			}
			for _, d := range addressed(src) {
				if src == d || e.cfg.Drop.Keep(r, src, d, e.rng) {
					out[d][src] = msgs[d]
				}
			}
		}
	}
	return out
}

// Run executes rounds until every correct process decides or MaxRounds is
// reached, then audits the execution.
func (e *Engine) Run() Result {
	for !e.allCorrectDecided() && e.Step() {
	}
	return e.result()
}

func (e *Engine) allCorrectDecided() bool {
	for _, p := range model.AllPIDs(e.n) {
		if !e.correct(p) {
			continue
		}
		if _, ok := e.procs[p].Decided(); !ok {
			return false
		}
	}
	return true
}

// result audits decisions against the consensus properties.
func (e *Engine) result() Result {
	res := Result{
		Decisions: make(map[model.PID]model.Value),
		DecidedAt: make(map[model.PID]model.Round),
		Rounds:    int(e.r) - 1,
		Stats:     e.col.Stats(),
		Records:   e.col.Records(),
	}
	res.AllDecided = e.allCorrectDecided()

	// Gather honest decisions.
	var first model.Value
	haveFirst := false
	for _, p := range model.AllPIDs(e.n) {
		if e.byz[p] {
			continue
		}
		proc := e.procs[p]
		v, ok := proc.Decided()
		if !ok {
			continue
		}
		res.Decisions[p] = v
		if dp, ok := proc.(interface{ DecidedAt() model.Round }); ok {
			res.DecidedAt[p] = dp.DecidedAt()
		}
		// Agreement: no two honest processes decide differently.
		if haveFirst && v != first {
			res.Violations = append(res.Violations,
				fmt.Sprintf("agreement: %q and %q both decided", first, v))
		}
		first, haveFirst = v, true
	}

	// Validity: with no Byzantine processes, decisions are initial values.
	if len(e.byz) == 0 && haveFirst {
		valid := make(map[model.Value]bool, len(e.cfg.Inits))
		for _, v := range e.cfg.Inits {
			valid[v] = true
		}
		for p, v := range res.Decisions {
			if !valid[v] {
				res.Violations = append(res.Violations,
					fmt.Sprintf("validity: process %d decided %q, not an initial value", p, v))
			}
		}
	}

	// Unanimity: if all honest initial values coincide, that value is the
	// only admissible decision (audited only when the instantiation
	// promises it).
	unanimous := e.cfg.CheckUnanimity
	var common model.Value
	firstInit := true
	for p, v := range e.cfg.Inits {
		if e.byz[p] {
			continue
		}
		if firstInit {
			common, firstInit = v, false
			continue
		}
		if v != common {
			unanimous = false
			break
		}
	}
	if unanimous && !firstInit {
		for p, v := range res.Decisions {
			if v != common {
				res.Violations = append(res.Violations,
					fmt.Sprintf("unanimity: process %d decided %q, all honest proposed %q", p, v, common))
			}
		}
	}
	return res
}

// Round returns the next round number to execute (1-based).
func (e *Engine) Round() model.Round { return e.r }

// Proc exposes a process for white-box assertions in tests.
func (e *Engine) Proc(p model.PID) model.Proc { return e.procs[p] }
