package genconsensus

import (
	"fmt"

	"genconsensus/internal/sim"
)

// Result reports a simulated execution: who decided what and when, whether
// all correct processes decided, any safety violations detected by the
// auditor, and traffic statistics.
type Result = sim.Result

// Stats aggregates traffic accounting for an execution.
type Stats = sim.Stats

// RunConfig assembles a simulation run; build it with RunOptions.
type runConfig struct {
	seed           int64
	maxRounds      int
	byzantine      map[PID]Strategy
	crashes        map[PID]sim.CrashPlan
	modes          sim.ModeFunc
	drop           sim.Dropper
	goodFrom       Phase
	rel            bool
	alwaysBad      bool
	checkUnanimity bool
}

// RunOption configures a simulation run.
type RunOption func(*runConfig) error

// WithSeed fixes the run's randomness; identical (spec, inits, options,
// seed) replay identical executions.
func WithSeed(seed int64) RunOption {
	return func(c *runConfig) error {
		c.seed = seed
		return nil
	}
}

// WithMaxRounds bounds the execution (default 600).
func WithMaxRounds(k int) RunOption {
	return func(c *runConfig) error {
		if k <= 0 {
			return fmt.Errorf("genconsensus: max rounds must be positive, got %d", k)
		}
		c.maxRounds = k
		return nil
	}
}

// WithByzantine makes process p Byzantine, driven by the strategy.
func WithByzantine(p PID, s Strategy) RunOption {
	return func(c *runConfig) error {
		if c.byzantine == nil {
			c.byzantine = map[PID]Strategy{}
		}
		c.byzantine[p] = s
		return nil
	}
}

// WithCrash crashes process p before its round-r send (benign fault).
func WithCrash(p PID, r Round) RunOption {
	return func(c *runConfig) error {
		if c.crashes == nil {
			c.crashes = map[PID]sim.CrashPlan{}
		}
		c.crashes[p] = sim.CrashPlan{Round: r}
		return nil
	}
}

// WithCrashPartial crashes process p during its round-r send: only the given
// destinations receive the final message.
func WithCrashPartial(p PID, r Round, dests ...PID) RunOption {
	return func(c *runConfig) error {
		if c.crashes == nil {
			c.crashes = map[PID]sim.CrashPlan{}
		}
		c.crashes[p] = sim.CrashPlan{Round: r, Partial: dests}
		return nil
	}
}

// WithGoodFromPhase makes rounds before phase phi0 bad (adversarial
// deliveries) and provides Pcons/Pgood from phase phi0 on — the canonical
// partial-synchrony schedule. Default is phi0 = 1 (synchronous run).
func WithGoodFromPhase(phi0 Phase) RunOption {
	return func(c *runConfig) error {
		if phi0 < 1 {
			return fmt.Errorf("genconsensus: good phase must be ≥ 1, got %d", phi0)
		}
		c.goodFrom = phi0
		return nil
	}
}

// WithRel runs every round under the Prel predicate (randomized
// algorithms, §6).
func WithRel() RunOption {
	return func(c *runConfig) error {
		c.rel = true
		return nil
	}
}

// WithAlwaysBad never provides a good phase: termination is not expected,
// safety is still audited.
func WithAlwaysBad() RunOption {
	return func(c *runConfig) error {
		c.alwaysBad = true
		return nil
	}
}

// WithDropProbability sets the bad-round delivery probability (default 0.5).
func WithDropProbability(keepP float64) RunOption {
	return func(c *runConfig) error {
		if keepP < 0 || keepP > 1 {
			return fmt.Errorf("genconsensus: keep probability %v out of [0,1]", keepP)
		}
		c.drop = sim.RandomDrop{P: keepP}
		return nil
	}
}

// WithPartition splits bad-round deliveries along the given groups.
func WithPartition(groups ...[]PID) RunOption {
	return func(c *runConfig) error {
		c.drop = sim.Partition{Groups: groups}
		return nil
	}
}

// WithUnanimityCheck audits the Unanimity property (enable for
// instantiations that promise it).
func WithUnanimityCheck() RunOption {
	return func(c *runConfig) error {
		c.checkUnanimity = true
		return nil
	}
}

// Run executes the spec on n processes with the given initial values under
// the simulated partially synchronous network and audits the outcome.
// Byzantine processes need no initial value.
func Run(spec *Spec, inits map[PID]Value, opts ...RunOption) (Result, error) {
	cfg := runConfig{seed: 1, goodFrom: 1}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return Result{}, err
		}
	}
	modes := cfg.modes
	switch {
	case modes != nil:
	case cfg.rel:
		modes = sim.AlwaysRel()
	case cfg.alwaysBad:
		modes = sim.AlwaysBad()
	default:
		modes = sim.GoodFromPhase(spec.Params.Schedule(), cfg.goodFrom)
	}
	simCfg := sim.Config{
		Params:         spec.Params,
		Inits:          inits,
		Byzantine:      cfg.byzantine,
		Crashes:        cfg.crashes,
		Modes:          modes,
		Drop:           cfg.drop,
		Seed:           cfg.seed,
		MaxRounds:      cfg.maxRounds,
		CheckUnanimity: cfg.checkUnanimity || (spec.Unanimity && cfg.byzantine == nil),
	}
	engine, err := sim.New(simCfg)
	if err != nil {
		return Result{}, err
	}
	return engine.Run(), nil
}

// SplitInits assigns values round-robin to the n processes: a convenient
// input generator for experiments ("a", "b", "a", ...).
func SplitInits(n int, values ...Value) map[PID]Value {
	out := make(map[PID]Value, n)
	for i := 0; i < n; i++ {
		out[PID(i)] = values[i%len(values)]
	}
	return out
}

// UnanimousInits proposes the same value everywhere.
func UnanimousInits(n int, v Value) map[PID]Value {
	out := make(map[PID]Value, n)
	for i := 0; i < n; i++ {
		out[PID(i)] = v
	}
	return out
}
