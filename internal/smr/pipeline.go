package smr

import (
	"fmt"

	"genconsensus/internal/model"
	"genconsensus/internal/sim"
)

// Pipeline runs up to W consensus instances of a Cluster concurrently,
// PBFT-style: instance k+1 executes its selection rounds while instance k
// is still deciding, so the per-instance round latency is paid once per
// window instead of once per instance. Each tick steps every in-flight
// engine one simulated round (true overlap in simulated time — W instances
// finish in roughly the rounds of one, not W times that).
//
// Claims and commits go through each member's CommitQueue, exactly as the
// TCP node's dispatcher does:
//
//   - One start rule: an instance starts when some live member's queue is
//     Ready (CommitQueue.Ready) — any unclaimed command with nothing in
//     flight, a full batch otherwise — so W is a cap reached under
//     backlog, not the window at any load.
//   - Disjoint proposals: starting an instance claims every live member's
//     first unclaimed queue slice (CommitQueue.Claim), so a window of W
//     instances drains W batches instead of deciding the same head batch W
//     times.
//   - In-order commit: a finished instance's decision is delivered to every
//     live member's queue (CommitQueue.Deliver), which logs it write-ahead,
//     buffers it while an earlier instance is still running and commits
//     strictly in instance order, so every log is the same sequence a
//     serial execution would produce.
//
// A Pipeline is driven by one scheduler goroutine (Drain); Submit and the
// fault injectors may race with it freely. Faults injected mid-drain take
// effect for instances started afterwards. Cluster.RunInstance and
// Cluster.Drain are this scheduler at depth 1.
type Pipeline struct {
	c     *Cluster
	depth int

	inflight []flight // started, undecided; ascending instance order

	stats PipelineStats
}

// flight is one started, undecided instance.
type flight struct {
	instance uint64
	engine   *sim.Engine
}

// PipelineStats aggregates one pipeline's execution for benchmarks and
// tests. Ticks is the simulated-time axis: one tick is one network round
// for every in-flight instance, so commands/tick is the throughput a real
// deployment would see with round latency dominating.
type PipelineStats struct {
	// Ticks counts simulated rounds during which at least one instance
	// was in flight.
	Ticks int
	// Instances counts decided instances.
	Instances int
	// Committed counts the commands of decided instances (NoOp decisions
	// add 0).
	Committed int
	// MaxInFlight is the largest window actually reached.
	MaxInFlight int
	// OutOfOrder counts decisions that arrived before an earlier
	// instance's decision and had to be buffered.
	OutOfOrder int
}

// NewPipeline builds a scheduler of the given depth over the cluster.
// Depth 1 is the serial RunInstance loop. Two schedulers over one cluster
// must not run concurrently.
func NewPipeline(c *Cluster, depth int) *Pipeline {
	return &Pipeline{c: c, depth: max(depth, 1)}
}

// Stats returns a copy of the accumulated statistics.
func (p *Pipeline) Stats() PipelineStats { return p.stats }

// start launches the next instance over every live member's first
// unclaimed queue slice.
func (p *Pipeline) start() error {
	engine, instance, err := p.c.startEngine()
	if err != nil {
		return err
	}
	p.inflight = append(p.inflight, flight{instance, engine})
	p.stats.MaxInFlight = max(p.stats.MaxInFlight, len(p.inflight))
	return nil
}

// tick advances every in-flight engine one simulated round, in ascending
// instance order.
func (p *Pipeline) tick() {
	for _, f := range p.inflight {
		f.engine.Step()
	}
	p.stats.Ticks++
}

// harvest delivers every finished instance's decision to the live members'
// commit queues, in ascending instance order, and returns the last value
// delivered (model.NoValue when nothing finished).
func (p *Pipeline) harvest() (model.Value, error) {
	last := model.NoValue
	running := p.inflight[:0]
	for _, f := range p.inflight {
		if !f.engine.Done() {
			running = append(running, f)
			continue
		}
		decided, err := decisionOf(f.instance, f.engine.Result())
		if err != nil {
			return model.NoValue, err
		}
		if len(running) > 0 {
			// An earlier-started instance is still running: the queues
			// buffer this decision behind it.
			p.stats.OutOfOrder++
		}
		last = p.c.deliver(f.instance, decided)
		p.stats.Instances++
		p.stats.Committed += BatchWeight(last)
	}
	p.inflight = running
	return last, nil
}

// run executes exactly one instance to its decision, whatever the queues
// hold: Cluster.RunInstance.
func (p *Pipeline) run() (model.Value, error) {
	if err := p.start(); err != nil {
		return model.NoValue, err
	}
	for {
		p.tick()
		if decided, err := p.harvest(); err != nil || len(p.inflight) == 0 {
			return decided, err
		}
	}
}

// Drain starts, overlaps and commits instances until every queued command
// is decided, bounded by maxInstances started. An instance starts while the
// window has room and some live member's queue is Ready — the node
// dispatcher's test: the first instance for any unclaimed command, each
// further one only for a full batch.
func (p *Pipeline) Drain(maxInstances int) error {
	started := 0
	for {
		for len(p.inflight) < p.depth && started < maxInstances && p.c.ready(len(p.inflight)) {
			if err := p.start(); err != nil {
				return err
			}
			started++
		}
		if len(p.inflight) == 0 {
			pending := p.c.PendingTotal()
			if pending == 0 {
				return nil
			}
			// A Submit that raced the start test is picked up next pass;
			// pending commands nobody can claim mean a stalled queue.
			if started >= maxInstances || !p.c.ready(0) {
				return fmt.Errorf("smr: %d commands still pending after %d instances", pending, started)
			}
			continue
		}
		p.tick()
		if _, err := p.harvest(); err != nil {
			return err
		}
	}
}
