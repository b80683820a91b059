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
// Scheduling invariants:
//
//   - Disjoint proposals: in-flight instance number i proposes the queue
//     slice starting after everything claimed by instances started before
//     it (Replica.ProposalAt), so a window of W instances drains W batches
//     instead of deciding the same head batch W times.
//   - In-order commit: decisions may arrive out of instance order (a later
//     instance may finish first); they are buffered and applied to the
//     replicas strictly in instance order, so every log is the same
//     sequence a serial execution would produce.
//
// A Pipeline is driven by one scheduler goroutine (Drain); Submit and the
// fault injectors may race with it freely. Faults injected mid-drain take
// effect for instances started afterwards, exactly as with RunInstance.
type Pipeline struct {
	c     *Cluster
	depth int

	inflight map[uint64]*sim.Engine
	order    []uint64 // started, not yet committed, ascending
	decided  map[uint64]model.Value
	claims   map[uint64]int // per-instance queue claims, held start → commit
	claimed  int            // sum of claims: queue positions owned by uncommitted instances

	stats PipelineStats
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
	// Committed counts commands applied to the log (NoOp decisions add 0).
	Committed int
	// MaxInFlight is the largest window actually reached.
	MaxInFlight int
	// OutOfOrder counts decisions that arrived before an earlier
	// instance's decision and had to be buffered.
	OutOfOrder int
}

// NewPipeline builds a scheduler of the given depth over the cluster.
// Depth 1 reproduces the serial RunInstance loop. The pipeline and the
// cluster's own RunInstance/Drain must not run concurrently.
func NewPipeline(c *Cluster, depth int) *Pipeline {
	if depth < 1 {
		depth = 1
	}
	return &Pipeline{
		c:        c,
		depth:    depth,
		inflight: make(map[uint64]*sim.Engine),
		decided:  make(map[uint64]model.Value),
		claims:   make(map[uint64]int),
	}
}

// Stats returns a copy of the accumulated statistics.
func (p *Pipeline) Stats() PipelineStats { return p.stats }

// start launches one instance over the queue slice after every current
// claim.
func (p *Pipeline) start() error {
	engine, instance, claim, err := p.c.startEngine(p.claimed, 0)
	if err != nil {
		return err
	}
	p.inflight[instance] = engine
	p.order = append(p.order, instance)
	p.claims[instance] = claim
	p.claimed += claim
	if len(p.inflight) > p.stats.MaxInFlight {
		p.stats.MaxInFlight = len(p.inflight)
	}
	return nil
}

// tick advances every in-flight engine one simulated round, in ascending
// instance order (p.order is ascending and holds every in-flight id).
func (p *Pipeline) tick() {
	for _, id := range p.order {
		if engine, ok := p.inflight[id]; ok {
			engine.Step()
		}
	}
	p.stats.Ticks++
}

// harvest collects finished engines into the out-of-order decision buffer.
func (p *Pipeline) harvest() error {
	for _, id := range p.order {
		engine, ok := p.inflight[id]
		if !ok || !engine.Done() {
			continue
		}
		decided, err := decisionOf(id, engine.Result())
		if err != nil {
			return err
		}
		delete(p.inflight, id)
		p.decided[id] = decided
		p.stats.Instances++
		// Out of order means an earlier-started instance is still running:
		// this decision must wait in the buffer for it.
		for _, earlier := range p.order {
			if earlier >= id {
				break
			}
			if _, running := p.inflight[earlier]; running {
				p.stats.OutOfOrder++
				break
			}
		}
	}
	return nil
}

// commitReady applies buffered decisions strictly in instance order: the
// head of the started order commits only once its decision is in, holding
// back any later instances that finished earlier.
func (p *Pipeline) commitReady() {
	for len(p.order) > 0 {
		head := p.order[0]
		d, ok := p.decided[head]
		if !ok {
			return
		}
		delete(p.decided, head)
		p.order = p.order[1:]
		p.c.commitDecision(head, d)
		p.stats.Committed += BatchWeight(d)
		// The claim is released only now: until the commit removed its
		// commands from the pending queues, the slice was still owned.
		// Releasing the claim as taken (not "as many commands as the
		// decided batch actually removed") is the liveness-first policy
		// documented on CommitQueue: the offset provably returns to zero
		// when the window drains, at the price of transient duplicate
		// proposals when a decided batch differs from the local slice —
		// duplicates are safe (state machines dedup by request id).
		p.claimed -= p.claims[head]
		delete(p.claims, head)
		if p.claimed < 0 {
			p.claimed = 0
		}
	}
}

// Drain starts, overlaps and commits instances until every queued command
// is decided, bounded by maxInstances started. It is the pipelined
// counterpart of Cluster.Drain.
func (p *Pipeline) Drain(maxInstances int) error {
	started := 0
	for {
		// One backlog snapshot per scheduling pass: starting an instance
		// claims queue positions but consumes nothing, so the snapshot
		// stays valid across the inner loop (concurrent Submits only add).
		backlog := p.c.maxPendingLive()
		for len(p.inflight) < p.depth && started < maxInstances {
			if backlog-p.claimed <= 0 {
				break
			}
			if err := p.start(); err != nil {
				return err
			}
			started++
		}
		if len(p.inflight) == 0 {
			if p.c.PendingTotal() == 0 {
				return nil
			}
			if started >= maxInstances {
				return fmt.Errorf("smr: %d commands still pending after %d pipelined instances",
					p.c.PendingTotal(), started)
			}
			continue
		}
		p.tick()
		if err := p.harvest(); err != nil {
			return err
		}
		p.commitReady()
	}
}
