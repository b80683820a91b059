package sim

// Execution metrics of a run: rounds, message and byte counts per round
// kind. The simulator records one RoundRecord per round into a Collector,
// and the experiment harness (cmd/experiments) reads the aggregate Stats
// to regenerate the paper's complexity comparisons.

import (
	"fmt"
	"strings"

	"genconsensus/internal/model"
)

// EstimateSize returns the serialized size of a message in bytes, matching
// the framing of internal/wire byte for byte (TestEstimateMatchesWire pins
// the equivalence): fixed header plus variable vote, history, selector-set
// and relay payloads. It lets the in-memory simulator report byte costs
// comparable to the TCP runtime.
func EstimateSize(m model.Message) int {
	// kind u8 + vote length u16 + ts u64 + the three section counts (u16
	// each for history, selector set and relay batch).
	const header = 1 + 2 + 8 + 2 + 2 + 2
	size := header + len(m.Vote)
	size += len(m.History) * 10 // 2-byte value length + 8-byte phase
	for _, e := range m.History {
		size += len(e.Val)
	}
	size += len(m.Sel) * 4
	for _, s := range m.Relay {
		// 4-byte sender + nested message + 2-byte signature length.
		size += 6 + EstimateSize(s.Msg) + len(s.Sig)
	}
	return size
}

// RoundRecord captures one round of an execution.
type RoundRecord struct {
	Round     model.Round
	Phase     model.Phase
	Kind      model.RoundKind
	Sent      int
	Delivered int
	Bytes     int64
	Mode      string // predicate mode claimed by the network this round
}

// Stats aggregates an execution.
type Stats struct {
	Rounds            int
	MessagesSent      int
	MessagesDelivered int
	BytesSent         int64
	SentByKind        map[model.RoundKind]int
	BytesByKind       map[model.RoundKind]int64
}

// Collector accumulates per-round records. The zero value is ready to use.
// Collectors are not safe for concurrent use; the lock-step simulator and
// per-node transport loops each own one.
type Collector struct {
	stats   Stats
	records []RoundRecord
}

// Record appends one round's accounting.
func (c *Collector) Record(rec RoundRecord) {
	if c.stats.SentByKind == nil {
		c.stats.SentByKind = make(map[model.RoundKind]int)
		c.stats.BytesByKind = make(map[model.RoundKind]int64)
	}
	c.records = append(c.records, rec)
	c.stats.Rounds++
	c.stats.MessagesSent += rec.Sent
	c.stats.MessagesDelivered += rec.Delivered
	c.stats.BytesSent += rec.Bytes
	c.stats.SentByKind[rec.Kind] += rec.Sent
	c.stats.BytesByKind[rec.Kind] += rec.Bytes
}

// Stats returns the aggregate view.
func (c *Collector) Stats() Stats { return c.stats }

// Records returns the per-round log (not a copy; callers must not mutate).
func (c *Collector) Records() []RoundRecord { return c.records }

// String renders a compact multi-line summary.
func (c *Collector) String() string {
	var b strings.Builder
	s := c.stats
	fmt.Fprintf(&b, "rounds=%d sent=%d delivered=%d bytes=%d",
		s.Rounds, s.MessagesSent, s.MessagesDelivered, s.BytesSent)
	for _, kind := range []model.RoundKind{model.SelectionRound, model.ValidationRound, model.DecisionRound} {
		if n, ok := s.SentByKind[kind]; ok {
			fmt.Fprintf(&b, " %s=%d", kind, n)
		}
	}
	return b.String()
}
