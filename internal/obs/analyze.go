package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Timeline analysis: merge per-node event logs into one causal timeline
// and reduce it to per-phase summaries — the log→timeline loop behind
// cmd/loganalyzer and the e2e assertions. Events are ordered by wall-clock
// timestamp; within the clock's resolution that order is causal enough for
// triage (each node's own events are already monotonic, and cross-node
// effects — a recovery observing a peer's checkpoint — sit well apart from
// their causes on any realistic clock skew).

// Timeline is a wall-clock-ordered merge of per-node event streams.
type Timeline struct {
	Events []Event
}

// MergeTimeline interleaves per-node event slices into one timeline,
// ordered by wall timestamp; ties break by node id then by each node's
// monotonic timestamp (preserving intra-node order).
func MergeTimeline(perNode ...[]Event) Timeline {
	total := 0
	for _, evs := range perNode {
		total += len(evs)
	}
	merged := make([]Event, 0, total)
	for _, evs := range perNode {
		merged = append(merged, evs...)
	}
	sort.SliceStable(merged, func(i, j int) bool {
		a, b := merged[i], merged[j]
		if a.Wall != b.Wall {
			return a.Wall < b.Wall
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.TS < b.TS
	})
	return Timeline{Events: merged}
}

// RecoveryWindow is one node's recovery episode: from its first recovery
// event after (re)start to the moment it resumed deciding.
type RecoveryWindow struct {
	Node     int
	Start    int64 // wall ns of the first recovery event
	End      int64 // wall ns of the node's next decide (0 = never resumed)
	Kinds    []string
	Instance uint64 // highest instance restored during the window
}

// Duration returns the window's length (0 when the node never resumed).
func (w RecoveryWindow) Duration() time.Duration {
	if w.End == 0 {
		return 0
	}
	return time.Duration(w.End - w.Start)
}

// Summary condenses one timeline.
type Summary struct {
	Nodes       map[int]int    // node id → event count
	Kinds       map[string]int // event kind → count
	Span        time.Duration  // wall-clock span first→last event
	Recoveries  []RecoveryWindow
	Starts      map[int]int // node id → "start" events (restarts show as >1)
	AuthRejects int
	CatchUps    int
	Stalls      int
}

// recoveryKinds marks the event kinds that open or extend a recovery
// window.
func recoveryKind(kind string) bool {
	switch kind {
	case "recover.local", "recover.peer", "recover.none", "wal.replay",
		"catchup.snapshot":
		return true
	}
	return false
}

// Summarize reduces a merged timeline to its per-phase summary.
func Summarize(t Timeline) Summary {
	s := Summary{
		Nodes:  make(map[int]int),
		Kinds:  make(map[string]int),
		Starts: make(map[int]int),
	}
	if len(t.Events) == 0 {
		return s
	}
	s.Span = time.Duration(t.Events[len(t.Events)-1].Wall - t.Events[0].Wall)
	open := make(map[int]*RecoveryWindow) // node → window awaiting its End
	for _, e := range t.Events {
		s.Nodes[e.Node]++
		s.Kinds[e.Kind]++
		switch {
		case e.Kind == "decide":
			if w, ok := open[e.Node]; ok {
				w.End = e.Wall
				s.Recoveries = append(s.Recoveries, *w)
				delete(open, e.Node)
			}
		case e.Kind == "start":
			s.Starts[e.Node]++
		case e.Kind == "auth.reject":
			s.AuthRejects++
		case e.Kind == "catchup.decision" || e.Kind == "catchup.snapshot":
			s.CatchUps++
		case e.Kind == "stall":
			s.Stalls++
		}
		if recoveryKind(e.Kind) {
			w, ok := open[e.Node]
			if !ok {
				w = &RecoveryWindow{Node: e.Node, Start: e.Wall}
				open[e.Node] = w
			}
			w.Kinds = append(w.Kinds, e.Kind)
			if inst := uint64(e.Int("instance")); inst > w.Instance {
				w.Instance = inst
			}
		}
	}
	for _, w := range open {
		s.Recoveries = append(s.Recoveries, *w) // never resumed: End stays 0
	}
	sort.Slice(s.Recoveries, func(i, j int) bool {
		if s.Recoveries[i].Start != s.Recoveries[j].Start {
			return s.Recoveries[i].Start < s.Recoveries[j].Start
		}
		return s.Recoveries[i].Node < s.Recoveries[j].Node
	})
	return s
}

// WriteTimeline renders the merged timeline, one event per line, with
// timestamps relative to the first event.
func WriteTimeline(w io.Writer, t Timeline) error {
	if len(t.Events) == 0 {
		_, err := fmt.Fprintln(w, "(no events)")
		return err
	}
	base := t.Events[0].Wall
	for _, e := range t.Events {
		rel := time.Duration(e.Wall - base)
		line := fmt.Sprintf("%12.6fs node=%d %s", rel.Seconds(), e.Node, e.Kind)
		for _, k := range e.FieldKeys() {
			line += fmt.Sprintf(" %s=%v", k, e.Fields[k])
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// WriteSummary renders the per-phase summary.
func WriteSummary(w io.Writer, s Summary) error {
	nodes := make([]int, 0, len(s.Nodes))
	for n := range s.Nodes {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	fmt.Fprintf(w, "nodes: %d, span: %.3fs\n", len(nodes), s.Span.Seconds())
	for _, n := range nodes {
		restarts := ""
		if s.Starts[n] > 1 {
			restarts = fmt.Sprintf(" (%d starts: crashed and recovered)", s.Starts[n])
		}
		fmt.Fprintf(w, "  node %d: %d events%s\n", n, s.Nodes[n], restarts)
	}
	fmt.Fprintf(w, "auth rejections: %d, catch-ups: %d, stalls: %d\n",
		s.AuthRejects, s.CatchUps, s.Stalls)
	for _, r := range s.Recoveries {
		if r.End != 0 {
			fmt.Fprintf(w, "recovery: node %d in %.3fs (%v, through instance %d)\n",
				r.Node, r.Duration().Seconds(), r.Kinds, r.Instance)
		} else {
			fmt.Fprintf(w, "recovery: node %d did not resume deciding (%v)\n", r.Node, r.Kinds)
		}
	}
	kinds := make([]string, 0, len(s.Kinds))
	for k := range s.Kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-20s %d\n", k, s.Kinds[k])
	}
	return nil
}
