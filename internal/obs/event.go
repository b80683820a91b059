package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// EventLog is a structured JSONL event stream: one self-describing object
// per line carrying a per-process monotonic timestamp (ns since the log
// opened), a wall-clock timestamp (ns since the epoch, what the analyzer
// merges on), the node id, an event kind and free-form key/value fields. Events record state changes — recovery phases,
// decisions, handshakes, rejections — not per-command traffic, so the
// volume is hundreds of lines per second at most and every line is written
// (and thus crash-visible) immediately.
//
// A nil *EventLog drops events, so un-instrumented paths and metrics-off
// runs thread nil and pay one branch.
type EventLog struct {
	mu    sync.Mutex
	w     io.Writer
	c     io.Closer // nil when the log does not own the writer
	node  int
	start time.Time
	buf   []byte // line staging, reused under mu
}

// OpenEventLog appends to the JSONL file at path (creating it), tagging
// every event with the given node id.
func OpenEventLog(path string, node int) (*EventLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: opening event log: %w", err)
	}
	l := NewEventLog(f, node)
	l.c = f
	return l, nil
}

// NewEventLog writes events to w (tests, in-memory sinks). The writer must
// tolerate concurrent Write calls only through this log — EventLog
// serializes them itself.
func NewEventLog(w io.Writer, node int) *EventLog {
	return &EventLog{w: w, node: node, start: time.Now()}
}

// Emit writes one event. kvs are alternating key, value pairs; values may
// be strings, integers, booleans, durations (recorded in nanoseconds),
// errors or anything fmt can render. Emit never fails the caller: an
// unwritable log swallows the event (observability must not wedge the
// observed system).
func (l *EventLog) Emit(kind string, kvs ...any) {
	if l == nil {
		return
	}
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buf[:0]
	b = append(b, `{"ts":`...)
	b = strconv.AppendInt(b, int64(now.Sub(l.start)), 10)
	b = append(b, `,"wall":`...)
	b = strconv.AppendInt(b, now.UnixNano(), 10)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(l.node), 10)
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, kind)
	for i := 0; i+1 < len(kvs); i += 2 {
		key, ok := kvs[i].(string)
		if !ok {
			key = fmt.Sprint(kvs[i])
		}
		b = append(b, ',')
		b = appendJSONString(b, key)
		b = append(b, ':')
		b = appendJSONValue(b, kvs[i+1])
	}
	b = append(b, '}', '\n')
	l.buf = b
	_, _ = l.w.Write(b)
}

// Close flushes and closes the underlying file, if the log owns one.
func (l *EventLog) Close() error {
	if l == nil || l.c == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c.Close()
}

// appendJSONString appends s as a JSON string. Event kinds and keys are
// plain ASCII identifiers; the escape path handles the rest correctly if
// slowly.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			enc, _ := json.Marshal(s)
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONValue appends one field value.
func appendJSONValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		return appendJSONString(b, x)
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case uint64:
		return strconv.AppendUint(b, x, 10)
	case uint32:
		return strconv.AppendUint(b, uint64(x), 10)
	case uint16:
		return strconv.AppendUint(b, uint64(x), 10)
	case bool:
		return strconv.AppendBool(b, x)
	case time.Duration:
		return strconv.AppendInt(b, int64(x), 10)
	case float64:
		return strconv.AppendFloat(b, x, 'f', -1, 64)
	case error:
		return appendJSONString(b, x.Error())
	default:
		return appendJSONString(b, fmt.Sprint(x))
	}
}

// Event is one decoded event-log line.
type Event struct {
	TS     int64          // monotonic ns since that node's log opened
	Wall   int64          // wall-clock ns since the epoch (merge key)
	Node   int            // emitting node id
	Kind   string         // event kind, e.g. "decide", "recover.local"
	Fields map[string]any // remaining key/value fields
}

// Field returns a field as a string ("" when absent).
func (e Event) Field(key string) string {
	v, ok := e.Fields[key]
	if !ok {
		return ""
	}
	if s, isStr := v.(string); isStr {
		return s
	}
	return fmt.Sprint(v)
}

// Int returns a numeric field as int64 (0 when absent or non-numeric).
func (e Event) Int(key string) int64 {
	if f, ok := e.Fields[key].(float64); ok {
		return int64(f)
	}
	return 0
}

// ReadEvents decodes a JSONL event stream, skipping blank lines. A
// malformed line (a torn final write from a crashed node) ends the stream
// without error — everything before it is returned. The "group" header of
// logs written while a node ran several consensus groups is dropped.
func ReadEvents(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var events []Event
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var raw map[string]any
		if err := json.Unmarshal(line, &raw); err != nil {
			break
		}
		e := Event{Fields: raw}
		if f, ok := raw["ts"].(float64); ok {
			e.TS = int64(f)
		}
		if f, ok := raw["wall"].(float64); ok {
			e.Wall = int64(f)
		}
		if f, ok := raw["node"].(float64); ok {
			e.Node = int(f)
		}
		if s, ok := raw["kind"].(string); ok {
			e.Kind = s
		}
		for _, k := range []string{"ts", "wall", "node", "group", "kind"} {
			delete(raw, k)
		}
		events = append(events, e)
	}
	return events, sc.Err()
}

// ReadEventFile reads one node's events.log.
func ReadEventFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEvents(f)
}

// FieldKeys returns an event's field names sorted, for deterministic
// rendering.
func (e Event) FieldKeys() []string {
	keys := make([]string, 0, len(e.Fields))
	for k := range e.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
