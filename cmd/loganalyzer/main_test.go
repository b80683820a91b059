package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"genconsensus/internal/obs"
)

// TestRoundTrip writes three nodes' event logs through the real EventLog
// encoder, merges them through the analyzer entry point, and checks the
// rendered timeline and summary reflect every event — the JSONL encode →
// decode → merge → summarize loop end to end.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for node := 0; node < 3; node++ {
		sub := filepath.Join(dir, "node-"+string(rune('0'+node)))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		l, err := obs.OpenEventLog(filepath.Join(sub, "events.log"), node)
		if err != nil {
			t.Fatal(err)
		}
		l.Emit("start", "n", 3)
		l.Emit("decide", "instance", uint64(node+1), "cmds", 2)
		if node == 2 {
			l.Emit("recover.local", "instance", uint64(7))
			l.Emit("start", "n", 3) // restart
			l.Emit("decide", "instance", uint64(9), "cmds", 1)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// Wall-clock merge keys need distinct timestamps across nodes.
		time.Sleep(2 * time.Millisecond)
	}

	var out strings.Builder
	if err := run(&out, []string{dir}, true, true); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()

	for _, want := range []string{
		"node=0", "node=1", "node=2",
		"decide", "recover.local",
		"(2 starts: crashed and recovered)",
		"instance=9",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}

	// The directory walk found all three logs and the merge kept every
	// event: 3 starts + 3 decides + 1 recover + 1 restart start + 1 decide.
	events := 0
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, "node=") {
			events++
		}
	}
	if events != 9 {
		t.Errorf("timeline has %d events, want 9:\n%s", events, got)
	}
}

// TestRoundTripValues checks decoded field values survive the trip exactly.
func TestRoundTripValues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	l, err := obs.OpenEventLog(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	l.Emit("decide", "instance", uint64(42), "cmds", 7,
		"why", `quote " and \ back`, "ok", true, "lat", 1500*time.Microsecond)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEventFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	e := events[0]
	if e.Node != 4 || e.Kind != "decide" {
		t.Errorf("header mismatch: %+v", e)
	}
	if e.Int("instance") != 42 || e.Int("cmds") != 7 || e.Int("lat") != 1500000 {
		t.Errorf("numeric fields mismatch: %+v", e.Fields)
	}
	if e.Field("why") != `quote " and \ back` {
		t.Errorf("escaped string mismatch: %q", e.Field("why"))
	}
	if e.Fields["ok"] != true {
		t.Errorf("bool mismatch: %v", e.Fields["ok"])
	}
}
