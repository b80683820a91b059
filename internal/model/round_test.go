package model

import (
	"testing"
)

func TestBroadcast(t *testing.T) {
	msg := Message{Kind: DecisionRound, Vote: "v"}
	out := Broadcast(msg, []PID{0, 2, 5})
	if len(out) != 3 {
		t.Fatalf("len = %d, want 3", len(out))
	}
	for _, p := range []PID{0, 2, 5} {
		if out[p].Vote != "v" {
			t.Errorf("dest %d missing message", p)
		}
	}
	if _, ok := out[1]; ok {
		t.Error("unexpected destination 1")
	}
	if got := Broadcast(msg, nil); len(got) != 0 {
		t.Errorf("empty destination list: %v", got)
	}
}
