package sim

import (
	"strings"
	"testing"

	"genconsensus/internal/model"
)

func TestEstimateSize(t *testing.T) {
	small := model.Message{Kind: model.DecisionRound, Vote: "v"}
	large := model.Message{
		Kind:    model.SelectionRound,
		Vote:    "value-with-longer-name",
		TS:      3,
		History: model.NewHistory("a").Add("b", 1).Add("c", 2),
		Sel:     model.AllPIDs(7),
	}
	if EstimateSize(small) <= 0 {
		t.Error("size must be positive")
	}
	if EstimateSize(large) <= EstimateSize(small) {
		t.Error("larger message must estimate larger")
	}
	// History growth must be visible in the size (class-3 cost).
	withHist := model.Message{Vote: "v", History: model.NewHistory("v").Add("v", 1)}
	withoutHist := model.Message{Vote: "v"}
	if EstimateSize(withHist) <= EstimateSize(withoutHist) {
		t.Error("history must add to message size")
	}
}

func TestCollector(t *testing.T) {
	var c Collector
	c.Record(RoundRecord{Round: 1, Phase: 1, Kind: model.SelectionRound, Sent: 16, Delivered: 12, Bytes: 400, Mode: "cons"})
	c.Record(RoundRecord{Round: 2, Phase: 1, Kind: model.ValidationRound, Sent: 4, Delivered: 4, Bytes: 80, Mode: "good"})
	c.Record(RoundRecord{Round: 3, Phase: 1, Kind: model.DecisionRound, Sent: 16, Delivered: 16, Bytes: 320, Mode: "good"})

	s := c.Stats()
	if s.Rounds != 3 {
		t.Errorf("Rounds = %d, want 3", s.Rounds)
	}
	if s.MessagesSent != 36 {
		t.Errorf("MessagesSent = %d, want 36", s.MessagesSent)
	}
	if s.MessagesDelivered != 32 {
		t.Errorf("MessagesDelivered = %d, want 32", s.MessagesDelivered)
	}
	if s.BytesSent != 800 {
		t.Errorf("BytesSent = %d, want 800", s.BytesSent)
	}
	if s.SentByKind[model.SelectionRound] != 16 {
		t.Errorf("selection sends = %d", s.SentByKind[model.SelectionRound])
	}
	if s.BytesByKind[model.ValidationRound] != 80 {
		t.Errorf("validation bytes = %d", s.BytesByKind[model.ValidationRound])
	}
	if len(c.Records()) != 3 {
		t.Errorf("records = %d", len(c.Records()))
	}
	out := c.String()
	for _, want := range []string{"rounds=3", "sent=36", "selection=16"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() = %q missing %q", out, want)
		}
	}
}

func TestCollectorZeroValue(t *testing.T) {
	var c Collector
	if c.Stats().Rounds != 0 {
		t.Error("zero collector must report zero rounds")
	}
	if c.String() == "" {
		t.Error("zero collector String must render")
	}
}
