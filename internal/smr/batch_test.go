package smr

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"genconsensus/internal/model"
)

func TestBatchRoundTrip(t *testing.T) {
	cmds := []model.Value{"r1|SET|k|v", "r2|DEL|k", "r3|SET|x|hello world"}
	batch, err := EncodeBatch(cmds)
	if err != nil {
		t.Fatal(err)
	}
	if !IsBatch(batch) {
		t.Fatal("encoded batch not recognized")
	}
	got, err := DecodeBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cmds) {
		t.Fatalf("decoded %d commands, want %d", len(got), len(cmds))
	}
	for i := range cmds {
		if got[i] != cmds[i] {
			t.Fatalf("entry %d = %q, want %q", i, got[i], cmds[i])
		}
	}
}

// Property test: any sequence of admissible random commands round-trips
// through the codec, and the encoding is deterministic.
func TestBatchRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20100628))
	alphabet := "abcdefghij KLMNOP|:;0123456789é世"
	randCmd := func() model.Value {
		n := 1 + rng.Intn(40)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return model.Value(b.String())
	}
	for run := 0; run < 200; run++ {
		count := 1 + rng.Intn(MaxBatchSize)
		seen := make(map[model.Value]bool, count)
		cmds := make([]model.Value, 0, count)
		for len(cmds) < count {
			c := randCmd()
			if c == NoOp || seen[c] {
				continue
			}
			seen[c] = true
			cmds = append(cmds, c)
		}
		batch, err := EncodeBatch(cmds)
		if err != nil {
			t.Fatalf("run %d: encode: %v", run, err)
		}
		again, err := EncodeBatch(cmds)
		if err != nil || again != batch {
			t.Fatalf("run %d: encoding not deterministic", run)
		}
		got, err := DecodeBatch(batch)
		if err != nil {
			t.Fatalf("run %d: decode: %v", run, err)
		}
		if len(got) != len(cmds) {
			t.Fatalf("run %d: %d commands decoded, want %d", run, len(got), len(cmds))
		}
		for i := range cmds {
			if got[i] != cmds[i] {
				t.Fatalf("run %d: entry %d = %q, want %q", run, i, got[i], cmds[i])
			}
		}
	}
}

// An empty batch cannot be encoded; the idle proposal is NoOp, never an
// empty batch, and the two are distinct values.
func TestBatchEmptyVsNoOp(t *testing.T) {
	if _, err := EncodeBatch(nil); !errors.Is(err, ErrBatchEmpty) {
		t.Errorf("EncodeBatch(nil) err = %v, want ErrBatchEmpty", err)
	}
	if _, err := EncodeBatch([]model.Value{}); !errors.Is(err, ErrBatchEmpty) {
		t.Errorf("EncodeBatch(empty) err = %v, want ErrBatchEmpty", err)
	}
	r := NewReplica(0, nil)
	if p := r.Proposal(); p != NoOp || IsBatch(p) {
		t.Errorf("idle proposal = %q, want plain NoOp", p)
	}
	if IsBatch(NoOp) {
		t.Error("NoOp must not look like a batch")
	}
	// A forged "batch of zero commands" is rejected on decode.
	if _, err := DecodeBatch(model.Value(batchMagic + "0;")); err == nil {
		t.Error("zero-count batch accepted")
	}
}

func TestBatchRejectsInadmissibleEntries(t *testing.T) {
	nested, err := EncodeBatch([]model.Value{"inner"})
	if err != nil {
		t.Fatal(err)
	}
	for name, cmds := range map[string][]model.Value{
		"noop entry":      {"a", NoOp},
		"empty entry":     {"a", model.NoValue},
		"nested batch":    {"a", nested},
		"duplicate entry": {"a", "b", "a"},
	} {
		if _, err := EncodeBatch(cmds); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBatchSizeLimits(t *testing.T) {
	tooMany := make([]model.Value, MaxBatchSize+1)
	for i := range tooMany {
		tooMany[i] = model.Value(fmt.Sprintf("cmd-%d", i))
	}
	if _, err := EncodeBatch(tooMany); !errors.Is(err, ErrBatchTooLarge) {
		t.Errorf("oversized count err = %v, want ErrBatchTooLarge", err)
	}
	huge := []model.Value{model.Value(strings.Repeat("x", MaxBatchBytes))}
	if _, err := EncodeBatch(huge); !errors.Is(err, ErrBatchTooLarge) {
		t.Errorf("oversized bytes err = %v, want ErrBatchTooLarge", err)
	}
}

// Byzantine-forged encodings must all be rejected by the strict decoder.
func TestBatchDecodeRejectsForgeries(t *testing.T) {
	good, err := EncodeBatch([]model.Value{"abc", "defg"})
	if err != nil {
		t.Fatal(err)
	}
	forgeries := map[string]model.Value{
		"no magic":          "3:abc",
		"count mismatch":    model.Value(batchMagic + "3;3:abc4:defg"),
		"trailing bytes":    good + "junk",
		"truncated entry":   good[:len(good)-1],
		"bad length digit":  model.Value(batchMagic + "1;x:abc"),
		"zero length":       model.Value(batchMagic + "1;0:"),
		"leading zero":      model.Value(batchMagic + "01;3:abc"),
		"huge count":        model.Value(batchMagic + "999999;3:abc"),
		"missing separator": model.Value(batchMagic + "1"),
		"noop inside":       model.Value(batchMagic + "1;8:__noop__"),
	}
	for name, v := range forgeries {
		if _, err := DecodeBatch(v); err == nil {
			t.Errorf("%s: forged batch %q accepted", name, v)
		}
	}
	if _, err := DecodeBatch(good); err != nil {
		t.Fatalf("control: valid batch rejected: %v", err)
	}
}

func TestCommandsDegradesGracefully(t *testing.T) {
	// Plain command → singleton.
	if cmds := Commands("plain"); len(cmds) != 1 || cmds[0] != "plain" {
		t.Errorf("Commands(plain) = %v", cmds)
	}
	// Valid batch → decoded sequence.
	batch, _ := EncodeBatch([]model.Value{"a", "b"})
	if cmds := Commands(batch); len(cmds) != 2 {
		t.Errorf("Commands(batch) = %v", cmds)
	}
	// Invalid batch-prefixed value → opaque singleton (deterministic
	// everywhere, rejected by the application).
	junk := model.Value(batchMagic + "junk")
	if cmds := Commands(junk); len(cmds) != 1 || cmds[0] != junk {
		t.Errorf("Commands(junk) = %v", cmds)
	}
}
