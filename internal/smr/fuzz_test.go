package smr

import (
	"testing"

	"genconsensus/internal/model"
)

// FuzzDecodeBatch: a Byzantine proposer can put any bytes in a decided
// value, so DecodeBatch must never panic, and a value it accepts must be
// the one canonical encoding of the commands it returns.
func FuzzDecodeBatch(f *testing.F) {
	batch, err := EncodeBatch([]model.Value{"r1|SET|k|v", "r2|DEL|k", "r3|SET|x|hello world"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(batch))
	f.Add(batchMagic + "0;")
	f.Add(batchMagic + "2;1:a1:a") // duplicate entry
	f.Add(string(NoOp))
	f.Fuzz(func(t *testing.T, v string) {
		cmds, err := DecodeBatch(model.Value(v))
		if err != nil {
			return
		}
		again, err := EncodeBatch(cmds)
		if err != nil || string(again) != v {
			t.Fatalf("decoded %q re-encodes to %q (%v)", v, again, err)
		}
	})
}
