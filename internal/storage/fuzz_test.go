package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"genconsensus/internal/model"
)

// FuzzWALOpen: whatever bytes sit in wal.log, opening the log never panics
// (a file without the WAL header is refused, not misread); what replays is
// exactly the clean record prefix of those bytes, and the file is cut back
// to it; an append after recovery survives a reopen; and a truncation at
// any watermark leaves exactly the header plus the records above it, in
// append order, which a reopen replays.
func FuzzWALOpen(f *testing.F) {
	log := []byte(walHeader)
	for i := uint64(1); i <= 4; i++ {
		log = append(log, encodeRecord(i, model.Value(fmt.Sprintf("value-%d", i)))...)
	}
	first := log[len(walHeader) : len(walHeader)+len(encodeRecord(1, "value-1"))]
	f.Add(log, uint64(2))
	f.Add(log[:len(log)-5], uint64(0))                                        // torn tail
	f.Add(append(slices.Clone(log), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0), uint64(4)) // garbage length prefix
	f.Add(append(slices.Clone(log), first...), uint64(1))                     // duplicate instance
	f.Add([]byte(walHeader), uint64(0))
	f.Add([]byte{}, uint64(1))
	f.Fuzz(func(t *testing.T, data []byte, through uint64) {
		dir := t.TempDir()
		path := filepath.Join(dir, walName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := openWAL(dir, false, 1)
		if err != nil {
			return
		}
		replay := func(w *wal) ([]walRecord, []byte) {
			var recs []walRecord
			clean := []byte(walHeader)
			if err := w.replay(func(instance uint64, value model.Value) error {
				recs = append(recs, walRecord{instance, value})
				clean = append(clean, encodeRecord(instance, value)...)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			return recs, clean
		}
		recs, clean := replay(w)
		if len(data) >= len(walHeader) && !bytes.HasPrefix(data, clean) {
			t.Fatalf("replayed records are not a prefix of the file")
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, clean) {
			t.Fatalf("file not cut back to its clean prefix (%d bytes, want %d; %v)", len(got), len(clean), err)
		}

		fresh := uint64(0)
		for slices.ContainsFunc(recs, func(r walRecord) bool { return r.instance == fresh }) {
			fresh++
		}
		if err := w.append(fresh, "resumed"); err != nil {
			t.Fatal(err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		w, err = openWAL(dir, false, 1)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := replay(w)
		if want := append(recs, walRecord{fresh, "resumed"}); !slices.Equal(again, want) {
			t.Fatalf("after an append and a reopen: %v, want %v", again, want)
		}

		// The survivors of a truncation: the first record of every
		// instance above the watermark (replay consumers keep the first),
		// in append order. Nothing at or below it means no rewrite.
		kept, file := again, []byte(walHeader)
		if slices.ContainsFunc(again, func(r walRecord) bool { return r.instance <= through }) {
			kept = nil
			for _, r := range again {
				if r.instance > through && !slices.ContainsFunc(kept, func(k walRecord) bool { return k.instance == r.instance }) {
					kept = append(kept, r)
				}
			}
		}
		for _, r := range kept {
			file = append(file, encodeRecord(r.instance, r.value)...)
		}
		if err := w.truncate(through); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, file) {
			t.Fatalf("truncate through %d: file is %d bytes, want header + %d survivors = %d (%v)", through, len(got), len(kept), len(file), err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		if w, err = openWAL(dir, false, 1); err != nil {
			t.Fatal(err)
		}
		defer w.close()
		if got, _ := replay(w); !slices.Equal(got, kept) {
			t.Fatalf("after truncate through %d and a reopen: %v, want %v", through, got, kept)
		}
	})
}
