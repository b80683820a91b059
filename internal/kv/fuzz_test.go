package kv

import (
	"bytes"
	"fmt"
	"testing"

	"genconsensus/internal/auth"
)

// FuzzRestoreState: RestoreState takes bytes from a peer's snapshot or the
// local disk. Hostile bytes never panic, and an accepted encoding re-encodes
// to exactly itself — legacy (v1) into a legacy store, authenticated (v2)
// into an authenticated one — because only the canonical form restores.
func FuzzRestoreState(f *testing.F) {
	legacy := NewStore()
	legacy.Apply(Command("r1", "SET", "color", "green"))
	legacy.Apply(Command("r2", "SET", "shape", "circle"))
	legacy.Apply(Command("r3", "DEL", "color", ""))
	f.Add(legacy.SnapshotState())
	f.Add(NewStore().SnapshotState())

	keyring := auth.NewClientKeyring(11, 4)
	authed := NewStore()
	authed.EnableClientAuth(keyring, 16)
	for _, client := range []uint32{1, 3} {
		signer := auth.NewClientSigner(11, client)
		for seq := uint64(1); seq <= 20; seq++ {
			cmd, err := SignedCommand(signer, seq, "SET", fmt.Sprintf("k-%d-%d", client, seq%7), "v")
			if err != nil {
				f.Fatal(err)
			}
			authed.Apply(cmd)
		}
	}
	f.Add(authed.SnapshotState())

	f.Fuzz(func(t *testing.T, data []byte) {
		authStore := NewStore()
		authStore.EnableClientAuth(keyring, 16)
		for _, tc := range []struct {
			s     *Store
			magic string
		}{{NewStore(), stateMagic}, {authStore, stateMagicV2}} {
			if err := tc.s.RestoreState(data); err != nil || !bytes.HasPrefix(data, []byte(tc.magic)) {
				continue
			}
			if again := tc.s.SnapshotState(); !bytes.Equal(again, data) {
				t.Fatalf("%s: restored %x re-encodes to %x", tc.magic, data, again)
			}
		}
	})
}
