package kv

import (
	"bytes"
	"fmt"
	"testing"

	"genconsensus/internal/auth"
)

// FuzzRestoreState: RestoreState takes bytes from a peer's snapshot or the
// local disk. Hostile bytes never panic; an accepted v2 encoding with an
// empty request-id section re-encodes to exactly itself, because only the
// canonical form restores; and any accepted encoding — v1, or v2 carrying
// request ids — re-encodes to a fixed point.
func FuzzRestoreState(f *testing.F) {
	f.Add(readHexFixture(f, "testdata/legacy_v1.hex"))
	f.Add(readHexFixture(f, "testdata/request_ids_v2.hex"))
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

	restore := func(data []byte) ([]byte, error) {
		s := NewStore()
		s.EnableClientAuth(keyring, 16)
		if err := s.RestoreState(data); err != nil {
			return nil, err
		}
		return s.SnapshotState(), nil
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		again, err := restore(data)
		if err != nil {
			return
		}
		if bytes.HasPrefix(data, []byte(stateMagicV2)) && requestIDCount(data) == 0 && !bytes.Equal(again, data) {
			t.Fatalf("restored %x re-encodes to %x", data, again)
		}
		if fixed, err := restore(again); err != nil || !bytes.Equal(fixed, again) {
			t.Fatalf("re-encoding %x is not a fixed point: %x (err %v)", again, fixed, err)
		}
	})
}
