package kv

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"os"
	"strings"
	"testing"
	"testing/quick"

	"genconsensus/internal/auth"
	"genconsensus/internal/model"
	"genconsensus/internal/wire"
)

func TestCommandFormat(t *testing.T) {
	if got := Command("r1", "SET", "k", "v"); got != "r1|SET|k|v" {
		t.Errorf("Command = %q", got)
	}
	if got := Command("r2", "del", "k", "ignored"); got != "r2|DEL|k" {
		t.Errorf("DEL Command = %q", got)
	}
}

func TestApplySetGetDel(t *testing.T) {
	s := NewStore()
	if resp := s.Apply(Command("1", "SET", "a", "x")); resp != "OK" {
		t.Errorf("SET resp = %q", resp)
	}
	if v, ok := s.Get("a"); !ok || v != "x" {
		t.Errorf("Get = %q, %v", v, ok)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	if resp := s.Apply(Command("2", "DEL", "a", "")); resp != "OK" {
		t.Errorf("DEL resp = %q", resp)
	}
	if _, ok := s.Get("a"); ok {
		t.Error("key survived DEL")
	}
	if resp := s.Apply(Command("3", "DEL", "missing", "")); resp != "NOTFOUND" {
		t.Errorf("DEL missing resp = %q", resp)
	}
}

func TestApplyMalformed(t *testing.T) {
	s := NewStore()
	bad := []string{
		"",
		"only",
		"a|b",
		"r|SET|k",       // missing value
		"r|DEL|k|extra", // extra value
		"r|UNKNOWN|k|v", // unknown op
		"|SET|k|v",      // empty reqID
		"r|SET||v",      // empty key
	}
	for _, cmd := range bad {
		resp := s.Apply(model.Value(cmd))
		if !strings.HasPrefix(resp, "ERR") {
			t.Errorf("Apply(%q) = %q, want ERR*", cmd, resp)
		}
	}
	if s.Len() != 0 {
		t.Error("malformed commands mutated the store")
	}
}

func TestParse(t *testing.T) {
	req, op, key, val, err := Parse("r9|set|color|blue")
	if err != nil {
		t.Fatal(err)
	}
	if req != "r9" || op != "SET" || key != "color" || val != "blue" {
		t.Errorf("Parse = %q %q %q %q", req, op, key, val)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	s := NewStore()
	s.Apply(Command("1", "SET", "a", "1"))
	snap := s.Snapshot()
	snap["a"] = "mutated"
	if v, _ := s.Get("a"); v != "1" {
		t.Error("Snapshot aliases store data")
	}
}

func TestSnapshotStateRoundTrip(t *testing.T) {
	s := NewStore()
	s.Apply(Command("r1", "SET", "color", "green"))
	s.Apply(Command("r2", "SET", "shape", "circle"))
	s.Apply(Command("r3", "DEL", "color", ""))
	s.Apply(Command("r4", "SET", "size", "big"))

	restored := NewStore()
	if err := restored.RestoreState(s.SnapshotState()); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != s.Len() {
		t.Fatalf("restored %d keys, want %d", restored.Len(), s.Len())
	}
	for k, v := range s.Snapshot() {
		if got, ok := restored.Get(k); !ok || got != v {
			t.Errorf("restored[%s] = %q, %v; want %q", k, got, ok, v)
		}
	}
	// Round-trip is an identity: re-encoding yields identical bytes.
	if string(restored.SnapshotState()) != string(s.SnapshotState()) {
		t.Error("SnapshotState not stable across restore")
	}
}

func TestSnapshotStateDeterministic(t *testing.T) {
	// Two stores built by the same command sequence (regardless of map
	// iteration order) encode identically.
	a, b := NewStore(), NewStore()
	for i := 0; i < 50; i++ {
		cmd := Command(
			"req-"+strings.Repeat("x", i%7)+string(rune('a'+i%26)),
			"SET", string(rune('a'+i%26)), strings.Repeat("v", i))
		a.Apply(cmd)
		b.Apply(cmd)
	}
	if string(a.SnapshotState()) != string(b.SnapshotState()) {
		t.Error("identical histories encode differently")
	}
}

func TestRestoreStateRejectsMalformed(t *testing.T) {
	good := func() []byte {
		s := NewStore()
		s.Apply(Command("r", "SET", "k", "v"))
		return s.SnapshotState()
	}()
	bad := [][]byte{
		nil,
		[]byte("not a snapshot"),
		good[:len(good)-1],
		append(append([]byte{}, good...), 0),
	}
	for i, b := range bad {
		if err := NewStore().RestoreState(b); err == nil {
			t.Errorf("case %d: restored malformed state", i)
		}
	}
}

// Property: SET then GET round-trips arbitrary printable keys and values
// without separator collisions (keys/values free of '|').
func TestSetGetProperty(t *testing.T) {
	clean := func(s string) string {
		return strings.Map(func(r rune) rune {
			if r == '|' || r < ' ' {
				return 'x'
			}
			return r
		}, s)
	}
	prop := func(rawK, rawV string) bool {
		k := clean(rawK)
		v := clean(rawV)
		if k == "" {
			k = "k"
		}
		s := NewStore()
		s.Apply(Command("r", "SET", k, v))
		got, ok := s.Get(k)
		return ok && got == v
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// --- Authenticated mode ------------------------------------------------------

func authStore(window int) (*Store, *auth.ClientSigner) {
	kr := auth.NewClientKeyring(11, 4)
	s := NewStore()
	s.EnableClientAuth(kr, window)
	return s, auth.NewClientSigner(11, 1)
}

func mustSigned(t *testing.T, signer *auth.ClientSigner, seq uint64, op, key, value string) model.Value {
	t.Helper()
	cmd, err := SignedCommand(signer, seq, op, key, value)
	if err != nil {
		t.Fatal(err)
	}
	return cmd
}

func TestAuthApplyAndDedup(t *testing.T) {
	s, signer := authStore(16)
	cmd := mustSigned(t, signer, 1, "SET", "color", "green")
	if resp := s.Apply(cmd); resp != "OK" {
		t.Fatalf("Apply = %q", resp)
	}
	if v, ok := s.Get("color"); !ok || v != "green" {
		t.Fatalf("color = %q (%v)", v, ok)
	}
	// Retry of the same (client, seq): cached response, no re-execution.
	if resp := s.Apply(cmd); resp != "OK" {
		t.Fatalf("retry = %q", resp)
	}
	del := mustSigned(t, signer, 2, "DEL", "color", "")
	if resp := s.Apply(del); resp != "OK" {
		t.Fatalf("DEL = %q", resp)
	}
	if resp := s.Apply(del); resp != "OK" {
		t.Fatalf("DEL retry = %q (must replay the cached response, not NOTFOUND)", resp)
	}
	// Legacy raw commands are refused outright in authenticated mode.
	if resp := s.Apply(Command("req-9", "SET", "x", "y")); resp != RespUnauthenticated {
		t.Fatalf("raw command = %q", resp)
	}
	// Tampered MAC is refused and consumes nothing.
	env, err := wire.DecodeCommand(string(mustSigned(t, signer, 3, "SET", "a", "b")))
	if err != nil {
		t.Fatal(err)
	}
	env.MAC[3] ^= 1
	bad, err := wire.EncodeCommand(env)
	if err != nil {
		t.Fatal(err)
	}
	if resp := s.Apply(model.Value(bad)); resp != RespUnauthenticated {
		t.Fatalf("tampered = %q", resp)
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("tampered command mutated state")
	}
	// The untampered original still applies: its seq was not burned.
	if resp := s.Apply(mustSigned(t, signer, 3, "SET", "a", "b")); resp != "OK" {
		t.Fatalf("original after tamper = %q", resp)
	}
}

// TestAuthWindowBounded is the hostile-client memory bound: a client
// churning unique sequence numbers keeps exactly one window of cached
// responses, evicted oldest-first and deterministically, and sequences
// below the horizon answer RespStale instead of re-executing.
func TestAuthWindowBounded(t *testing.T) {
	const window = 32
	s, signer := authStore(window)
	for seq := uint64(1); seq <= 10*window; seq++ {
		key := fmt.Sprintf("wk-%d", seq)
		if resp := s.Apply(mustSigned(t, signer, seq, "SET", key, "v")); resp != "OK" {
			t.Fatalf("seq %d: %q", seq, resp)
		}
	}
	if n := s.ClientSeqLen(1); n > window+1 {
		t.Fatalf("client window holds %d responses, want <= %d", n, window+1)
	}
	if max := s.ClientMaxSeq(1); max != 10*window {
		t.Fatalf("max seq %d, want %d", max, 10*window)
	}
	// A below-horizon replay must not re-execute (the key was deleted in
	// the meantime — re-execution would resurrect it).
	victim := mustSigned(t, signer, 1, "SET", "wk-1", "v")
	if resp := s.Apply(mustSigned(t, signer, 10*window+1, "DEL", "wk-1", "")); resp != "OK" {
		t.Fatalf("DEL: %q", resp)
	}
	if resp := s.Apply(victim); resp != RespStale {
		t.Fatalf("below-horizon replay = %q, want %q", resp, RespStale)
	}
	if _, ok := s.Get("wk-1"); ok {
		t.Fatal("below-horizon replay resurrected a deleted key")
	}
}

// TestAuthSnapshotRoundTrip: the v2 (envelope-aware) state encoding carries
// the per-client windows, round-trips exactly, and keeps at-most-once
// across a restore; two stores applying the same sequence stay
// byte-identical (digest comparability).
func TestAuthSnapshotRoundTrip(t *testing.T) {
	s1, signer := authStore(16)
	s2, _ := authStore(16)
	other := auth.NewClientSigner(11, 3)
	var cmds []model.Value
	for seq := uint64(1); seq <= 40; seq++ {
		cmds = append(cmds, mustSigned(t, signer, seq, "SET", fmt.Sprintf("k-%d", seq%7), fmt.Sprintf("v-%d", seq)))
		cmds = append(cmds, mustSigned(t, other, seq, "SET", fmt.Sprintf("o-%d", seq%5), "x"))
	}
	for _, cmd := range cmds {
		s1.Apply(cmd)
		s2.Apply(cmd)
	}
	enc1, enc2 := s1.SnapshotState(), s2.SnapshotState()
	if string(enc1) != string(enc2) {
		t.Fatal("identical apply sequences encoded differently")
	}
	restored, _ := authStore(16)
	if err := restored.RestoreState(enc1); err != nil {
		t.Fatal(err)
	}
	if string(restored.SnapshotState()) != string(enc1) {
		t.Fatal("restore is not the identity")
	}
	// At-most-once survives the restore: a replay of an applied command is
	// answered from the restored window without re-execution.
	if resp := restored.Apply(cmds[len(cmds)-2]); resp != "OK" {
		t.Fatalf("replay after restore = %q", resp)
	}
	if restored.ClientMaxSeq(1) != 40 || restored.ClientMaxSeq(3) != 40 {
		t.Fatal("client windows lost in restore")
	}
	// Truncated v2 encodings are rejected.
	if err := restored.RestoreState(enc1[:len(enc1)-3]); err == nil {
		t.Fatal("truncated v2 state accepted")
	}
}

// CheckKeyValue is what keeps an acknowledged write from being lost at
// apply: a '|' would split the payload into the wrong fields.
func TestCheckKeyValue(t *testing.T) {
	for _, tc := range []struct {
		key, value string
		ok         bool
	}{
		{"k", "v", true},
		{"k", "", true},
		{"", "v", false},
		{"a|b", "v", false},
		{"k", "a|b", false},
		{"k", "|", false},
	} {
		if err := CheckKeyValue(tc.key, tc.value); (err == nil) != tc.ok {
			t.Errorf("CheckKeyValue(%q, %q) = %v, want ok=%v", tc.key, tc.value, err, tc.ok)
		}
		if err := CheckKeyValue([]byte(tc.key), []byte(tc.value)); (err == nil) != tc.ok {
			t.Errorf("CheckKeyValue(bytes %q, %q) = %v, want ok=%v", tc.key, tc.value, err, tc.ok)
		}
	}
	if _, err := SignedCommand(auth.NewClientSigner(11, 1), 1, "SET", "pk", "a|b"); err == nil {
		t.Error("SignedCommand signed a value carrying '|'")
	}
}

// readHexFixture loads a hex-encoded state from testdata.
func readHexFixture(t testing.TB, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The states of older releases still restore. legacy_v1.hex is the kvstate1
// encoding of a store that never saw an envelope, request-id table and all
// (40 raw SETs and a DEL, the table pruned to 16); request_ids_v2.hex is the
// kvstate2 a node of the release before wrote after restoring that state
// and applying 12 signed SETs from each of clients 1 and 2 under window 8,
// its request ids beside the client windows. Both restore into an
// authenticated store with the data intact and the windows as encoded; the
// request ids are dropped, and the re-encoding is a fixed point.
func TestRestoreLegacyStates(t *testing.T) {
	v1Data := make(map[string]string)
	for i := 0; i < 40; i++ {
		v1Data[fmt.Sprintf("key-%02d", (i*7)%23)] = fmt.Sprintf("value-%d", i)
	}
	delete(v1Data, "key-05")
	v2Data := maps.Clone(v1Data)
	for c := 1; c <= 2; c++ {
		for seq := 1; seq <= 12; seq++ {
			v2Data[fmt.Sprintf("s%d", seq*c%5)] = fmt.Sprintf("w%d.%d", c, seq)
		}
	}
	for _, tc := range []struct {
		path    string
		size    int
		data    map[string]string
		clients []uint32
	}{
		{"testdata/legacy_v1.hex", 757, v1Data, nil},
		{"testdata/request_ids_v2.hex", 1090, v2Data, []uint32{1, 2}},
	} {
		state := readHexFixture(t, tc.path)
		if len(state) != tc.size || requestIDCount(state) != 16 {
			t.Fatalf("%s: %d bytes carrying %d request ids, want %d bytes carrying 16", tc.path, len(state), requestIDCount(state), tc.size)
		}
		s, _ := authStore(8)
		if err := s.RestoreState(state); err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if got := s.Snapshot(); !maps.Equal(got, tc.data) {
			t.Fatalf("%s: restored %d keys %v, want %d keys %v", tc.path, len(got), got, len(tc.data), tc.data)
		}
		for _, c := range tc.clients {
			if max, n := s.ClientMaxSeq(c), s.ClientSeqLen(c); max != 12 || n != 8 {
				t.Errorf("%s: client %d window max %d holding %d, want 12 holding 8", tc.path, c, max, n)
			}
		}
		again := s.SnapshotState()
		if !bytes.HasPrefix(again, []byte(stateMagicV2)) || requestIDCount(again) != 0 {
			t.Fatalf("%s: re-encoded as %q with %d request ids, want kvstate2 with none", tc.path, again[:8], requestIDCount(again))
		}
		fixed, _ := authStore(8)
		if err := fixed.RestoreState(again); err != nil || !bytes.Equal(fixed.SnapshotState(), again) {
			t.Fatalf("%s: re-encoding is not a fixed point (restore err %v)", tc.path, err)
		}
	}
}

// requestIDCount reads the request-id count of a state encoding the store
// accepts.
func requestIDCount(state []byte) uint32 {
	r := state[len(stateMagic):]
	nData, r, _ := readUint32(r)
	for i := uint32(0); i < 2*nData; i++ {
		_, r, _ = readString(r)
	}
	n, _, _ := readUint32(r)
	return n
}

// GetMany answers a whole batch under one read lock; results align with
// the request order, missing keys report Found=false, and the batch sees
// the same snapshot a per-key Get would.
func TestGetMany(t *testing.T) {
	s := NewStore()
	s.Apply(Command("r1", "SET", "a", "1"))
	s.Apply(Command("r2", "SET", "b", "2"))
	s.Apply(Command("r3", "SET", "c", "3"))
	got := s.GetMany([]string{"b", "missing", "a", "b"})
	want := []ReadResult{
		{Value: "2", Found: true},
		{Found: false},
		{Value: "1", Found: true},
		{Value: "2", Found: true},
	}
	if len(got) != len(want) {
		t.Fatalf("GetMany returned %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GetMany[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if out := s.GetMany(nil); len(out) != 0 {
		t.Fatalf("GetMany(nil) returned %d results", len(out))
	}
}

// SeqApplied is the replica's one record of which (client, seq) committed:
// ingress, queue pruning, the chooser and read-your-writes sessions ask it.
// Each row applies seqs in order through a window of 8, then asks one
// question.
func TestSeqApplied(t *testing.T) {
	const window = 8
	for _, tc := range []struct {
		name    string
		applied []uint64
		client  uint32
		seq     uint64
		want    bool
	}{
		{"nothing applied", nil, 1, 1, false},
		{"applied", []uint64{1}, 1, 1, true},
		{"another client is not affected", []uint64{1}, 2, 1, false},
		{"a future seq is not applied", []uint64{1}, 1, 2, false},
		{"in-window seq", seqRange(1, 100), 1, 93, true},
		{"below the horizon counts as applied", seqRange(1, 100), 1, 50, true},
		{"out of order: the gap is not applied", []uint64{10}, 1, 7, false},
		{"out of order: the late seq is applied", []uint64{10, 7}, 1, 7, true},
		{"out of order: the early seq stays applied", []uint64{10, 7}, 1, 10, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, signer := authStore(window)
			for _, seq := range tc.applied {
				s.Apply(mustSigned(t, signer, seq, "SET", "k", "v"))
			}
			if got := s.SeqApplied(tc.client, tc.seq); got != tc.want {
				t.Errorf("SeqApplied(%d, %d) = %v, want %v", tc.client, tc.seq, got, tc.want)
			}
			s.SeqsApplied(func(applied func(uint32, uint64) bool) {
				if got := applied(tc.client, tc.seq); got != tc.want {
					t.Errorf("SeqsApplied(%d, %d) = %v, want %v", tc.client, tc.seq, got, tc.want)
				}
			})
			// Bounded tracking: at most one window of seqs is held exactly.
			if n := s.ClientSeqLen(1); n > window+1 {
				t.Errorf("client 1 holds %d seqs exactly, want <= %d", n, window+1)
			}
		})
	}
}

// seqRange is lo..hi inclusive.
func seqRange(lo, hi uint64) []uint64 {
	out := make([]uint64, 0, hi-lo+1)
	for seq := lo; seq <= hi; seq++ {
		out = append(out, seq)
	}
	return out
}

// --- Checkpoint support: the mark and the state encoding's stability -------

// goldenStore builds an authenticated store from a fixed command sequence
// covering every section of the state encoding.
func goldenStore(t *testing.T) *Store {
	t.Helper()
	authed := NewStore()
	authed.EnableClientAuth(auth.NewClientKeyring(7, 4), 8)
	for c := uint32(1); c <= 3; c++ {
		signer := auth.NewClientSigner(7, c)
		for seq := uint64(1); seq <= 20; seq++ {
			op := "SET"
			if seq%6 == 0 {
				op = "DEL"
			}
			authed.Apply(mustSigned(t, signer, seq, op, fmt.Sprintf("k%d", (seq*uint64(c))%11), fmt.Sprintf("v%d.%d", c, seq)))
		}
	}
	return authed
}

// The state encoding is what replicas hash, transfer and write to disk: it
// must stay byte-compatible across releases. The digest was taken from the
// encoder as it stood before checkpoints stopped encoding at every boundary.
// (The encoding of a store that never saw an envelope is the kvstate1
// fixture TestRestoreLegacyStates restores.)
func TestSnapshotStateGolden(t *testing.T) {
	state := goldenStore(t).SnapshotState()
	const size, sum = 539, "a1638373cdfb628e366c7508cd4cf4618318cbb1b23edc2c9d10f24c9eac97b5"
	if got := fmt.Sprintf("%x", sha256.Sum256(state)); len(state) != size || got != sum {
		t.Errorf("authed state: %d bytes, sha256 %s; want %d bytes, %s", len(state), got, size, sum)
	}
	if cap(state) != len(state) {
		t.Errorf("authed state: buffer sized %d for %d bytes; the size pass and the encoder disagree", cap(state), len(state))
	}
}

// A mark freezes what MarkedState encodes: writes after it — new keys, an
// overwrite, deletes of present and absent keys, a client first seen after
// the mark, duplicate, below-horizon and jump-ahead sequences — never show
// in it, and the next mark takes them all in.
func TestMarkedStateIgnoresLaterWrites(t *testing.T) {
	s := goldenStore(t)
	s.Mark()
	before := s.SnapshotState()
	check := func(when string) {
		t.Helper()
		if got := s.MarkedState(); !bytes.Equal(got, before) {
			t.Fatalf("%s: marked state (%d bytes) differs from the state at the mark (%d bytes)", when, len(got), len(before))
		}
	}
	check("at the mark")
	a, late := auth.NewClientSigner(7, 1), auth.NewClientSigner(7, 0)
	apply := func(signer *auth.ClientSigner, seq uint64, op, key, value string) {
		s.Apply(mustSigned(t, signer, seq, op, key, value))
	}
	apply(a, 21, "SET", "k1", "overwritten")
	apply(a, 22, "SET", "k1", "overwritten twice")
	apply(a, 23, "DEL", "k2", "")
	apply(a, 24, "SET", "k2", "back again")
	apply(a, 25, "DEL", "never-there", "")
	apply(a, 26, "SET", "fresh", "x")
	apply(a, 27, "DEL", "fresh", "")
	apply(a, 25, "SET", "k3", "duplicate")
	apply(a, 2, "SET", "k3", "below the horizon")
	apply(a, 60, "SET", "k4", "jump ahead")
	apply(late, 1, "SET", "new-key", "a client first seen after the mark")
	if resp := s.Apply(Command("raw", "SET", "k6", "not signed")); resp != RespUnauthenticated {
		t.Fatalf("raw command after EnableClientAuth = %q", resp)
	}
	if string(s.SnapshotState()) == string(before) {
		t.Fatal("the writes after the mark changed nothing")
	}
	check("after writes")
	after := s.SnapshotState()
	s.Mark()
	before = after
	check("at the next mark")
	if err := s.RestoreState(after); err != nil {
		t.Fatal(err)
	}
	apply(a, 61, "SET", "k1", "after a restore")
	s.Mark()
	before = s.SnapshotState()
	apply(a, 62, "DEL", "k1", "")
	check("after a restore")
}

// scriptedAuthHistory drives an authenticated store (window 8) through the
// cases the dedup table's layout must not show in the state encoding: two
// clients, out-of-order sequences, seq 0, a duplicate, a retry below the
// horizon, a horizon crossing by one and by far more than the window.
func scriptedAuthHistory(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	s.EnableClientAuth(auth.NewClientKeyring(7, 4), 8)
	a, b := auth.NewClientSigner(7, 1), auth.NewClientSigner(7, 2)
	apply := func(signer *auth.ClientSigner, seq uint64, op, key, value string) {
		s.Apply(mustSigned(t, signer, seq, op, key, value))
	}
	for _, seq := range []uint64{3, 1, 0, 2, 7, 5} { // out of order, below the first horizon
		apply(a, seq, "SET", fmt.Sprintf("a%d", seq), fmt.Sprintf("va%d", seq))
	}
	apply(a, 5, "SET", "a5", "duplicate") // answered from the window, not executed
	apply(b, 4, "SET", "b4", "vb4")
	apply(a, 8, "DEL", "a0", "")      // Max reaches the window: seq 0 falls off
	apply(a, 0, "SET", "a0", "stale") // below the horizon now
	apply(a, 9, "DEL", "missing", "") // NOTFOUND is a cached response too
	apply(a, 12, "SET", "a12", "va12")
	apply(a, 10, "SET", "a10", "va10") // in-window gap filled late
	apply(b, 40, "SET", "b40", "vb40") // jump far past the window: 4 is gone
	apply(b, 38, "SET", "b38", "vb38")
	apply(b, 33, "SET", "b33", "vb33")
	apply(b, 32, "SET", "b32", "stale") // exactly Max-window: below the horizon
	return s
}

// The dedup windows are part of the state replicas hash and transfer; the
// bytes in testdata were produced by the map-backed tables this layout
// replaced.
func TestSnapshotStateScriptedGolden(t *testing.T) {
	const path = "testdata/auth_history.hex"
	s := scriptedAuthHistory(t)
	got := s.SnapshotState()
	if os.Getenv("KV_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readHexFixture(t, path)
	if !bytes.Equal(got, want) {
		t.Fatalf("state encoding changed:\n got %x\nwant %x", got, want)
	}
	restored := NewStore()
	restored.EnableClientAuth(auth.NewClientKeyring(7, 4), 8)
	if err := restored.RestoreState(want); err != nil {
		t.Fatal(err)
	}
	if again := restored.SnapshotState(); !bytes.Equal(again, want) {
		t.Fatalf("restore then encode is not the identity:\n got %x\nwant %x", again, want)
	}
	if s.Mark(); !bytes.Equal(s.MarkedState(), want) {
		t.Fatalf("marked state encodes differently:\n got %x\nwant %x", s.MarkedState(), want)
	}
}

// BenchmarkStoreApplyAuth is the authenticated apply of a fresh command:
// envelope decode, the verifier's HMAC (no shared verdict cache here), the
// dedup-window lookup and record, and the write itself.
func BenchmarkStoreApplyAuth(b *testing.B) {
	s, signer := authStore(0)
	cmds := make([]model.Value, 4096)
	for i := range cmds {
		cmd, err := SignedCommand(signer, uint64(i+1), "SET", fmt.Sprintf("key-%04d", i%1024), strings.Repeat("v", 64))
		if err != nil {
			b.Fatal(err)
		}
		cmds[i] = cmd
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(cmds) == 0 {
			b.StopTimer()
			s, _ = authStore(0)
			b.StartTimer()
		}
		if resp := s.Apply(cmds[i%len(cmds)]); resp != "OK" {
			b.Fatalf("apply %d = %q", i, resp)
		}
	}
}

// SeqApplied is polled per session READ: it must stay a lock and a slot.
func TestSeqAppliedAllocatesNothing(t *testing.T) {
	s, signer := authStore(0)
	s.Apply(mustSigned(t, signer, 1, "SET", "k", "v"))
	if n := testing.AllocsPerRun(200, func() {
		if !s.SeqApplied(1, 1) || s.SeqApplied(1, 2) {
			t.Fatal("SeqApplied wrong")
		}
	}); n != 0 {
		t.Fatalf("SeqApplied allocates %v times per call", n)
	}
}

// BenchmarkStoreGetBytes is the read plane's local lookup on a warm
// 4,096-key store: the lock, the map probe and the value.
func BenchmarkStoreGetBytes(b *testing.B) {
	s := NewStore()
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
		s.Apply(Command("load", "SET", string(keys[i]), strings.Repeat("v", 32)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.GetBytes(keys[(i*2654435761)%len(keys)]); !ok {
			b.Fatal("miss")
		}
	}
}
