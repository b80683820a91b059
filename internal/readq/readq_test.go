package readq

import (
	"testing"

	"genconsensus/internal/obs"
)

func TestParse(t *testing.T) {
	r, err := Parse("VAL 0 17 hello")
	if err != nil {
		t.Fatal(err)
	}
	if r.Instance != 17 || r.Value != "hello" || !r.Found {
		t.Fatalf("Parse(VAL) = %+v", r)
	}
	r, err = Parse("NF 0 4")
	if err != nil {
		t.Fatal(err)
	}
	if r.Instance != 4 || r.Found {
		t.Fatalf("Parse(NF) = %+v", r)
	}
	for _, bad := range []string{
		"", "OK", "ERR read timeout", "VAL 2 17", "VAL 2 17 a b",
		"NF 0 4 extra", "VAL x 17 v", "VAL 0 x v", "VAL 99999 1 v",
		"VAL 2 17 hello", "NF 1 4",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

// The core Byzantine property: a forged value with fewer than quorum
// matching replies never certifies, no matter how high its instance stamp.
func TestCertifyRejectsForgery(t *testing.T) {
	honest := Result{Instance: 10, Value: "real", Found: true}
	forged := Result{Instance: 999, Value: "evil", Found: true}
	reg := obs.NewRegistry()
	mismatch := reg.Counter("read_certificate_mismatch")
	got, ok := Certify([]Result{honest, {Instance: 11, Value: "real", Found: true}, forged}, 2, mismatch)
	if !ok {
		t.Fatal("honest majority did not certify")
	}
	if got.Value != "real" || !got.Found || got.Instance != 11 {
		t.Fatalf("certified %+v, want real@11", got)
	}
	if mismatch.Load() != 1 {
		t.Fatalf("mismatch counter = %d, want 1 (the forged reply)", mismatch.Load())
	}
	// Forger alone (or with fewer than quorum copies): no certificate.
	if _, ok := Certify([]Result{forged, honest}, 2, nil); ok {
		t.Fatal("split 1-1 replies certified")
	}
	if _, ok := Certify([]Result{forged}, 2, nil); ok {
		t.Fatal("a single forged reply certified")
	}
}

// Value-at-or-above-instance: matching replies from replicas at different
// watermarks certify at the highest stamp, and a certified newer value
// beats a certified older one.
func TestCertifyPrefersNewest(t *testing.T) {
	got, ok := Certify([]Result{
		{Instance: 5, Value: "v2", Found: true},
		{Instance: 8, Value: "v2", Found: true},
	}, 2, nil)
	if !ok || got.Instance != 8 || got.Value != "v2" {
		t.Fatalf("certified %+v, want v2@8", got)
	}
	// quorum 1 degenerates to trust-any; the highest stamp wins.
	got, ok = Certify([]Result{
		{Instance: 3, Value: "old", Found: true},
		{Instance: 9, Value: "new", Found: true},
	}, 1, nil)
	if !ok || got.Value != "new" || got.Instance != 9 {
		t.Fatalf("quorum-1 certified %+v, want new@9", got)
	}
}

// Absence certifies like a value: b+1 matching NF replies prove the key
// was unset as of the stamp, and found/not-found never cross-match.
func TestCertifyNotFound(t *testing.T) {
	got, ok := Certify([]Result{
		{Instance: 2},
		{Instance: 3},
		{Instance: 1, Value: "ghost", Found: true},
	}, 2, nil)
	if !ok || got.Found {
		t.Fatalf("certified %+v ok=%v, want NF", got, ok)
	}
	if _, ok := Certify([]Result{
		{Instance: 2},
		{Instance: 3, Value: "v", Found: true},
	}, 2, nil); ok {
		t.Fatal("NF and VAL cross-matched into a certificate")
	}
}

func TestCertifyEmpty(t *testing.T) {
	if _, ok := Certify(nil, 2, nil); ok {
		t.Fatal("empty reply set certified")
	}
}
