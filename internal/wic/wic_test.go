package wic

import (
	"maps"
	"reflect"
	"testing"

	"genconsensus/internal/auth"
	"genconsensus/internal/core"
	"genconsensus/internal/flv"
	"genconsensus/internal/model"
	"genconsensus/internal/selector"
	"genconsensus/internal/sim"
)

func innerParams(n, b int) core.Params {
	return core.Params{
		N: n, B: b, F: 0, TD: 2*b + 1,
		Flag:       model.FlagPhase,
		FLV:        flv.NewPBFT(n, b),
		Selector:   selector.NewAll(n),
		UseHistory: true,
	}
}

func TestScheduleMapping(t *testing.T) {
	inner := core.Schedule{Flag: model.FlagPhase}
	relay := Schedule{Inner: inner, Mode: Relay}
	// Inner phase 1: selection (2 micros), validation, decision.
	tests := []struct {
		outer model.Round
		inner model.Round
		micro int
	}{
		{1, 1, 1}, {2, 1, 2}, // selection micros
		{3, 2, 1},            // validation
		{4, 3, 1},            // decision
		{5, 4, 1}, {6, 4, 2}, // next selection
	}
	for _, tt := range tests {
		gotInner, gotMicro := relay.At(tt.outer)
		if gotInner != tt.inner || gotMicro != tt.micro {
			t.Errorf("relay At(%d) = (%d, %d), want (%d, %d)",
				tt.outer, gotInner, gotMicro, tt.inner, tt.micro)
		}
	}
	if got := relay.OuterRounds(3); got != 4 {
		t.Errorf("relay OuterRounds(3) = %d, want 4", got)
	}
	echo := Schedule{Inner: inner, Mode: Echo}
	if got := echo.OuterRounds(3); got != 5 {
		t.Errorf("echo OuterRounds(3) = %d, want 5", got)
	}
	gotInner, gotMicro := echo.At(3)
	if gotInner != 1 || gotMicro != 3 {
		t.Errorf("echo At(3) = (%d, %d), want (1, 3)", gotInner, gotMicro)
	}
}

func TestModeMeta(t *testing.T) {
	if Relay.Micros() != 2 || Echo.Micros() != 3 {
		t.Error("micro counts")
	}
	if Relay.String() != "wic/relay" || Echo.String() != "wic/echo" {
		t.Error("names")
	}
}

func TestWrapValidation(t *testing.T) {
	params := innerParams(4, 1)
	inner, err := core.NewProcess(0, "v", params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Wrap(inner, Config{N: 4, B: 1, Mode: Mode(9)}, params.Schedule()); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := Wrap(inner, Config{N: 4, B: 1, Mode: Relay}, params.Schedule()); err == nil {
		t.Error("relay without keyring accepted")
	}
}

// recordingProc captures the inner vectors delivered by the WIC layer so
// tests can check the Pcons postcondition.
type recordingProc struct {
	model.Proc
	mus map[model.Round]model.Received
}

func (r *recordingProc) Transition(rd model.Round, mu model.Received) {
	if r.mus == nil {
		r.mus = map[model.Round]model.Received{}
	}
	r.mus[rd] = maps.Clone(mu)
	r.Proc.Transition(rd, mu)
}

// buildCluster wires n WIC-wrapped PBFT processes (indices in byz are
// replaced by the given procs).
func buildCluster(t *testing.T, n, b int, mode Mode, override map[model.PID]model.Proc) (map[model.PID]model.Proc, map[model.PID]*recordingProc, map[model.PID]model.Value) {
	t.Helper()
	params := innerParams(n, b)
	kr, err := auth.NewKeyring(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	procs := map[model.PID]model.Proc{}
	recs := map[model.PID]*recordingProc{}
	inits := map[model.PID]model.Value{}
	vals := []model.Value{"b", "a", "c", "a", "b", "c", "a"}
	for i := 0; i < n; i++ {
		p := model.PID(i)
		if o, ok := override[p]; ok {
			procs[p] = o
			continue
		}
		init := vals[i%len(vals)]
		inner, err := core.NewProcess(p, init, params)
		if err != nil {
			t.Fatal(err)
		}
		inits[p] = init
		rec := &recordingProc{Proc: inner}
		recs[p] = rec
		w, err := Wrap(rec, Config{N: n, B: b, Mode: mode, Keyring: kr}, params.Schedule())
		if err != nil {
			t.Fatal(err)
		}
		procs[p] = w
	}
	return procs, recs, inits
}

func runCluster(t *testing.T, n, b int, procs map[model.PID]model.Proc, inits map[model.PID]model.Value, byz map[model.PID]bool, maxRounds int) sim.Result {
	t.Helper()
	engineSched := core.Schedule{Flag: model.FlagPhase}
	e, err := sim.New(sim.Config{
		Params:    core.Params{N: n, B: b, F: 0},
		Inits:     inits,
		Procs:     procs,
		ProcByz:   byz,
		Sched:     &engineSched,
		Modes:     func(model.Round, model.RoundKind) sim.Mode { return sim.ModeGood },
		Seed:      3,
		MaxRounds: maxRounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e.Run()
}

// Relay WIC over Pgood only: the consensus on top decides, agreement holds,
// and the delivered selection vectors are identical at all correct
// processes (Pcons achieved without ever using the simulator's Cons mode).
func TestRelayWICAchievesPcons(t *testing.T) {
	n, b := 4, 1
	procs, recs, inits := buildCluster(t, n, b, Relay, nil)
	res := runCluster(t, n, b, procs, inits, nil, 40)
	if !res.AllDecided {
		t.Fatalf("no decision in %d outer rounds", res.Rounds)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	assertPconsOnSelections(t, recs)
}

// Echo WIC over Pgood only: same postcondition, one more micro-round.
func TestEchoWICAchievesPcons(t *testing.T) {
	n, b := 4, 1
	procs, recs, inits := buildCluster(t, n, b, Echo, nil)
	res := runCluster(t, n, b, procs, inits, nil, 40)
	if !res.AllDecided {
		t.Fatalf("no decision in %d outer rounds", res.Rounds)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	assertPconsOnSelections(t, recs)
}

func assertPconsOnSelections(t *testing.T, recs map[model.PID]*recordingProc) {
	t.Helper()
	sched := core.Schedule{Flag: model.FlagPhase}
	var ref map[model.Round]model.Received
	var refPID model.PID
	for p, rec := range recs {
		if ref == nil {
			ref, refPID = rec.mus, p
			continue
		}
		for r, mu := range rec.mus {
			if _, kind := sched.At(r); kind != model.SelectionRound {
				continue
			}
			refMu, ok := ref[r]
			if !ok {
				continue
			}
			if !reflect.DeepEqual(vectorFingerprint(mu), vectorFingerprint(refMu)) {
				t.Fatalf("Pcons violated in inner round %d: process %d and %d received different vectors\n%v\nvs\n%v",
					r, p, refPID, mu, refMu)
			}
		}
	}
}

func vectorFingerprint(mu model.Received) map[model.PID]string {
	out := map[model.PID]string{}
	for p, m := range mu {
		out[p] = fingerprint(m)
	}
	return out
}

// maliciousRelay is a Byzantine coordinator: in its relay micro-round it
// sends the full batch to even PIDs and a truncated batch to odd PIDs.
// Signatures prevent it from altering content; omission is its only power.
type maliciousRelay struct {
	*Proc
}

func (m *maliciousRelay) Send(outer model.Round) map[model.PID]model.Message {
	innerR, micro := m.Schedule().At(outer)
	out := m.Proc.Send(outer)
	if micro != 2 || m.Proc.cfg.Coordinator(innerR) != m.ID() || out == nil {
		return out
	}
	for d, msg := range out {
		if d%2 == 1 && len(msg.Relay) > 1 {
			msg.Relay = msg.Relay[:1]
			out[d] = msg
		}
	}
	return out
}

// A Byzantine relay coordinator can only delay: once rotation reaches an
// honest coordinator the system decides, and agreement is never violated.
func TestRelayWICMaliciousCoordinator(t *testing.T) {
	n, b := 4, 1
	params := innerParams(n, b)
	kr, err := auth.NewKeyring(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	// PID 1 is the malicious relay (it coordinates inner round 1 with the
	// default rotating coordinator: 1 % 4 = 1).
	evilInner, err := core.NewProcess(1, "z", params)
	if err != nil {
		t.Fatal(err)
	}
	evilWrapped, err := Wrap(evilInner, Config{N: n, B: b, Mode: Relay, Keyring: kr}, params.Schedule())
	if err != nil {
		t.Fatal(err)
	}
	override := map[model.PID]model.Proc{1: &maliciousRelay{Proc: evilWrapped}}
	procs, recs, inits := buildCluster(t, n, b, Relay, override)
	res := runCluster(t, n, b, procs, inits, map[model.PID]bool{1: true}, 80)
	if !res.AllDecided {
		t.Fatalf("no decision in %d outer rounds despite honest rotation", res.Rounds)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	// Forgery-freedom: across honest recorders, each (round, sender) pair
	// maps to at most one distinct accepted message.
	seen := map[model.Round]map[model.PID]string{}
	for _, rec := range recs {
		for r, mu := range rec.mus {
			if seen[r] == nil {
				seen[r] = map[model.PID]string{}
			}
			for q, m := range mu {
				fp := fingerprint(m)
				if prev, ok := seen[r][q]; ok && prev != fp {
					t.Fatalf("round %d: two different messages accepted for sender %d", r, q)
				}
				seen[r][q] = fp
			}
		}
	}
}

// Echo WIC per-sender consistency against an equivocating micro-1 sender:
// no two correct processes accept different values for the equivocator.
type equivocatingSender struct {
	id model.PID
	n  int
}

func (e *equivocatingSender) ID() model.PID                          { return e.id }
func (e *equivocatingSender) Decided() (model.Value, bool)           { return model.NoValue, false }
func (e *equivocatingSender) Transition(model.Round, model.Received) {}
func (e *equivocatingSender) Send(outer model.Round) map[model.PID]model.Message {
	out := map[model.PID]model.Message{}
	for i := 0; i < e.n; i++ {
		v := model.Value("a")
		if i >= e.n/2 {
			v = "b"
		}
		inner := model.Message{Kind: model.SelectionRound, Vote: v}
		out[model.PID(i)] = model.Message{
			Kind:  model.SelectionRound,
			Relay: []model.Signed{{Sender: e.id, Msg: inner}},
		}
	}
	return out
}

func TestEchoWICEquivocatorConsistency(t *testing.T) {
	n, b := 4, 1
	override := map[model.PID]model.Proc{3: &equivocatingSender{id: 3, n: n}}
	procs, recs, inits := buildCluster(t, n, b, Echo, override)
	res := runCluster(t, n, b, procs, inits, map[model.PID]bool{3: true}, 60)
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	// Per-sender consistency: across correct processes, at most one
	// distinct accepted value for the Byzantine sender per inner round.
	perRound := map[model.Round]map[string]bool{}
	for _, rec := range recs {
		for r, mu := range rec.mus {
			if m, ok := mu[3]; ok {
				if perRound[r] == nil {
					perRound[r] = map[string]bool{}
				}
				perRound[r][fingerprint(m)] = true
			}
		}
	}
	for r, set := range perRound {
		if len(set) > 1 {
			t.Fatalf("inner round %d: correct processes accepted %d different values from the equivocator",
				r, len(set))
		}
	}
}

// Signature verification drops altered relays (unit).
func TestRelayVerifyRejectsAlteredMessage(t *testing.T) {
	n, b := 4, 1
	params := innerParams(n, b)
	kr, err := auth.NewKeyring(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := core.NewProcess(0, "v", params)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Wrap(inner, Config{N: n, B: b, Mode: Relay, Keyring: kr}, params.Schedule())
	if err != nil {
		t.Fatal(err)
	}
	signer, err := kr.Signer(2)
	if err != nil {
		t.Fatal(err)
	}
	orig := model.Message{Kind: model.SelectionRound, Vote: "x"}
	good := model.Signed{Sender: 2, Msg: orig, Sig: signer.Sign(fingerprintBytes(orig))}
	if !w.verify(good) {
		t.Fatal("valid signature rejected")
	}
	tampered := good
	tampered.Msg.Vote = "y"
	if w.verify(tampered) {
		t.Fatal("altered message accepted")
	}
	impersonated := good
	impersonated.Sender = 3
	if w.verify(impersonated) {
		t.Fatal("impersonated sender accepted")
	}
}

// The tally helper: a value needs more than (n+b)/2 supporting relayers.
func TestTally(t *testing.T) {
	params := innerParams(4, 1)
	kr, _ := auth.NewKeyring(4, 7)
	inner, _ := core.NewProcess(0, "v", params)
	w, err := Wrap(inner, Config{N: 4, B: 1, Mode: Echo, Keyring: kr}, params.Schedule())
	if err != nil {
		t.Fatal(err)
	}
	msgA := model.Message{Kind: model.SelectionRound, Vote: "a"}
	msgB := model.Message{Kind: model.SelectionRound, Vote: "b"}
	claim := func(s model.PID, m model.Message) model.Message {
		return model.Message{Relay: []model.Signed{{Sender: s, Msg: m}}}
	}
	// 3 of 4 relayers claim (5 → a): 3 > (4+1)/2 accepted.
	mu := model.Received{
		0: claim(5, msgA), 1: claim(5, msgA), 2: claim(5, msgA), 3: claim(5, msgB),
	}
	got := w.tally(mu)
	if m, ok := got[5]; !ok || m.Vote != "a" {
		t.Fatalf("tally = %v, want sender 5 → a", got)
	}
	// 2 of 4: not enough.
	mu = model.Received{
		0: claim(5, msgA), 1: claim(5, msgA), 2: claim(5, msgB), 3: claim(5, msgB),
	}
	if got := w.tally(mu); len(got) != 0 {
		t.Fatalf("tally accepted a split: %v", got)
	}
}
