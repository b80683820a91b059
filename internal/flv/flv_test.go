package flv

import (
	"maps"
	"math/rand"
	"testing"
	"testing/quick"

	"genconsensus/internal/model"
)

const (
	v1 = model.Value("v1")
	v2 = model.Value("v2")
	v3 = model.Value("v3")
)

func sel(vote model.Value, ts model.Phase, hist model.History) model.Message {
	return model.Message{Kind: model.SelectionRound, Vote: vote, TS: ts, History: hist}
}

func TestOutcomeString(t *testing.T) {
	if Locked.String() != "v" || Any.String() != "?" || None.String() != "null" {
		t.Errorf("outcome strings: %s %s %s", Locked, Any, None)
	}
	if Outcome(7).String() != "Outcome(7)" {
		t.Errorf("unknown outcome: %s", Outcome(7))
	}
	if (Result{Out: Locked, Val: "x"}).String() != "x" {
		t.Error("locked result must render its value")
	}
	if (Result{Out: Any}).String() != "?" {
		t.Error("any result must render ?")
	}
}

// --- Figure 1: class-1 FLV, n=6, b=1, f=0, TD=5 ---------------------------
//
// v1 is locked: TD-b = 4 honest processes vote v1; at most n-TD+b = 2
// processes vote v2. Any received vector with more than 2(n-TD+b) = 4
// messages must contain more than 2 copies of v1, so FLV returns v1.

func figure1Messages() []model.Message {
	return []model.Message{
		sel(v1, 0, nil), sel(v1, 0, nil), sel(v1, 0, nil), sel(v1, 0, nil),
		sel(v2, 0, nil), sel(v2, 0, nil),
	}
}

func TestFigure1FullVector(t *testing.T) {
	f := NewClass1(6, 5, 1)
	mu := model.Received{}
	for i, m := range figure1Messages() {
		mu[model.PID(i)] = m
	}
	got := f.Eval(mu, 1)
	if got.Out != Locked || got.Val != v1 {
		t.Fatalf("Eval(full Figure 1 vector) = %v, want locked v1", got)
	}
}

// Every subset of size 5 (> 2(n-TD+b) = 4) returns v1; every subset of
// size ≤ 4 returns v1 or null, never v2 or "?": FLV-agreement on the
// Figure 1 configuration, exhaustively.
func TestFigure1AllSubsets(t *testing.T) {
	f := NewClass1(6, 5, 1)
	msgs := figure1Messages()
	for mask := 0; mask < 1<<6; mask++ {
		mu := model.Received{}
		for i := 0; i < 6; i++ {
			if mask&(1<<i) != 0 {
				mu[model.PID(i)] = msgs[i]
			}
		}
		got := f.Eval(mu, 1)
		switch {
		case got.Out == Locked && got.Val != v1:
			t.Fatalf("subset %06b: returned %v, violating FLV-agreement", mask, got)
		case got.Out == Any:
			t.Fatalf("subset %06b: returned ?, violating FLV-agreement", mask)
		case len(mu) > 4 && got.Out != Locked:
			t.Fatalf("subset %06b (size %d > 4): returned %v, want locked v1", mask, len(mu), got)
		}
	}
}

// --- Figure 2: class-2 FLV, n=5, b=1, f=0, TD=4 ---------------------------
//
// v1 locked at phase φ1 = 2: TD-b = 3 honest processes hold (v1, φ1); one
// honest process holds (v2, φ2' < φ1); the Byzantine process forges
// (v2, φ2 > φ1). Timestamps + the >b multiplicity rule expose the forgery.

func figure2Messages() []model.Message {
	const phi1 = 2
	return []model.Message{
		sel(v1, phi1, nil), sel(v1, phi1, nil), sel(v1, phi1, nil),
		sel(v2, phi1-1, nil), // honest, older validation
		sel(v2, phi1+3, nil), // Byzantine, forged future timestamp
	}
}

func TestFigure2FullVector(t *testing.T) {
	f := NewClass2(5, 4, 1)
	mu := model.Received{}
	for i, m := range figure2Messages() {
		mu[model.PID(i)] = m
	}
	got := f.Eval(mu, 3)
	if got.Out != Locked || got.Val != v1 {
		t.Fatalf("Eval(full Figure 2 vector) = %v, want locked v1", got)
	}
}

func TestFigure2AllSubsets(t *testing.T) {
	f := NewClass2(5, 4, 1)
	msgs := figure2Messages()
	for mask := 0; mask < 1<<5; mask++ {
		mu := model.Received{}
		for i := 0; i < 5; i++ {
			if mask&(1<<i) != 0 {
				mu[model.PID(i)] = msgs[i]
			}
		}
		got := f.Eval(mu, 3)
		switch {
		case got.Out == Locked && got.Val != v1:
			t.Fatalf("subset %05b: returned %v, violating FLV-agreement", mask, got)
		case got.Out == Any:
			t.Fatalf("subset %05b: returned ?, violating FLV-agreement", mask)
		// |µ| > n-TD+2b = 3 must produce the locked value.
		case len(mu) > 3 && got.Out != Locked:
			t.Fatalf("subset %05b (size %d > 3): returned %v, want locked v1", mask, len(mu), got)
		}
	}
}

// The forged high timestamp alone (without >b backing) must never win even
// when the Byzantine message has the highest support count.
func TestClass2ForgedTimestampNeedsMultiplicity(t *testing.T) {
	f := NewClass2(5, 4, 1)
	mu := model.Received{
		0: sel(v1, 2, nil),
		1: sel(v1, 2, nil),
		2: sel(v2, 9, nil), // Byzantine: support = |µ| by ts domination
		3: sel(v1, 2, nil),
	}
	got := f.Eval(mu, 3)
	if got.Out != Locked || got.Val != v1 {
		t.Fatalf("Eval = %v, want locked v1 despite forged ts", got)
	}
}

// --- Figure 3: class-3 FLV, n=4, b=1, f=0, TD=3 ---------------------------
//
// v1 locked at phase φ1 = 2: TD-b = 2 honest processes hold (v1, φ1) with
// histories containing (v1, φ1); one honest process holds (v2, φ2' < φ1);
// the Byzantine process forges (v2, φ2 > φ1) with a fabricated history.
// Histories prove validation: only (v1, φ1) is backed by > b = 1 histories.

func figure3Messages() []model.Message {
	const phi1 = 2
	h1 := model.NewHistory(v1).Add(v1, phi1)
	h2 := model.NewHistory(v2).Add(v1, phi1)
	h3 := model.NewHistory(v2).Add(v2, phi1-1)
	h4 := model.NewHistory(v2).Add(v2, phi1+3) // forged
	return []model.Message{
		sel(v1, phi1, h1),
		sel(v1, phi1, h2),
		sel(v2, phi1-1, h3),
		sel(v2, phi1+3, h4),
	}
}

func TestFigure3FullVector(t *testing.T) {
	f := NewClass3(4, 3, 1, false)
	mu := model.Received{}
	for i, m := range figure3Messages() {
		mu[model.PID(i)] = m
	}
	got := f.Eval(mu, 3)
	if got.Out != Locked || got.Val != v1 {
		t.Fatalf("Eval(full Figure 3 vector) = %v, want locked v1", got)
	}
}

func TestFigure3AllSubsets(t *testing.T) {
	f := NewClass3(4, 3, 1, false)
	msgs := figure3Messages()
	for mask := 0; mask < 1<<4; mask++ {
		mu := model.Received{}
		for i := 0; i < 4; i++ {
			if mask&(1<<i) != 0 {
				mu[model.PID(i)] = msgs[i]
			}
		}
		got := f.Eval(mu, 3)
		if got.Out == Locked && got.Val != v1 {
			t.Fatalf("subset %04b: returned %v, violating FLV-agreement", mask, got)
		}
		if got.Out == Any {
			t.Fatalf("subset %04b: returned ?, violating FLV-agreement", mask)
		}
	}
}

// A forged history entry backed by only the forger is not enough: the >b
// backing rule rejects it even when its (vote, ts) pair has top support.
// On this 3-message vector the Byzantine message dominates by timestamp so
// (v2, 7) is in possibleVotes, but with a single backer the safe answer is
// null — never v2 and never "?".
func TestClass3ForgedHistoryRejected(t *testing.T) {
	f := NewClass3(4, 3, 1, false)
	forged := model.NewHistory(v2).Add(v2, 7)
	mu := model.Received{
		0: sel(v1, 2, model.NewHistory(v1).Add(v1, 2)),
		1: sel(v1, 2, model.NewHistory(v1).Add(v1, 2)),
		2: sel(v2, 7, forged),
	}
	got := f.Eval(mu, 3)
	if got.Out != None {
		t.Fatalf("Eval = %v, want null (forged entry has 1 backer ≤ b)", got)
	}
	// Adding the fourth (honest, old-timestamp) message restores enough
	// information to identify v1 (this is the Figure 3 vector).
	mu[3] = sel(v2, 1, model.NewHistory(v2).Add(v2, 1))
	got = f.Eval(mu, 3)
	if got.Out != Locked || got.Val != v1 {
		t.Fatalf("Eval(4 msgs) = %v, want locked v1", got)
	}
}

// Unanimity (lines 8-9 of Algorithm 4): when all timestamps are 0 and a
// strict majority votes v, v is returned — only when unanimity is enabled.
func TestClass3Unanimity(t *testing.T) {
	// n=5, b=1, TD=3 (valid class 3): four correct messages, three voting
	// v1. No (v, 0) pair reaches support > n-TD+b = 3, so correctVotes is
	// empty and the ts=0 branch is taken; v1 holds a strict majority of µ.
	mu := model.Received{
		0: sel(v1, 0, model.NewHistory(v1)),
		1: sel(v1, 0, model.NewHistory(v1)),
		2: sel(v1, 0, model.NewHistory(v1)),
		3: sel(v2, 0, model.NewHistory(v2)),
	}
	withU := NewClass3(5, 3, 1, true)
	got := withU.Eval(mu, 1)
	if got.Out != Locked || got.Val != v1 {
		t.Fatalf("unanimity variant: Eval = %v, want locked v1", got)
	}
	withoutU := NewClass3(5, 3, 1, false)
	got = withoutU.Eval(mu, 1)
	if got.Out != Any {
		t.Fatalf("non-unanimity variant: Eval = %v, want ?", got)
	}
}

// Without a majority the unanimity branch returns "?" even when enabled.
func TestClass3UnanimityNoMajority(t *testing.T) {
	mu := model.Received{
		0: sel(v1, 0, model.NewHistory(v1)),
		1: sel(v1, 0, model.NewHistory(v1)),
		2: sel(v2, 0, model.NewHistory(v2)),
		3: sel(v2, 0, model.NewHistory(v2)),
	}
	f := NewClass3(4, 3, 1, true)
	if got := f.Eval(mu, 1); got.Out != Any {
		t.Fatalf("Eval = %v, want ?", got)
	}
}

// --- Algorithm 8 (PBFT) ≡ class 3 without unanimity ------------------------

func TestPBFTMatchesClass3(t *testing.T) {
	n, b := 4, 1
	pbft := NewPBFT(n, b)
	generic := NewClass3(n, 2*b+1, b, false)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		mu := randomVector(rng, n, 4)
		g1 := pbft.Eval(mu, model.Phase(1+rng.Intn(4)))
		g2 := generic.Eval(mu, model.Phase(1+rng.Intn(4)))
		if g1 != g2 {
			t.Fatalf("trial %d: PBFT FLV %v != class-3 FLV %v on %v", trial, g1, g2, mu)
		}
	}
}

// --- Algorithm 7 (Paxos) ---------------------------------------------------

func TestPaxosFLVPicksHighestTimestamp(t *testing.T) {
	f := NewPaxos(3)
	mu := model.Received{
		0: sel(v1, 2, nil),
		1: sel(v1, 1, nil),
		2: sel(v2, 0, nil),
	}
	got := f.Eval(mu, 3)
	if got.Out != Locked || got.Val != v1 {
		t.Fatalf("Eval = %v, want locked v1 (highest ts)", got)
	}
}

func TestPaxosFLVFreshSystem(t *testing.T) {
	f := NewPaxos(3)
	mu := model.Received{
		0: sel(v1, 0, nil),
		1: sel(v2, 0, nil),
	}
	got := f.Eval(mu, 1)
	if got.Out != Any {
		t.Fatalf("Eval = %v, want ? (nothing locked, majority heard)", got)
	}
}

func TestPaxosFLVInsufficientInfo(t *testing.T) {
	f := NewPaxos(5)
	mu := model.Received{0: sel(v1, 0, nil), 1: sel(v2, 0, nil)}
	got := f.Eval(mu, 1)
	if got.Out != None {
		t.Fatalf("Eval = %v, want null (|µ| ≤ n/2)", got)
	}
}

func TestPaxosFLVLockedMajority(t *testing.T) {
	f := NewPaxos(3)
	mu := model.Received{
		0: sel(v1, 1, nil),
		1: sel(v1, 1, nil),
	}
	got := f.Eval(mu, 2)
	if got.Out != Locked || got.Val != v1 {
		t.Fatalf("Eval = %v, want locked v1", got)
	}
}

// --- Algorithm 9 (Ben-Or) --------------------------------------------------

func TestBenOrFLV(t *testing.T) {
	f := NewBenOr(1)
	phase := model.Phase(3)
	tests := []struct {
		name string
		mu   model.Received
		want Result
	}{
		{
			name: "b+1 votes validated last phase",
			mu: model.Received{
				0: sel(v1, phase-1, nil),
				1: sel(v1, phase-1, nil),
				2: sel(v2, 0, nil),
			},
			want: Result{Out: Locked, Val: v1},
		},
		{
			name: "only b votes validated last phase",
			mu: model.Received{
				0: sel(v1, phase-1, nil),
				1: sel(v2, 0, nil),
				2: sel(v2, 0, nil),
			},
			want: Result{Out: Any},
		},
		{
			name: "stale validation ignored",
			mu: model.Received{
				0: sel(v1, phase-2, nil),
				1: sel(v1, phase-2, nil),
			},
			want: Result{Out: Any},
		},
		{name: "empty vector still returns ?", mu: model.Received{}, want: Result{Out: Any}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := f.Eval(tt.mu, phase); got != tt.want {
				t.Fatalf("Eval = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestBenOrNeverNull(t *testing.T) {
	f := NewBenOr(1)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		mu := randomVector(rng, 5, 4)
		if got := f.Eval(mu, model.Phase(1+rng.Intn(5))); got.Out == None {
			t.Fatalf("Ben-Or FLV returned null on %v", mu)
		}
	}
}

// --- FLV-liveness tightness (E-TIGHT at the FLV level) ---------------------

// MQB at n = 4b (one below its bound): even a vector containing a message
// from every correct process can yield null — FLV-liveness fails.
func TestClass2LivenessFailsBelowBound(t *testing.T) {
	// n=4, b=1, f=0; the largest TD compatible with termination is
	// n-b = 3, which violates TD > 3b = 3.
	f := NewClass2(4, 3, 1)
	// Protocol-reachable: three correct processes with distinct validated
	// values at distinct phases (possible across phases in bad periods).
	mu := model.Received{
		0: sel(v1, 2, nil),
		1: sel(v2, 1, nil),
		2: sel(v3, 0, nil),
	}
	if got := f.Eval(mu, 3); got.Out != None {
		t.Fatalf("Eval = %v, want null: FLV-liveness must fail at n=4b", got)
	}
}

// MQB at its bound n = 4b+1: any vector with all n-b = 4 correct messages
// yields non-null.
func TestClass2LivenessHoldsAtBound(t *testing.T) {
	f := NewClass2(5, 4, 1)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 500; trial++ {
		mu := honestReachableVector(rng, 4)
		if got := f.Eval(mu, 5); got.Out == None {
			t.Fatalf("trial %d: null on full correct vector %v", trial, mu)
		}
	}
}

// FaB at n = 5b: with TD = n-b (max for termination), FLV-liveness fails.
func TestClass1LivenessFailsBelowBound(t *testing.T) {
	f := NewClass1(5, 4, 1) // n=5b, TD = n-b = 4 ≤ (n+3b)/2
	mu := model.Received{
		0: sel(v1, 0, nil),
		1: sel(v1, 0, nil),
		2: sel(v2, 0, nil),
		3: sel(v2, 0, nil),
	}
	if got := f.Eval(mu, 1); got.Out != None {
		t.Fatalf("Eval = %v, want null: FLV-liveness must fail at n=5b", got)
	}
}

func TestClass1LivenessHoldsAtBound(t *testing.T) {
	f := NewClass1(6, 5, 1) // n = 5b+1, TD = n-b = 5
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 500; trial++ {
		mu := model.Received{}
		for i := 0; i < 5; i++ { // all n-b correct messages
			mu[model.PID(i)] = sel([]model.Value{v1, v2, v3}[rng.Intn(3)], 0, nil)
		}
		if got := f.Eval(mu, 1); got.Out == None {
			t.Fatalf("trial %d: null on full correct vector %v", trial, mu)
		}
	}
}

// --- Property-based FLV property tests --------------------------------------

// randomVector builds a fully arbitrary µ (for validity-style properties).
func randomVector(rng *rand.Rand, n, maxPhase int) model.Received {
	mu := model.Received{}
	vals := []model.Value{v1, v2, v3}
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			continue // missing message
		}
		v := vals[rng.Intn(len(vals))]
		ts := model.Phase(rng.Intn(maxPhase))
		h := model.NewHistory(vals[rng.Intn(len(vals))])
		for j := 0; j < rng.Intn(3); j++ {
			h = h.Add(vals[rng.Intn(len(vals))], model.Phase(rng.Intn(maxPhase)))
		}
		mu[model.PID(i)] = sel(v, ts, h)
	}
	return mu
}

// honestReachableVector builds a µ of exactly k honest messages consistent
// with the protocol: per-process (vote, ts) with ts-consistent histories and
// at most one validated value per phase across the vector (Lemma 4).
func honestReachableVector(rng *rand.Rand, k int) model.Received {
	vals := []model.Value{v1, v2, v3}
	// One validated value per phase.
	phaseVal := map[model.Phase]model.Value{}
	mu := model.Received{}
	for i := 0; i < k; i++ {
		ts := model.Phase(rng.Intn(3))
		var v model.Value
		if ts == 0 {
			v = vals[rng.Intn(len(vals))]
		} else {
			if existing, ok := phaseVal[ts]; ok {
				v = existing
			} else {
				v = vals[rng.Intn(len(vals))]
				phaseVal[ts] = v
			}
		}
		h := model.NewHistory(v)
		if ts > 0 {
			h = h.Add(v, ts)
		}
		mu[model.PID(i)] = sel(v, ts, h)
	}
	return mu
}

// FLV-validity for all instantiations: a Locked result's value appears as a
// vote in µ.
func TestFLVValidityProperty(t *testing.T) {
	funcs := []Func{
		NewClass1(6, 5, 1),
		NewClass2(5, 4, 1),
		NewClass3(4, 3, 1, false),
		NewClass3(4, 3, 1, true),
		NewPaxos(5),
		NewPBFT(4, 1),
		NewBenOr(1),
	}
	prop := func(seed int64, phaseRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		phase := model.Phase(1 + phaseRaw%5)
		mu := randomVector(rng, 6, 5)
		for _, f := range funcs {
			res := f.Eval(mu, phase)
			if res.Out != Locked {
				continue
			}
			found := false
			for _, v := range mu.Votes() {
				if v == res.Val {
					found = true
					break
				}
			}
			if !found {
				t.Logf("%s returned %v not present in %v", f.Name(), res, mu)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// FLV-agreement property for class 1: plant a decided value (TD-b honest
// v-votes), add adversarial fill, evaluate arbitrary subsets: only v or null
// may be returned.
func TestClass1AgreementProperty(t *testing.T) {
	n, td, b := 6, 5, 1
	f := NewClass1(n, td, b)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		locked := v1
		msgs := make([]model.Message, 0, n)
		for i := 0; i < td-b; i++ { // honest processes that decided v1
			msgs = append(msgs, sel(locked, 0, nil))
		}
		for i := td - b; i < n-b; i++ { // other honest: must also hold v1
			// With FLAG=*, once v1 is decided every honest vote is v1
			// (agreement proof, case φ' > φ). Model the worst case
			// where the adversary controls everything else:
			msgs = append(msgs, sel(locked, 0, nil))
		}
		for i := n - b; i < n; i++ { // Byzantine: arbitrary
			msgs = append(msgs, sel([]model.Value{v2, v3}[rng.Intn(2)], model.Phase(rng.Intn(9)), nil))
		}
		// Arbitrary subset.
		mu := model.Received{}
		for i, m := range msgs {
			if rng.Intn(2) == 0 {
				mu[model.PID(i)] = m
			}
		}
		res := f.Eval(mu, model.Phase(1+rng.Intn(4)))
		return res.Out == None || (res.Out == Locked && res.Val == locked)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// FLV-agreement property for class 2: v1 validated at phase φ1 by TD-b
// honest processes; remaining honest have older timestamps (Lemma 4 (**));
// Byzantine fill is arbitrary. Only v1 or null may come back.
func TestClass2AgreementProperty(t *testing.T) {
	n, td, b := 5, 4, 1
	f := NewClass2(n, td, b)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const phi1 = model.Phase(3)
		locked := v1
		msgs := make([]model.Message, 0, n)
		for i := 0; i < td-b; i++ {
			msgs = append(msgs, sel(locked, phi1, nil))
		}
		for i := td - b; i < n-b; i++ {
			// Honest process that missed the validation: either votes
			// v1 too, or holds an older timestamp with any value.
			if rng.Intn(2) == 0 {
				msgs = append(msgs, sel(locked, model.Phase(rng.Intn(int(phi1)+1)), nil))
			} else {
				msgs = append(msgs, sel([]model.Value{v2, v3}[rng.Intn(2)], model.Phase(rng.Intn(int(phi1))), nil))
			}
		}
		for i := n - b; i < n; i++ { // Byzantine: arbitrary, incl. forged future ts
			msgs = append(msgs, sel([]model.Value{v1, v2, v3}[rng.Intn(3)], model.Phase(rng.Intn(12)), nil))
		}
		mu := model.Received{}
		for i, m := range msgs {
			if rng.Intn(2) == 0 {
				mu[model.PID(i)] = m
			}
		}
		res := f.Eval(mu, phi1+1)
		return res.Out == None || (res.Out == Locked && res.Val == locked)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// FLV-agreement property for class 3, with forged Byzantine histories.
func TestClass3AgreementProperty(t *testing.T) {
	n, td, b := 4, 3, 1
	f := NewClass3(n, td, b, false)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const phi1 = model.Phase(3)
		locked := v1
		msgs := make([]model.Message, 0, n)
		for i := 0; i < td-b; i++ {
			h := model.NewHistory(locked).Add(locked, phi1)
			msgs = append(msgs, sel(locked, phi1, h))
		}
		for i := td - b; i < n-b; i++ {
			// Honest laggard: older ts; history entries all ≤ phi1,
			// and any entry at phi1 must be for v1 (Lemma 4).
			w := []model.Value{v2, v3}[rng.Intn(2)]
			ts := model.Phase(rng.Intn(int(phi1)))
			h := model.NewHistory(w).Add(w, ts)
			if rng.Intn(2) == 0 {
				h = h.Add(locked, phi1) // selected v1 but missed validation
			}
			msgs = append(msgs, sel(w, ts, h))
		}
		for i := n - b; i < n; i++ { // Byzantine: forged everything
			w := []model.Value{v1, v2, v3}[rng.Intn(3)]
			ts := model.Phase(rng.Intn(12))
			h := model.NewHistory(w).Add(w, ts).Add(w, ts+1)
			msgs = append(msgs, sel(w, ts, h))
		}
		mu := model.Received{}
		for i, m := range msgs {
			if rng.Intn(2) == 0 {
				mu[model.PID(i)] = m
			}
		}
		res := f.Eval(mu, phi1+1)
		return res.Out == None || (res.Out == Locked && res.Val == locked)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// FLV-liveness property: a vector containing messages from all n-b-f correct
// processes (protocol-reachable states) never yields null, for valid configs
// of each class.
func TestFLVLivenessProperty(t *testing.T) {
	type tc struct {
		name    string
		f       Func
		correct int
	}
	cases := []tc{
		{"class1 n=6 td=5 b=1", NewClass1(6, 5, 1), 5},
		{"class2 n=5 td=4 b=1", NewClass2(5, 4, 1), 4},
		{"paxos n=3", NewPaxos(3), 2},
		{"ben-or b=1", NewBenOr(1), 4},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			prop := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				mu := honestReachableVector(rng, c.correct)
				return c.f.Eval(mu, 5).Out != None
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Class-3 FLV-liveness needs the b+1 history backing that
// Selector-strongValidity guarantees; build vectors accordingly.
func TestClass3LivenessProperty(t *testing.T) {
	n, td, b := 4, 3, 1
	f := NewClass3(n, td, b, false)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		correct := n - b
		mu := model.Received{}
		if rng.Intn(2) == 0 {
			// Case 1: all timestamps zero.
			for i := 0; i < correct; i++ {
				v := []model.Value{v1, v2, v3}[rng.Intn(3)]
				mu[model.PID(i)] = sel(v, 0, model.NewHistory(v))
			}
		} else {
			// Case 2: highest timestamp value backed by ≥ b+1
			// histories (Selector-strongValidity consequence).
			tsMax := model.Phase(1 + rng.Intn(3))
			vMax := v1
			for i := 0; i < correct; i++ {
				if i <= b { // b+1 processes logged (vMax, tsMax)
					h := model.NewHistory(vMax).Add(vMax, tsMax)
					ts := tsMax
					if i > 0 && rng.Intn(2) == 0 {
						ts = model.Phase(rng.Intn(int(tsMax)))
					}
					v := vMax
					if ts != tsMax {
						v = []model.Value{v1, v2}[rng.Intn(2)]
						h = model.NewHistory(v).Add(v, ts).Add(vMax, tsMax)
					}
					mu[model.PID(i)] = sel(v, ts, h)
				} else {
					v := []model.Value{v2, v3}[rng.Intn(2)]
					ts := model.Phase(rng.Intn(int(tsMax)))
					h := model.NewHistory(v).Add(v, ts)
					mu[model.PID(i)] = sel(v, ts, h)
				}
			}
		}
		return f.Eval(mu, 5).Out != None
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Determinism: identical vectors yield identical results (prerequisite for
// Pcons-based convergence).
func TestFLVDeterminismProperty(t *testing.T) {
	funcs := []Func{
		NewClass1(6, 5, 1), NewClass2(5, 4, 1), NewClass3(4, 3, 1, true),
		NewPaxos(5), NewPBFT(4, 1), NewBenOr(1),
	}
	prop := func(seed int64, phaseRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		mu := randomVector(rng, 6, 5)
		phase := model.Phase(1 + phaseRaw%5)
		for _, f := range funcs {
			if f.Eval(mu, phase) != f.Eval(maps.Clone(mu), phase) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFLVNames(t *testing.T) {
	names := map[string]Func{
		"flv/class1": NewClass1(6, 5, 1),
		"flv/class2": NewClass2(5, 4, 1),
		"flv/class3": NewClass3(4, 3, 1, false),
		"flv/paxos":  NewPaxos(3),
		"flv/ben-or": NewBenOr(1),
	}
	for want, f := range names {
		if got := f.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
	if NewPBFT(4, 1).Name() != "flv/class3" {
		t.Error("PBFT FLV must report the class-3 name")
	}
	if NewFaB(6, 1).Name() != "flv/class1" {
		t.Error("FaB FLV must report the class-1 name")
	}
}

// NewFaB must equal NewClass1 with TD = ⌈(n+3b+1)/2⌉.
func TestFaBEqualsClass1(t *testing.T) {
	n, b := 7, 1
	fab := NewFaB(n, b)
	cls := NewClass1(n, 6, b)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		mu := randomVector(rng, n, 3)
		if fab.Eval(mu, 1) != cls.Eval(mu, 1) {
			t.Fatalf("FaB and class-1(TD=6) disagree on %v", mu)
		}
	}
}
