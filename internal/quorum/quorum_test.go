package quorum

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestClassMeta(t *testing.T) {
	tests := []struct {
		class  Class
		rounds int
		state  int
		str    string
	}{
		{Class1, 2, 1, "class 1"},
		{Class2, 3, 2, "class 2"},
		{Class3, 3, 3, "class 3"},
	}
	for _, tt := range tests {
		if got := tt.class.RoundsPerPhase(); got != tt.rounds {
			t.Errorf("%v RoundsPerPhase = %d, want %d", tt.class, got, tt.rounds)
		}
		if got := len(tt.class.StateVars()); got != tt.state {
			t.Errorf("%v StateVars count = %d, want %d", tt.class, got, tt.state)
		}
		if got := tt.class.String(); got != tt.str {
			t.Errorf("String = %q, want %q", got, tt.str)
		}
	}
}

// Table 1, "n" column: MinN must be bound+1 with the bounds 5b+3f, 4b+2f,
// 3b+2f.
func TestMinN(t *testing.T) {
	tests := []struct {
		class Class
		b, f  int
		want  int
	}{
		{Class1, 0, 1, 4},  // OneThirdRule: n > 3f
		{Class1, 1, 0, 6},  // FaB Paxos: n > 5b
		{Class1, 2, 1, 14}, // mixed
		{Class2, 0, 1, 3},  // Paxos/CT: n > 2f
		{Class2, 1, 0, 5},  // MQB: n > 4b
		{Class2, 2, 3, 15},
		{Class3, 0, 2, 5}, // Paxos: n > 2f
		{Class3, 1, 0, 4}, // PBFT: n > 3b
		{Class3, 3, 1, 12},
	}
	for _, tt := range tests {
		if got := MinN(tt.class, tt.b, tt.f); got != tt.want {
			t.Errorf("MinN(%v, b=%d, f=%d) = %d, want %d", tt.class, tt.b, tt.f, got, tt.want)
		}
	}
}

// At n = MinN the class is feasible (MinTD ≤ MaxTD) and at n = MinN-1 it is
// not: Table 1's bounds are exactly the feasibility frontier of
// MinTD ≤ TD ≤ n-b-f.
func TestBoundsAreTight(t *testing.T) {
	for _, class := range []Class{Class1, Class2, Class3} {
		for b := 0; b <= 4; b++ {
			for f := 0; f <= 4; f++ {
				nMin := MinN(class, b, f)
				if MinTD(class, nMin, b, f) > MaxTD(nMin, b, f) {
					t.Errorf("%v b=%d f=%d: infeasible at its own MinN=%d", class, b, f, nMin)
				}
				if nMin <= 1 {
					continue
				}
				nBelow := nMin - 1
				if MinTD(class, nBelow, b, f) <= MaxTD(nBelow, b, f) {
					t.Errorf("%v b=%d f=%d: feasible below the bound at n=%d", class, b, f, nBelow)
				}
			}
		}
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr error
	}{
		{"valid PBFT", Config{Class3, 4, 1, 0, 3}, nil},
		{"valid Paxos", Config{Class2, 3, 0, 1, 2}, nil},
		{"valid MQB", Config{Class2, 5, 1, 0, 4}, nil},
		{"valid FaB", Config{Class1, 6, 1, 0, 5}, nil},
		{"valid OTR", Config{Class1, 4, 0, 1, 3}, nil},
		{"zero n", Config{Class1, 0, 0, 0, 1}, ErrNonPositiveN},
		{"negative b", Config{Class1, 4, -1, 0, 3}, ErrNegativeB},
		{"negative f", Config{Class1, 4, 0, -1, 3}, ErrNegativeF},
		{"n below bound PBFT", Config{Class3, 3, 1, 0, 3}, ErrNTooSmall},
		{"n below bound MQB", Config{Class2, 4, 1, 0, 4}, ErrNTooSmall},
		{"TD too small", Config{Class3, 4, 1, 0, 2}, ErrTDTooSmall},
		{"TD too large", Config{Class3, 4, 1, 0, 4}, ErrTDTooLarge},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if tt.wantErr == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("Validate() = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestMoreThanHalf(t *testing.T) {
	tests := []struct {
		count, total int
		want         bool
	}{
		{3, 5, true},  // 3 > 2.5
		{3, 6, false}, // 3 > 3 is false
		{4, 6, true},
		{0, 0, false},
		{1, 1, true}, // 1 > 0.5
	}
	for _, tt := range tests {
		if got := MoreThanHalf(tt.count, tt.total); got != tt.want {
			t.Errorf("MoreThanHalf(%d, %d) = %v, want %v", tt.count, tt.total, got, tt.want)
		}
	}
}

// The named thresholds of §5/§6 must satisfy their class constraints at the
// algorithm's own minimal n, and sit exactly at the feasibility point there.
func TestNamedThresholds(t *testing.T) {
	tests := []struct {
		name  string
		class Class
		n     int
		b, f  int
		td    int
	}{
		{"OneThirdRule n=4 f=1", Class1, 4, 0, 1, OneThirdRuleTD(4)},
		{"OneThirdRule n=7 f=2", Class1, 7, 0, 2, OneThirdRuleTD(7)},
		{"FaB n=6 b=1", Class1, 6, 1, 0, FaBPaxosTD(6, 1)},
		{"FaB n=11 b=2", Class1, 11, 2, 0, FaBPaxosTD(11, 2)},
		{"MQB n=5 b=1", Class2, 5, 1, 0, MQBTD(5, 1)},
		{"MQB n=9 b=2", Class2, 9, 2, 0, MQBTD(9, 2)},
		{"Paxos n=3 f=1", Class2, 3, 0, 1, PaxosTD(3)},
		{"Paxos n=5 f=2", Class3, 5, 0, 2, PaxosTD(5)},
		{"CT n=3 f=1", Class2, 3, 0, 1, ChandraTouegTD(1)},
		{"PBFT n=4 b=1", Class3, 4, 1, 0, PBFTTD(1)},
		{"PBFT n=7 b=2", Class3, 7, 2, 0, PBFTTD(2)},
		{"BenOr benign n=3 f=1", Class2, 3, 0, 1, BenOrBenignTD(1)},
		{"BenOr byz n=5 b=1", Class2, 5, 1, 0, BenOrByzantineTD(1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := Config{Class: tt.class, N: tt.n, B: tt.b, F: tt.f, TD: tt.td}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("named threshold invalid: %v", err)
			}
		})
	}
}

// Specific named-threshold values quoted in the paper.
func TestNamedThresholdValues(t *testing.T) {
	if got := OneThirdRuleTD(3); got != 3 {
		t.Errorf("OneThirdRuleTD(3) = %d, want 3", got)
	}
	if got := OneThirdRuleTD(9); got != 7 {
		t.Errorf("OneThirdRuleTD(9) = %d, want 7 (> 2n/3)", got)
	}
	// Footnote 13: n=7, b=1 ⇒ FaB needs ⌈(n-b+1)/2⌉ = 4 equal messages in
	// the original; TD here is ⌈(7+3+1)/2⌉ = 6.
	if got := FaBPaxosTD(7, 1); got != 6 {
		t.Errorf("FaBPaxosTD(7,1) = %d, want 6", got)
	}
	if got := MQBTD(5, 1); got != 4 {
		t.Errorf("MQBTD(5,1) = %d, want 4", got)
	}
	if got := PaxosTD(4); got != 3 {
		t.Errorf("PaxosTD(4) = %d, want 3", got)
	}
	if got := PBFTTD(2); got != 5 {
		t.Errorf("PBFTTD(2) = %d, want 5", got)
	}
}

// Property (used throughout the FLV proofs): for any valid class-1 config,
// liveness arithmetic n-b-f > 2(n-TD+b) holds, and the agreement overlap
// 2(TD-b) > n-b holds.
func TestClass1ArithmeticProperty(t *testing.T) {
	f := func(bRaw, fRaw, extraN, extraTD uint8) bool {
		b, fl := int(bRaw%3), int(fRaw%3)
		n := MinN(Class1, b, fl) + int(extraN%5)
		td := MinTD(Class1, n, b, fl) + int(extraTD%3)
		if td > MaxTD(n, b, fl) {
			td = MaxTD(n, b, fl)
		}
		cfg := Config{Class1, n, b, fl, td}
		if err := cfg.Validate(); err != nil {
			return false
		}
		liveness := n-b-fl > 2*(n-td+b)
		agreement := 2*(td-b) > n-b
		return liveness && agreement
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: class-2 liveness arithmetic n-b-f > n-TD+2b for valid configs.
func TestClass2ArithmeticProperty(t *testing.T) {
	f := func(bRaw, fRaw, extraN, extraTD uint8) bool {
		b, fl := int(bRaw%3), int(fRaw%3)
		n := MinN(Class2, b, fl) + int(extraN%5)
		td := MinTD(Class2, n, b, fl) + int(extraTD%3)
		if td > MaxTD(n, b, fl) {
			td = MaxTD(n, b, fl)
		}
		cfg := Config{Class2, n, b, fl, td}
		if err := cfg.Validate(); err != nil {
			return false
		}
		return n-b-fl > n-td+2*b && td > b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: class-3 liveness arithmetic n-b-f > n-TD+b for valid configs.
func TestClass3ArithmeticProperty(t *testing.T) {
	f := func(bRaw, fRaw, extraN, extraTD uint8) bool {
		b, fl := int(bRaw%3), int(fRaw%3)
		n := MinN(Class3, b, fl) + int(extraN%5)
		td := MinTD(Class3, n, b, fl) + int(extraTD%3)
		if td > MaxTD(n, b, fl) {
			td = MaxTD(n, b, fl)
		}
		cfg := Config{Class3, n, b, fl, td}
		if err := cfg.Validate(); err != nil {
			return false
		}
		return n-b-fl > n-td+b && td > b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// MinN ordering across classes: class 1 never needs fewer processes than
// class 2, which never needs fewer than class 3.
func TestClassOrderingProperty(t *testing.T) {
	f := func(bRaw, fRaw uint8) bool {
		b, fl := int(bRaw%8), int(fRaw%8)
		return MinN(Class1, b, fl) >= MinN(Class2, b, fl) &&
			MinN(Class2, b, fl) >= MinN(Class3, b, fl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// With b = 0 classes 2 and 3 coincide on every bound (the paper: "if b = 0,
// classes 2 and 3 are identical").
func TestBenignClassesCoincide(t *testing.T) {
	for f := 0; f <= 6; f++ {
		if MinN(Class2, 0, f) != MinN(Class3, 0, f) {
			t.Errorf("f=%d: MinN differs between class 2 and 3 with b=0", f)
		}
		for n := MinN(Class2, 0, f); n < MinN(Class2, 0, f)+4; n++ {
			if MinTD(Class2, n, 0, f) != MinTD(Class3, n, 0, f) {
				t.Errorf("n=%d f=%d: MinTD differs between class 2 and 3 with b=0", n, f)
			}
		}
	}
}
