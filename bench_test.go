package genconsensus

// Benchmark harness: one benchmark per paper artifact (Table 1, Figures
// 1-3) plus the supporting substrates, each timing one layer. Whole-system
// throughput and latency are bench/'s job (bench/README.md). Run with:
//
//	go test -bench=. -benchmem
//
// Latency benchmarks measure complete simulated executions (all correct
// processes deciding); figure benchmarks measure single FLV evaluations on
// the exact vectors of the paper's figures.

import (
	"fmt"
	"testing"

	"genconsensus/internal/auth"
	"genconsensus/internal/core"
	"genconsensus/internal/flv"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/selector"
	"genconsensus/internal/smr"
	"genconsensus/internal/wire"
)

// runToDecision executes one fault-free simulated run and fails the
// benchmark on any anomaly.
func runToDecision(b *testing.B, spec *Spec, seed int64) {
	b.Helper()
	res, err := Run(spec, SplitInits(spec.N, "b", "a"), WithSeed(seed))
	if err != nil {
		b.Fatal(err)
	}
	if !res.AllDecided || len(res.Violations) > 0 {
		b.Fatalf("run failed: decided=%v violations=%v", res.AllDecided, res.Violations)
	}
}

// --- Table 1: one benchmark per class at its minimal n (b=1 or f=1) --------

func BenchmarkTable1Class1FaB(b *testing.B) {
	spec, err := NewFaBPaxos(6, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runToDecision(b, spec, int64(i))
	}
}

func BenchmarkTable1Class2MQB(b *testing.B) {
	spec, err := NewMQB(5, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runToDecision(b, spec, int64(i))
	}
}

func BenchmarkTable1Class3PBFT(b *testing.B) {
	spec, err := NewPBFT(4, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runToDecision(b, spec, int64(i))
	}
}

// --- Decision latency for every named instantiation ------------------------

func BenchmarkDecisionLatency(b *testing.B) {
	specs := []*Spec{}
	for _, mk := range []func() (*Spec, error){
		func() (*Spec, error) { return NewOneThirdRule(4, 1) },
		func() (*Spec, error) { return NewFaBPaxos(6, 1) },
		func() (*Spec, error) { return NewMQB(5, 1) },
		func() (*Spec, error) { return NewPaxos(3, 1) },
		func() (*Spec, error) { return NewChandraToueg(3, 1) },
		func() (*Spec, error) { return NewPBFT(4, 1) },
	} {
		spec, err := mk()
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, spec)
	}
	for _, spec := range specs {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runToDecision(b, spec, int64(i))
			}
		})
	}
}

// Scaling: PBFT decision latency as n grows at b = ⌊(n-1)/3⌋.
func BenchmarkPBFTScaling(b *testing.B) {
	for _, n := range []int{4, 7, 10, 13} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			spec, err := NewPBFT(n, (n-1)/3)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runToDecision(b, spec, int64(i))
			}
		})
	}
}

// --- Figures 1-3: FLV evaluation on the exact paper vectors ----------------

func figureVector(kind int) (flv.Func, model.Received, model.Phase) {
	sel := func(vote model.Value, ts model.Phase, hist model.History) model.Message {
		return model.Message{Kind: model.SelectionRound, Vote: vote, TS: ts, History: hist}
	}
	switch kind {
	case 1:
		mu := model.Received{
			0: sel("v1", 0, nil), 1: sel("v1", 0, nil), 2: sel("v1", 0, nil),
			3: sel("v1", 0, nil), 4: sel("v2", 0, nil), 5: sel("v2", 0, nil),
		}
		return flv.NewClass1(6, 5, 1), mu, 1
	case 2:
		mu := model.Received{
			0: sel("v1", 2, nil), 1: sel("v1", 2, nil), 2: sel("v1", 2, nil),
			3: sel("v2", 1, nil), 4: sel("v2", 5, nil),
		}
		return flv.NewClass2(5, 4, 1), mu, 3
	default:
		mu := model.Received{
			0: sel("v1", 2, model.NewHistory("v1").Add("v1", 2)),
			1: sel("v1", 2, model.NewHistory("v2").Add("v1", 2)),
			2: sel("v2", 1, model.NewHistory("v2").Add("v2", 1)),
			3: sel("v2", 5, model.NewHistory("v2").Add("v2", 5)),
		}
		return flv.NewClass3(4, 3, 1, false), mu, 3
	}
}

func benchFigure(b *testing.B, kind int) {
	f, mu, phase := figureVector(kind)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := f.Eval(mu, phase); res.Out != flv.Locked || res.Val != "v1" {
			b.Fatalf("unexpected FLV result %v", res)
		}
	}
}

func BenchmarkFigure1FLVClass1(b *testing.B) { benchFigure(b, 1) }
func BenchmarkFigure2FLVClass2(b *testing.B) { benchFigure(b, 2) }
func BenchmarkFigure3FLVClass3(b *testing.B) { benchFigure(b, 3) }

// FLV evaluation at larger scale (n = 3b+1 with b = 10).
func BenchmarkFLVClass3Large(b *testing.B) {
	n, byz := 31, 10
	f := flv.NewClass3(n, 2*byz+1, byz, false)
	mu := model.Received{}
	for i := 0; i < n; i++ {
		v := model.Value("v1")
		if i%3 == 0 {
			v = "v2"
		}
		mu[model.PID(i)] = model.Message{
			Kind: model.SelectionRound, Vote: v, TS: model.Phase(i % 4),
			History: model.NewHistory(v).Add(v, model.Phase(i%4)),
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Eval(mu, 5)
	}
}

// --- Randomized Ben-Or (§6) -------------------------------------------------

func BenchmarkBenOrBenign(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec, err := NewBenOr(3, 1, int64(i)*31+7)
		if err != nil {
			b.Fatal(err)
		}
		res, err := Run(spec, SplitInits(3, "0", "1"),
			WithSeed(int64(i)), WithRel(), WithMaxRounds(4000))
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllDecided {
			b.Fatal("no termination")
		}
	}
}

// --- Substrates --------------------------------------------------------------

func BenchmarkWireEncodeDecode(b *testing.B) {
	env := wire.Envelope{
		Instance: 3, Round: 7, Sender: 2,
		Msg: model.Message{
			Kind: model.SelectionRound, Vote: "value-a", TS: 4,
			History: model.NewHistory("value-a").Add("value-b", 2),
			Sel:     model.AllPIDs(7),
		},
	}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = wire.AppendEnvelope(buf[:0], env)
		if _, err := wire.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSMRInstance(b *testing.B) {
	params := core.Params{
		N: 4, B: 1, F: 0, TD: 3,
		Flag:       model.FlagPhase,
		FLV:        flv.NewPBFT(4, 1),
		Selector:   selector.NewAll(4),
		UseHistory: true,
	}
	ax := smr.NewAuthContext(auth.NewClientKeyring(11, 1), 0)
	cluster, err := smr.NewCluster(params, ax, func(model.PID) smr.StateMachine {
		store := kv.NewStore()
		store.EnableClientAuth(ax, 0)
		return store
	}, 11, smr.ClusterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	signer := auth.NewClientSigner(11, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cmd, err := kv.SignedCommand(signer, uint64(i+1), "SET", "k", "v")
		if err != nil {
			b.Fatal(err)
		}
		cluster.Submit(0, cmd)
		if _, err := cluster.RunInstance(); err != nil {
			b.Fatal(err)
		}
	}
}
