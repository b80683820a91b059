package wic

import (
	"testing"

	"genconsensus/internal/auth"
	"genconsensus/internal/core"
	"genconsensus/internal/model"
	"genconsensus/internal/sim"
)

// benchWIC measures a full PBFT decision with Pcons built from Pgood by the
// given construction (E-WIC): relay adds 1 outer round per phase, echo
// adds 2, and both multiply selection-round traffic.
func benchWIC(b *testing.B, mode Mode) {
	n, byz := 4, 1
	params := innerParams(n, byz)
	kr, err := auth.NewKeyring(n, 7)
	if err != nil {
		b.Fatal(err)
	}
	vals := []model.Value{"b", "a", "c", "a"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		procs := map[model.PID]model.Proc{}
		inits := map[model.PID]model.Value{}
		for j := 0; j < n; j++ {
			p := model.PID(j)
			inner, err := core.NewProcess(p, vals[j], params)
			if err != nil {
				b.Fatal(err)
			}
			inits[p] = vals[j]
			w, err := Wrap(inner, Config{N: n, B: byz, Mode: mode, Keyring: kr}, params.Schedule())
			if err != nil {
				b.Fatal(err)
			}
			procs[p] = w
		}
		sched := core.Schedule{Flag: model.FlagPhase}
		e, err := sim.New(sim.Config{
			Params: core.Params{N: n, B: byz, F: 0},
			Inits:  inits,
			Procs:  procs,
			Sched:  &sched,
			Modes:  func(model.Round, model.RoundKind) sim.Mode { return sim.ModeGood },
			Seed:   int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		res := e.Run()
		if !res.AllDecided || len(res.Violations) > 0 {
			b.Fatalf("run failed: %+v", res.Violations)
		}
	}
}

func BenchmarkWICRelay(b *testing.B) { benchWIC(b, Relay) }
func BenchmarkWICEcho(b *testing.B)  { benchWIC(b, Echo) }

// Baseline without WIC: the Pcons-oracle execution the constructions are
// compared against.
func BenchmarkWICOracleBaseline(b *testing.B) {
	n, byz := 4, 1
	params := innerParams(n, byz)
	vals := []model.Value{"b", "a", "c", "a"}
	inits := map[model.PID]model.Value{}
	for j := 0; j < n; j++ {
		inits[model.PID(j)] = vals[j]
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := sim.New(sim.Config{Params: params, Inits: inits, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		res := e.Run()
		if !res.AllDecided || len(res.Violations) > 0 {
			b.Fatalf("run failed: %+v", res.Violations)
		}
	}
}
