package wic_test

import (
	"fmt"

	"genconsensus/internal/auth"
	"genconsensus/internal/core"
	"genconsensus/internal/flv"
	"genconsensus/internal/model"
	"genconsensus/internal/selector"
	"genconsensus/internal/sim"
	"genconsensus/internal/wic"
)

// The §2.2 unification: PBFT over a network that only ever guarantees
// Pgood, building the Pcons predicate its selection rounds need with each
// construction — the 2-round authenticated relay and the 3-round
// signature-free echo broadcast.
func ExampleWrap() {
	n, b := 4, 1
	params := core.Params{
		N: n, B: b, F: 0, TD: 2*b + 1,
		Flag:       model.FlagPhase,
		FLV:        flv.NewPBFT(n, b),
		Selector:   selector.NewAll(n),
		UseHistory: true,
	}
	keyring, err := auth.NewKeyring(n, 7)
	if err != nil {
		fmt.Println(err)
		return
	}
	vals := []model.Value{"b", "a", "c", "a"}

	fmt.Println("PBFT (n=4, b=1) over a Pgood-only network — Pcons is built,")
	fmt.Println("not assumed. The same algorithm, two constructions:")
	fmt.Println()
	for _, mode := range []wic.Mode{wic.Relay, wic.Echo} {
		procs := map[model.PID]model.Proc{}
		inits := map[model.PID]model.Value{}
		for i := 0; i < n; i++ {
			p := model.PID(i)
			inner, err := core.NewProcess(p, vals[i], params)
			if err != nil {
				fmt.Println(err)
				return
			}
			inits[p] = vals[i]
			wrapped, err := wic.Wrap(inner, wic.Config{
				N: n, B: b, Mode: mode, Keyring: keyring,
			}, params.Schedule())
			if err != nil {
				fmt.Println(err)
				return
			}
			procs[p] = wrapped
		}
		sched := core.Schedule{Flag: model.FlagPhase}
		engine, err := sim.New(sim.Config{
			Params: core.Params{N: n, B: b, F: 0},
			Inits:  inits,
			Procs:  procs,
			Sched:  &sched,
			// Pgood only: no round is ever canonicalized by the network.
			Modes: func(model.Round, model.RoundKind) sim.Mode { return sim.ModeGood },
			Seed:  3,
		})
		if err != nil {
			fmt.Println(err)
			return
		}
		res := engine.Run()
		if !res.AllDecided || len(res.Violations) > 0 {
			fmt.Printf("%s: decided=%v violations=%v\n", mode, res.AllDecided, res.Violations)
			continue
		}
		fmt.Printf("  %-10s micro-rounds per selection: %d; outer rounds to decision: %d;\n",
			mode, mode.Micros(), res.Rounds)
		fmt.Printf("  %-10s messages: %d, bytes: %d, decision: %q\n",
			"", res.Stats.MessagesSent, res.Stats.BytesSent, res.Decisions[0])
		fmt.Println()
	}
	fmt.Println("The relay needs signatures (the authenticated Byzantine model);")
	fmt.Println("the echo works with oral messages but costs one more round —")
	fmt.Println("exactly the 2-vs-3 round trade-off of §2.2.")
	// Output:
	// PBFT (n=4, b=1) over a Pgood-only network — Pcons is built,
	// not assumed. The same algorithm, two constructions:
	//
	//   wic/relay  micro-rounds per selection: 2; outer rounds to decision: 4;
	//              messages: 40, bytes: 2692, decision: "a"
	//
	//   wic/echo   micro-rounds per selection: 3; outer rounds to decision: 5;
	//              messages: 80, bytes: 6432, decision: "a"
	//
	// The relay needs signatures (the authenticated Byzantine model);
	// the echo works with oral messages but costs one more round —
	// exactly the 2-vs-3 round trade-off of §2.2.
}
