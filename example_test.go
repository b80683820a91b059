package genconsensus_test

import (
	"fmt"
	"sort"
	"strings"

	consensus "genconsensus"
)

// Building the paper's new MQB algorithm and running it fault-free.
func ExampleNewMQB() {
	spec, err := consensus.NewMQB(5, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := consensus.Run(spec,
		consensus.SplitInits(5, "b", "a"),
		consensus.WithSeed(1),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	// With proposals b,a,b,a,b the value "b" reaches three copies —
	// above the class-2 FLV support threshold — and is selected.
	fmt.Println(spec.Class, "rounds:", res.Rounds, "decision:", res.Decisions[0])
	// Output: class 2 rounds: 3 decision: b
}

// PBFT with an equivocating Byzantine process: all honest processes agree.
func ExampleNewPBFT() {
	spec, err := consensus.NewPBFT(4, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	inits := map[consensus.PID]consensus.Value{0: "x", 1: "y", 2: "x"}
	res, err := consensus.Run(spec, inits,
		consensus.WithSeed(1),
		consensus.WithByzantine(3, consensus.Equivocate("x", "y")),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	decisions := make([]string, 0, len(res.Decisions))
	for _, v := range res.Decisions {
		decisions = append(decisions, string(v))
	}
	sort.Strings(decisions)
	fmt.Println(decisions, len(res.Violations) == 0)
	// Output: [x x x] true
}

// The generic constructor classifies any (class, n, b, f) configuration.
func ExampleNewGeneric() {
	spec, err := consensus.NewGeneric(consensus.Class3, 6, 1, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(spec.TD, spec.RoundsPerPhase(), spec.StateVars())
	// Output: 4 3 [vote ts history]
}

// Below-bound configurations are rejected with the violated constraint.
func ExampleNewPBFT_belowBound() {
	_, err := consensus.NewPBFT(3, 1) // PBFT needs n > 3b
	fmt.Println(err != nil)
	// Output: true
}

// Five honest MQB processes (n = 4b+1) with split proposals, synchronous
// from phase 1: the Result says who decided what, when, and at what cost.
func ExampleResult() {
	spec, err := consensus.NewMQB(5, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("algorithm:", spec)
	fmt.Println("state variables:", spec.StateVars())

	inits := map[consensus.PID]consensus.Value{
		0: "apply-discount", 1: "reject-order", 2: "apply-discount",
		3: "reject-order", 4: "apply-discount",
	}
	res, err := consensus.Run(spec, inits, consensus.WithSeed(2024))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("decided in %d rounds (%d phases of %d rounds)\n",
		res.Rounds, (res.Rounds+spec.RoundsPerPhase()-1)/spec.RoundsPerPhase(),
		spec.RoundsPerPhase())
	for p := consensus.PID(0); p < 5; p++ {
		fmt.Printf("  process %d decided %q in round %d\n",
			p, res.Decisions[p], res.DecidedAt[p])
	}
	fmt.Printf("traffic: %d messages, %d bytes\n",
		res.Stats.MessagesSent, res.Stats.BytesSent)
	if len(res.Violations) > 0 {
		fmt.Println("property violations:", res.Violations)
		return
	}
	fmt.Println("agreement, validity: OK")
	// Output:
	// algorithm: MQB (class 2, n=5 b=1 f=0 TD=4 FLAG=φ, 3 rounds/phase)
	// state variables: [vote ts]
	// decided in 3 rounds (1 phases of 3 rounds)
	//   process 0 decided "apply-discount" in round 3
	//   process 1 decided "apply-discount" in round 3
	//   process 2 decided "apply-discount" in round 3
	//   process 3 decided "apply-discount" in round 3
	//   process 4 decided "apply-discount" in round 3
	// traffic: 75 messages, 2305 bytes
	// agreement, validity: OK
}

// PBFT (n = 3b+1) against a Byzantine process that sends conflicting votes
// with forged current-phase timestamps to the two halves of the cluster,
// with the network adversarial until phase 3: the honest processes still
// agree. When the network never stabilizes, termination cannot be
// expected, yet safety still holds.
func ExampleWithByzantine() {
	spec, err := consensus.NewPBFT(4, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("algorithm:", spec)

	inits := map[consensus.PID]consensus.Value{
		0: "commit", 1: "abort", 2: "commit",
		// process 3 is Byzantine: no initial value needed.
	}
	for seed := int64(0); seed < 3; seed++ {
		res, err := consensus.Run(spec, inits,
			consensus.WithSeed(seed),
			consensus.WithByzantine(3, consensus.Equivocate("commit", "abort")),
			consensus.WithGoodFromPhase(3),
			consensus.WithDropProbability(0.5),
		)
		if err != nil {
			fmt.Println(err)
			return
		}
		if len(res.Violations) > 0 {
			fmt.Printf("seed %d: violations: %v\n", seed, res.Violations)
			continue
		}
		fmt.Printf("seed %d: all honest processes decided %q after %d rounds (equivocator defeated)\n",
			seed, res.Decisions[0], res.Rounds)
	}

	res, err := consensus.Run(spec, inits,
		consensus.WithSeed(9),
		consensus.WithByzantine(3, consensus.Equivocate("commit", "abort")),
		consensus.WithAlwaysBad(),
		consensus.WithMaxRounds(60),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	if len(res.Violations) > 0 {
		fmt.Println("asynchronous run: violations:", res.Violations)
		return
	}
	fmt.Printf("perpetual asynchrony: %d/3 honest decided after %d rounds, zero safety violations\n",
		len(res.Decisions), res.Rounds)
	// Output:
	// algorithm: PBFT (class 3, n=4 b=1 f=0 TD=3 FLAG=φ, 3 rounds/phase)
	// seed 0: all honest processes decided "commit" after 9 rounds (equivocator defeated)
	// seed 1: all honest processes decided "commit" after 9 rounds (equivocator defeated)
	// seed 2: all honest processes decided "commit" after 9 rounds (equivocator defeated)
	// perpetual asynchrony: 0/3 honest decided after 60 rounds, zero safety violations
}

// A fault scenario is one Run: the class-3 generic algorithm at n=6
// tolerates one Byzantine process and one crash, here an equivocator and a
// process that crashes before its round-2 send, under a network that is
// adversarial until phase 2.
func ExampleWithCrash() {
	spec, err := consensus.NewGeneric(consensus.Class3, 6, 1, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("algorithm:", spec)
	inits := consensus.SplitInits(6, "a", "b")
	delete(inits, 5) // the Byzantine process proposes nothing
	res, err := consensus.Run(spec, inits,
		consensus.WithSeed(1),
		consensus.WithByzantine(5, consensus.Equivocate("a", "b")),
		consensus.WithCrash(0, 2),
		consensus.WithGoodFromPhase(2),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("rounds executed:", res.Rounds)
	fmt.Println("all correct decided:", res.AllDecided)
	for p := consensus.PID(0); p < 5; p++ {
		if v, ok := res.Decisions[p]; ok {
			fmt.Printf("  process %d → %q (round %d)\n", p, v, res.DecidedAt[p])
		} else {
			fmt.Printf("  process %d → (no decision)\n", p)
		}
	}
	fmt.Println("safety violations:", len(res.Violations))
	// Output:
	// algorithm: generic-class 3 (class 3, n=6 b=1 f=1 TD=4 FLAG=φ, 3 rounds/phase)
	// rounds executed: 6
	// all correct decided: true
	//   process 0 → (no decision)
	//   process 1 → "a" (round 6)
	//   process 2 → "a" (round 6)
	//   process 3 → "a" (round 6)
	//   process 4 → "a" (round 6)
	// safety violations: 0
}

// Table 1 live: a representative of each class at its minimal n for b=1
// (Byzantine) or f=1 (benign), with the resilience, state and rounds
// trade-off.
func ExampleSpec() {
	var specs []*consensus.Spec
	for _, build := range []func() (*consensus.Spec, error){
		func() (*consensus.Spec, error) { return consensus.NewFaBPaxos(6, 1) },
		func() (*consensus.Spec, error) { return consensus.NewMQB(5, 1) },
		func() (*consensus.Spec, error) { return consensus.NewPBFT(4, 1) },
		func() (*consensus.Spec, error) { return consensus.NewOneThirdRule(4, 1) },
		func() (*consensus.Spec, error) { return consensus.NewPaxos(3, 1) },
	} {
		spec, err := build()
		if err != nil {
			fmt.Println(err)
			return
		}
		specs = append(specs, spec)
	}

	fmt.Println("Table 1 live — each algorithm at its minimal n:")
	fmt.Printf("%-14s %-8s %-3s %-3s %-3s %-4s %-6s %-14s %-7s %s\n",
		"algorithm", "class", "n", "b", "f", "TD", "FLAG", "state", "rounds", "msgs")
	for _, spec := range specs {
		res, err := consensus.Run(spec, consensus.SplitInits(spec.N, "b", "a"), consensus.WithSeed(7))
		if err != nil {
			fmt.Println(err)
			return
		}
		if !res.AllDecided || len(res.Violations) > 0 {
			fmt.Printf("%s: decided=%v violations=%v\n", spec.Name, res.AllDecided, res.Violations)
			continue
		}
		flag := "φ"
		if spec.RoundsPerPhase() <= 2 {
			flag = "*"
		}
		fmt.Printf("%-14s %-8s %-3d %-3d %-3d %-4d %-6s %-14s %-7d %d\n",
			spec.Name, spec.Class, spec.N, spec.B, spec.F, spec.TD,
			flag, strings.Join(spec.StateVars(), ","), res.Rounds,
			res.Stats.MessagesSent)
	}
	fmt.Println()
	fmt.Println("Reading the table: fewer rounds per phase costs more replicas")
	fmt.Println("(class 1: n>5b), smaller n costs more state (class 3 carries the")
	fmt.Println("unbounded history). MQB sits in between at n>4b with (vote, ts).")
	// Output:
	// Table 1 live — each algorithm at its minimal n:
	// algorithm      class    n   b   f   TD   FLAG   state          rounds  msgs
	// FaB Paxos      class 1  6   1   0   5    *      vote           2       72
	// MQB            class 2  5   1   0   4    φ      vote,ts        3       75
	// PBFT           class 3  4   1   0   3    φ      vote,ts,history 3       48
	// OneThirdRule   class 1  4   0   1   3    *      vote           2       32
	// Paxos          class 3  3   0   1   2    φ      vote,ts        3       15
	//
	// Reading the table: fewer rounds per phase costs more replicas
	// (class 1: n>5b), smaller n costs more state (class 3 carries the
	// unbounded history). MQB sits in between at n>4b with (vote, ts).
}

// Benign Ben-Or (§6) under the Prel predicate: no good period ever,
// termination by coin flips. Phases to decision over 200 seeded runs, for
// unanimous and split inputs.
func ExampleNewBenOr() {
	const runs = 200
	phases := func(inits map[consensus.PID]consensus.Value) string {
		total, most := 0, 0
		for seed := int64(0); seed < runs; seed++ {
			spec, err := consensus.NewBenOr(3, 1, seed*131+17)
			if err != nil {
				return err.Error()
			}
			res, err := consensus.Run(spec, inits,
				consensus.WithSeed(seed), consensus.WithRel(), consensus.WithMaxRounds(5000))
			if err != nil {
				return err.Error()
			}
			if !res.AllDecided || len(res.Violations) > 0 {
				return fmt.Sprintf("seed %d: decided=%v violations=%v", seed, res.AllDecided, res.Violations)
			}
			p := (res.Rounds + 2) / 3
			total += p
			most = max(most, p)
		}
		return fmt.Sprintf("mean %.2f phases to decide (max %d)", float64(total)/runs, most)
	}
	fmt.Printf("Ben-Or (benign, n=3, f=1), %d seeded runs under Prel:\n", runs)
	fmt.Printf("  unanimous inputs: %s\n", phases(consensus.UnanimousInits(3, "1")))
	fmt.Printf("  split inputs:     %s\n", phases(consensus.SplitInits(3, "0", "1")))
	// Output:
	// Ben-Or (benign, n=3, f=1), 200 seeded runs under Prel:
	//   unanimous inputs: mean 1.00 phases to decide (max 1)
	//   split inputs:     mean 1.00 phases to decide (max 1)
}

// Byzantine Ben-Or at n = 5b+1 against an equivocator, 50 seeded runs
// under Prel.
func ExampleNewByzantineBenOr() {
	fmt.Println("Byzantine Ben-Or (n=6 > 5b, b=1) with an equivocator:")
	terminated, violations, decided0, decided1 := 0, 0, 0, 0
	for seed := int64(0); seed < 50; seed++ {
		spec, err := consensus.NewByzantineBenOr(6, 1, seed*7+1, false)
		if err != nil {
			fmt.Println(err)
			return
		}
		inits := consensus.SplitInits(6, "0", "1")
		delete(inits, 5)
		res, err := consensus.Run(spec, inits,
			consensus.WithSeed(seed),
			consensus.WithByzantine(5, consensus.Equivocate("0", "1")),
			consensus.WithRel(), consensus.WithMaxRounds(5000))
		if err != nil {
			fmt.Println(err)
			return
		}
		if res.AllDecided {
			terminated++
		}
		if len(res.Violations) > 0 {
			violations++
		}
		if res.Decisions[0] == "0" {
			decided0++
		} else {
			decided1++
		}
	}
	fmt.Printf("  %d/50 runs terminated; decisions: %d × \"0\", %d × \"1\"\n", terminated, decided0, decided1)
	fmt.Printf("  agreement violations: %d\n", violations)
	fmt.Println()
	fmt.Println("Note: the paper states n > 4b for Byzantine Ben-Or; this library")
	fmt.Println("requires n > 5b after finding lock-evidence decay at n = 4b+1")
	fmt.Println("(see part (b) of `go run ./cmd/experiments -exp benor`).")
	// Output:
	// Byzantine Ben-Or (n=6 > 5b, b=1) with an equivocator:
	//   50/50 runs terminated; decisions: 50 × "0", 0 × "1"
	//   agreement violations: 0
	//
	// Note: the paper states n > 4b for Byzantine Ben-Or; this library
	// requires n > 5b after finding lock-evidence decay at n = 4b+1
	// (see part (b) of `go run ./cmd/experiments -exp benor`).
}
