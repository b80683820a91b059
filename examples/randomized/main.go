// Randomized: Ben-Or binary consensus (§6) under the Prel predicate — no
// good periods ever, termination by coin flipping. Prints the distribution
// of phases-to-decision over many seeded runs, for unanimous and split
// inputs.
//
//	go run ./examples/randomized
package main

import (
	"fmt"
	"log"

	consensus "genconsensus"
)

func run(n, f int, inits map[consensus.PID]consensus.Value, runs int) (mean float64, max int) {
	total := 0
	for seed := int64(0); seed < int64(runs); seed++ {
		spec, err := consensus.NewBenOr(n, f, seed*131+17)
		if err != nil {
			log.Fatal(err)
		}
		res, err := consensus.Run(spec, inits,
			consensus.WithSeed(seed), consensus.WithRel(), consensus.WithMaxRounds(5000))
		if err != nil {
			log.Fatal(err)
		}
		if !res.AllDecided {
			log.Fatalf("seed %d: no termination", seed)
		}
		if len(res.Violations) > 0 {
			log.Fatalf("seed %d: %v", seed, res.Violations)
		}
		phases := (res.Rounds + 2) / 3
		total += phases
		if phases > max {
			max = phases
		}
	}
	return float64(total) / float64(runs), max
}

func main() {
	const runs = 200
	fmt.Printf("Ben-Or (benign, n=3, f=1), %d seeded runs under Prel:\n", runs)

	mean, max := run(3, 1, consensus.UnanimousInits(3, "1"), runs)
	fmt.Printf("  unanimous inputs: mean %.2f phases to decide (max %d)\n", mean, max)

	mean, max = run(3, 1, consensus.SplitInits(3, "0", "1"), runs)
	fmt.Printf("  split inputs:     mean %.2f phases to decide (max %d)\n", mean, max)

	fmt.Println()
	fmt.Println("Byzantine Ben-Or (n=6 > 5b, b=1) with an equivocator:")
	decided0, decided1 := 0, 0
	for seed := int64(0); seed < 50; seed++ {
		spec, err := consensus.NewByzantineBenOr(6, 1, seed*7+1, false)
		if err != nil {
			log.Fatal(err)
		}
		inits := consensus.SplitInits(6, "0", "1")
		delete(inits, 5)
		res, err := consensus.Run(spec, inits,
			consensus.WithSeed(seed),
			consensus.WithByzantine(5, consensus.Equivocate("0", "1")),
			consensus.WithRel(), consensus.WithMaxRounds(5000))
		if err != nil {
			log.Fatal(err)
		}
		if !res.AllDecided || len(res.Violations) > 0 {
			log.Fatalf("seed %d: decided=%v violations=%v", seed, res.AllDecided, res.Violations)
		}
		if res.Decisions[0] == "0" {
			decided0++
		} else {
			decided1++
		}
	}
	fmt.Printf("  50/50 runs terminated; decisions: %d × \"0\", %d × \"1\"\n", decided0, decided1)
	fmt.Println()
	fmt.Println("Note: the paper states n > 4b for Byzantine Ben-Or; this library")
	fmt.Println("requires n > 5b after finding lock-evidence decay at n = 4b+1")
	fmt.Println("(see part (b) of `go run ./cmd/experiments -exp benor`).")
}
