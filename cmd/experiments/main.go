// Command experiments regenerates every table and figure of the paper plus
// the repository's extension experiments. Each experiment prints a
// self-contained plain-text table; docs/EXPERIMENTS.md states the paper
// claim each one checks, and testdata/experiments.golden pins the output
// of a full run byte for byte (`go test ./cmd/experiments -update`
// rewrites it).
//
// Usage:
//
//	go run ./cmd/experiments               # all experiments
//	go run ./cmd/experiments -exp table1   # one experiment
//	go run ./cmd/experiments -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	consensus "genconsensus"
	"genconsensus/internal/adversary"
	"genconsensus/internal/auth"
	"genconsensus/internal/core"
	"genconsensus/internal/flv"
	"genconsensus/internal/model"
	"genconsensus/internal/quorum"
	"genconsensus/internal/selector"
	"genconsensus/internal/sim"
	"genconsensus/internal/wic"
)

type experiment struct {
	id   string
	desc string
	run  func(w io.Writer)
}

var experiments = []experiment{
	{"table1", "Table 1: the three classes (bounds verified by execution)", runTable1},
	{"figure1", "Figure 1: class-1 FLV quorum counting (n=6, b=1, TD=5)", expFigure1},
	{"figure2", "Figure 2: class-2 FLV timestamps (n=5, b=1, TD=4)", expFigure2},
	{"figure3", "Figure 3: class-3 FLV histories (n=4, b=1, TD=3)", expFigure3},
	{"rounds", "E-RT: rounds/phases to decision per algorithm", expRounds},
	{"messages", "E-MSG: message/byte complexity vs n", expMessages},
	{"tightness", "E-TIGHT: behaviour at and below the class bounds", expTightness},
	{"gst", "E-GST: rounds to decision vs first good phase", expGST},
	{"benor", "E-BENOR: randomized Ben-Or phase counts (incl. n=4b+1 finding)", expBenOr},
	{"wic", "E-WIC: cost of building Pcons from Pgood", expWIC},
	{"diff", "E-DIFF: instantiations vs original algorithms", expDiff},
}

func main() {
	var (
		exp  = flag.String("exp", "", "run a single experiment by id")
		list = flag.Bool("list", false, "list experiment ids")
	)
	flag.Parse()
	if *list {
		listExperiments(os.Stdout)
		return
	}
	if err := run(os.Stdout, *exp); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// listExperiments writes one line per experiment: its id and description.
func listExperiments(w io.Writer) {
	for _, e := range experiments {
		fmt.Fprintf(w, "%-10s %s\n", e.id, e.desc)
	}
}

// run writes the experiment named id or, with id empty, every experiment
// in list order.
func run(w io.Writer, id string) error {
	ran := false
	for _, e := range experiments {
		if id != "" && e.id != id {
			continue
		}
		fmt.Fprintf(w, "==== %s — %s ====\n\n", e.id, e.desc)
		e.run(w)
		fmt.Fprintln(w)
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (use -list)", id)
	}
	return nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiment failed:", err)
		os.Exit(1)
	}
}

func mustSpec(s *consensus.Spec, err error) *consensus.Spec {
	check(err)
	return s
}

// ---- Table 1 ---------------------------------------------------------------

func runTable1(w io.Writer) {
	fmt.Fprintln(w, "Columns mirror Table 1; n(min) is verified by running the class")
	fmt.Fprintln(w, "representative at that n to decision (fault-free, split inputs).")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-7s %-5s %-12s %-9s %-8s %-18s %-7s %-22s\n",
		"class", "FLAG", "TD bound", "n bound", "n(min)", "state", "rounds", "examples")
	type rowDef struct {
		class    consensus.Class
		flag     string
		tdBound  string
		nBound   string
		examples string
	}
	rows := []rowDef{
		{consensus.Class1, "*", "> (n+3b+f)/2", "> 5b+3f", "OneThirdRule (b=0), FaB Paxos (f=0)"},
		{consensus.Class2, "φ", "> 3b+f", "> 4b+2f", "Paxos, CT (b=0), MQB (f=0, new)"},
		{consensus.Class3, "φ", "> 2b+f", "> 3b+2f", "(Paxos, CT) (b=0), PBFT (f=0)"},
	}
	b, f := 1, 1
	for _, r := range rows {
		nMin := quorum.MinN(r.class, b, f)
		spec := mustSpec(consensus.NewGeneric(r.class, nMin, b, f))
		inits := consensus.SplitInits(nMin, "b", "a")
		for p := range inits {
			if int(p) >= nMin-b {
				delete(inits, p) // Byzantine slots
			}
		}
		opts := []consensus.RunOption{consensus.WithSeed(5)}
		for i := 0; i < b; i++ {
			opts = append(opts, consensus.WithByzantine(consensus.PID(nMin-1-i), consensus.Silent()))
		}
		res, err := consensus.Run(spec, inits, opts...)
		check(err)
		status := fmt.Sprintf("%d ✓", nMin)
		if !res.AllDecided || len(res.Violations) > 0 {
			status = fmt.Sprintf("%d ✗", nMin)
		}
		fmt.Fprintf(w, "%-7s %-5s %-12s %-9s %-8s %-18s %-7d %-22s\n",
			r.class, r.flag, r.tdBound, r.nBound, status,
			strings.Join(spec.StateVars(), ","), spec.RoundsPerPhase(), r.examples)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "verification fault model: b=%d (silent Byzantine), f=%d (budgeted, not used)\n", b, f)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "n(min) per class across (b, f) — MinN = bound+1:")
	fmt.Fprintf(w, "%-8s", "b\\f")
	for f := 0; f <= 3; f++ {
		fmt.Fprintf(w, "  f=%d:c1/c2/c3", f)
	}
	fmt.Fprintln(w)
	for b := 0; b <= 3; b++ {
		fmt.Fprintf(w, "b=%-6d", b)
		for f := 0; f <= 3; f++ {
			fmt.Fprintf(w, "  %2d/%2d/%2d    ",
				quorum.MinN(consensus.Class1, b, f),
				quorum.MinN(consensus.Class2, b, f),
				quorum.MinN(consensus.Class3, b, f))
		}
		fmt.Fprintln(w)
	}
}

// ---- Figures ---------------------------------------------------------------

func sel(vote model.Value, ts model.Phase, hist model.History) model.Message {
	return model.Message{Kind: model.SelectionRound, Vote: vote, TS: ts, History: hist}
}

func evalSubsets(f flv.Func, msgs []model.Message, phase model.Phase) (locked, null, any int, badReturns []string) {
	n := len(msgs)
	for mask := 1; mask < 1<<n; mask++ {
		mu := model.Received{}
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				mu[model.PID(i)] = msgs[i]
			}
		}
		res := f.Eval(mu, phase)
		switch res.Out {
		case flv.Locked:
			if res.Val == "v1" {
				locked++
			} else {
				badReturns = append(badReturns, fmt.Sprintf("subset %b returned %s", mask, res.Val))
			}
		case flv.None:
			null++
		case flv.Any:
			any++
			badReturns = append(badReturns, fmt.Sprintf("subset %b returned ?", mask))
		}
	}
	return
}

func expFigure1(w io.Writer) {
	fmt.Fprintln(w, "Scenario: v1 locked; TD-b = 4 honest v1 votes, 2 v2 votes.")
	fmt.Fprintln(w, "Claim: any µ with more than 2(n-TD+b) = 4 messages yields v1;")
	fmt.Fprintln(w, "smaller µ yields v1 or null; v2 and ? are never returned.")
	fmt.Fprintln(w)
	msgs := []model.Message{
		sel("v1", 0, nil), sel("v1", 0, nil), sel("v1", 0, nil), sel("v1", 0, nil),
		sel("v2", 0, nil), sel("v2", 0, nil),
	}
	f := flv.NewClass1(6, 5, 1)
	locked, null, _, bad := evalSubsets(f, msgs, 1)
	fmt.Fprintf(w, "all %d non-empty subsets evaluated: %d → v1, %d → null, %d violations\n",
		(1<<6)-1, locked, null, len(bad))
	for _, s := range bad {
		fmt.Fprintln(w, "  VIOLATION:", s)
	}
	full := model.Received{}
	for i, m := range msgs {
		full[model.PID(i)] = m
	}
	fmt.Fprintf(w, "full vector → %s (paper: v1)\n", f.Eval(full, 1))
}

func expFigure2(w io.Writer) {
	fmt.Fprintln(w, "Scenario: v1 validated at φ1=2 by TD-b = 3 honest processes; one")
	fmt.Fprintln(w, "honest process holds (v2, φ2'<φ1); the Byzantine forges (v2, φ2>φ1).")
	fmt.Fprintln(w, "Claim: the >b multiplicity rule defeats the forged timestamp.")
	fmt.Fprintln(w)
	msgs := []model.Message{
		sel("v1", 2, nil), sel("v1", 2, nil), sel("v1", 2, nil),
		sel("v2", 1, nil), sel("v2", 5, nil),
	}
	f := flv.NewClass2(5, 4, 1)
	locked, null, _, bad := evalSubsets(f, msgs, 3)
	fmt.Fprintf(w, "all %d non-empty subsets evaluated: %d → v1, %d → null, %d violations\n",
		(1<<5)-1, locked, null, len(bad))
	for _, s := range bad {
		fmt.Fprintln(w, "  VIOLATION:", s)
	}
	full := model.Received{}
	for i, m := range msgs {
		full[model.PID(i)] = m
	}
	fmt.Fprintf(w, "full vector → %s (paper: v1)\n", f.Eval(full, 3))
}

func expFigure3(w io.Writer) {
	fmt.Fprintln(w, "Scenario: v1 validated at φ1=2 by TD-b = 2 honest processes whose")
	fmt.Fprintln(w, "histories contain (v1, φ1); one honest holds (v2, φ2'<φ1); the")
	fmt.Fprintln(w, "Byzantine forges (v2, φ2>φ1) with a fabricated history. Claim: a")
	fmt.Fprintln(w, "history entry counts only with more than b independent backers.")
	fmt.Fprintln(w)
	h1 := model.NewHistory("v1").Add("v1", 2)
	h2 := model.NewHistory("v2").Add("v1", 2)
	h3 := model.NewHistory("v2").Add("v2", 1)
	h4 := model.NewHistory("v2").Add("v2", 5)
	msgs := []model.Message{
		sel("v1", 2, h1), sel("v1", 2, h2), sel("v2", 1, h3), sel("v2", 5, h4),
	}
	f := flv.NewClass3(4, 3, 1, false)
	locked, null, _, bad := evalSubsets(f, msgs, 3)
	fmt.Fprintf(w, "all %d non-empty subsets evaluated: %d → v1, %d → null, %d violations\n",
		(1<<4)-1, locked, null, len(bad))
	for _, s := range bad {
		fmt.Fprintln(w, "  VIOLATION:", s)
	}
	full := model.Received{}
	for i, m := range msgs {
		full[model.PID(i)] = m
	}
	fmt.Fprintf(w, "full vector → %s (paper: v1)\n", f.Eval(full, 3))
}

// ---- E-RT: rounds per decision ---------------------------------------------

func expRounds(w io.Writer) {
	fmt.Fprintln(w, "Fault-free synchronous runs at minimal n, split inputs; the")
	fmt.Fprintln(w, "'rounds' column shows Table 1's rounds-per-phase trade-off live.")
	fmt.Fprintln(w)
	type algo struct {
		spec *consensus.Spec
		note string
	}
	algos := []algo{
		{mustSpec(consensus.NewOneThirdRule(4, 1)), "merged (1 round/phase)"},
		{mustSpec(consensus.NewFaBPaxos(6, 1)), "2 rounds/phase"},
		{mustSpec(consensus.NewMQB(5, 1)), "3 rounds/phase"},
		{mustSpec(consensus.NewPBFT(4, 1)), "3 rounds/phase"},
		{mustSpec(consensus.NewPaxos(3, 1)), "3 rounds/phase, leader"},
		{mustSpec(consensus.NewChandraToueg(3, 1)), "3 rounds/phase, coordinator"},
	}
	fmt.Fprintf(w, "%-15s %-8s %-4s %-4s %-8s %-8s %-24s\n",
		"algorithm", "class", "n", "TD", "rounds", "phases", "structure")
	for _, a := range algos {
		res, err := consensus.Run(a.spec, consensus.SplitInits(a.spec.N, "b", "a"),
			consensus.WithSeed(3))
		check(err)
		if !res.AllDecided || len(res.Violations) > 0 {
			check(fmt.Errorf("%s: decided=%v violations=%v", a.spec.Name, res.AllDecided, res.Violations))
		}
		per := a.spec.RoundsPerPhase()
		fmt.Fprintf(w, "%-15s %-8s %-4d %-4d %-8d %-8d %-24s\n",
			a.spec.Name, a.spec.Class, a.spec.N, a.spec.TD,
			res.Rounds, (res.Rounds+per-1)/per, a.note)
	}
	// Skip-first-selection optimization on PBFT.
	pbft := mustSpec(consensus.NewPBFT(4, 1))
	check(pbft.Apply(consensus.WithSkipFirstSelection()))
	res, err := consensus.Run(pbft, consensus.UnanimousInits(4, "v"), consensus.WithSeed(3))
	check(err)
	fmt.Fprintf(w, "\nPBFT + skip-first-selection, unanimous inputs: %d rounds (vs 3)\n", res.Rounds)
}

// ---- E-MSG: message complexity ----------------------------------------------

func expMessages(w io.Writer) {
	fmt.Fprintln(w, "Messages and bytes to first decision vs n (fault-free, split")
	fmt.Fprintln(w, "inputs). Class-3 selection rounds carry histories: byte costs")
	fmt.Fprintln(w, "grow visibly faster than class 2 at equal n.")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-15s %-4s %-4s %-10s %-10s %-10s\n", "algorithm", "n", "b/f", "rounds", "messages", "bytes")
	type mk struct {
		name string
		make func(n int) (*consensus.Spec, error)
		ns   []int
		bf   string
	}
	rows := []mk{
		{"FaB Paxos", func(n int) (*consensus.Spec, error) { return consensus.NewFaBPaxos(n, 1) }, []int{6, 8, 10, 12}, "b=1"},
		{"MQB", func(n int) (*consensus.Spec, error) { return consensus.NewMQB(n, 1) }, []int{5, 7, 9, 11}, "b=1"},
		{"PBFT", func(n int) (*consensus.Spec, error) { return consensus.NewPBFT(n, 1) }, []int{4, 6, 8, 10}, "b=1"},
		{"OneThirdRule", func(n int) (*consensus.Spec, error) { return consensus.NewOneThirdRule(n, 1) }, []int{4, 6, 8, 10}, "f=1"},
		{"Paxos", func(n int) (*consensus.Spec, error) { return consensus.NewPaxos(n, 1) }, []int{3, 5, 7, 9}, "f=1"},
	}
	for _, r := range rows {
		for _, n := range r.ns {
			spec, err := r.make(n)
			check(err)
			res, err := consensus.Run(spec, consensus.SplitInits(n, "b", "a"), consensus.WithSeed(3))
			check(err)
			fmt.Fprintf(w, "%-15s %-4d %-4s %-10d %-10d %-10d\n",
				r.name, n, r.bf, res.Rounds, res.Stats.MessagesSent, res.Stats.BytesSent)
		}
	}
}

// ---- E-TIGHT ---------------------------------------------------------------

func expTightness(w io.Writer) {
	fmt.Fprintln(w, "(a) Feasibility frontier: below the class bound no TD satisfies")
	fmt.Fprintln(w, "    both the agreement lower bound and termination TD ≤ n-b-f.")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s %-10s %-12s %-12s %-10s\n", "class", "n", "MinTD", "MaxTD", "feasible")
	for _, class := range []consensus.Class{consensus.Class1, consensus.Class2, consensus.Class3} {
		b, f := 1, 0
		nMin := quorum.MinN(class, b, f)
		for _, n := range []int{nMin - 1, nMin} {
			minTD := quorum.MinTD(class, n, b, f)
			maxTD := quorum.MaxTD(n, b, f)
			fmt.Fprintf(w, "%-8s %-10d %-12d %-12d %-10v\n", class, n, minTD, maxTD, minTD <= maxTD)
		}
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "(b) FLV-liveness witnesses below the bound (full correct vector,")
	fmt.Fprintln(w, "    FLV still returns null → termination impossible):")
	c2 := flv.NewClass2(4, 3, 1) // MQB at n=4b with the largest usable TD
	mu := model.Received{
		0: sel("v1", 2, nil), 1: sel("v2", 1, nil), 2: sel("v3", 0, nil),
	}
	fmt.Fprintf(w, "    class 2, n=4=4b, TD=3: Eval(3 correct msgs) = %s (want null)\n", c2.Eval(mu, 3))
	c1 := flv.NewClass1(5, 4, 1) // FaB at n=5b with TD = n-b
	mu = model.Received{
		0: sel("v1", 0, nil), 1: sel("v1", 0, nil), 2: sel("v2", 0, nil), 3: sel("v2", 0, nil),
	}
	fmt.Fprintf(w, "    class 1, n=5=5b, TD=4: Eval(4 correct msgs) = %s (want null)\n", c1.Eval(mu, 1))

	fmt.Fprintln(w)
	fmt.Fprintln(w, "(c) At the bound: seeded adversarial runs, zero safety violations:")
	type atBound struct {
		spec  *consensus.Spec
		strat consensus.Strategy
	}
	cases := []atBound{
		{mustSpec(consensus.NewPBFT(4, 1)), consensus.Equivocate("a", "b")},
		{mustSpec(consensus.NewMQB(5, 1)), consensus.ForgeTimestamp("z")},
		{mustSpec(consensus.NewFaBPaxos(6, 1)), consensus.Equivocate("a", "b")},
	}
	const seeds = 300
	for _, c := range cases {
		violations, undecided := 0, 0
		for seed := int64(0); seed < seeds; seed++ {
			inits := consensus.SplitInits(c.spec.N, "b", "a")
			delete(inits, consensus.PID(c.spec.N-1))
			res, err := consensus.Run(c.spec, inits,
				consensus.WithSeed(seed),
				consensus.WithByzantine(consensus.PID(c.spec.N-1), c.strat),
				consensus.WithGoodFromPhase(2),
				consensus.WithDropProbability(0.5))
			check(err)
			if len(res.Violations) > 0 {
				violations++
			}
			if !res.AllDecided {
				undecided++
			}
		}
		fmt.Fprintf(w, "    %-12s n=%d b=%d: %d runs, %d violations, %d non-terminating\n",
			c.spec.Name, c.spec.N, c.spec.B, seeds, violations, undecided)
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "(d) TD lower bounds are safety bounds: crafted schedules produce")
	fmt.Fprintln(w, "    real agreement violations just below them, and fail at them:")
	fmt.Fprintf(w, "    FLAG=*, n=6, b=1: TD=3 (≤ (n+b)/2) → %s; TD=4 → %s\n",
		splitStarOutcome(3), splitStarOutcome(4))
	fmt.Fprintf(w, "    FLAG=φ, n=4, b=1: TD=1 (= b) → %s; TD=2 → %s\n",
		splitPhiOutcome(1), splitPhiOutcome(2))
}

// splitStarOutcome runs the FLAG=* split-decision attack (see
// internal/sim TestAttackSplitDecisionStar) at the given TD.
func splitStarOutcome(td int) string {
	params := core.Params{
		N: 6, B: 1, F: 0, TD: td,
		Flag:     model.FlagStar,
		FLV:      flv.NewClass1(6, td, 1),
		Selector: selector.NewAll(6),
	}
	inits := map[model.PID]model.Value{0: "a", 1: "a", 2: "b", 3: "b", 4: "b"}
	allow := map[model.PID]map[model.PID]bool{
		0: {0: true}, 1: {0: true},
		2: {2: true}, 3: {2: true}, 4: {2: true},
		5: {0: true},
	}
	e, err := sim.New(sim.Config{
		Params:    params,
		Inits:     inits,
		Byzantine: map[model.PID]adversary.Strategy{5: adversary.Equivocate{A: "a", B: "b"}},
		Modes:     sim.AlwaysBad(),
		Drop:      sim.Edges{Allow: allow},
		Seed:      1,
		MaxRounds: 2,
	})
	check(err)
	return describeAttack(e.Run())
}

// splitPhiOutcome runs the FLAG=φ forged-vote attack (see internal/sim
// TestAttackSplitDecisionPhi) at the given TD.
func splitPhiOutcome(td int) string {
	params := core.Params{
		N: 4, B: 1, F: 0, TD: td,
		Flag:       model.FlagPhase,
		FLV:        flv.NewClass3(4, td, 1, false),
		Selector:   selector.NewAll(4),
		UseHistory: true,
	}
	inits := map[model.PID]model.Value{0: "a", 1: "b", 2: "a"}
	allow := map[model.PID]map[model.PID]bool{3: {0: true, 2: true}}
	e, err := sim.New(sim.Config{
		Params:    params,
		Inits:     inits,
		Byzantine: map[model.PID]adversary.Strategy{3: adversary.Equivocate{A: "a", B: "b"}},
		Modes:     sim.AlwaysBad(),
		Drop:      sim.Edges{Allow: allow},
		Seed:      1,
		MaxRounds: 3,
	})
	check(err)
	return describeAttack(e.Run())
}

func describeAttack(res sim.Result) string {
	for _, v := range res.Violations {
		if strings.HasPrefix(v, "agreement") {
			return "AGREEMENT VIOLATED"
		}
	}
	if len(res.Decisions) == 0 {
		return "attack fails (no decision)"
	}
	return "safe decision"
}

// ---- E-GST -----------------------------------------------------------------

func expGST(w io.Writer) {
	fmt.Fprintln(w, "Rounds to global decision as a function of the first good phase")
	fmt.Fprintln(w, "φ0 (bad periods drop each message with probability 0.5).")
	fmt.Fprintln(w)
	specs := []*consensus.Spec{
		mustSpec(consensus.NewOneThirdRule(4, 1)),
		mustSpec(consensus.NewFaBPaxos(6, 1)),
		mustSpec(consensus.NewMQB(5, 1)),
		mustSpec(consensus.NewPBFT(4, 1)),
		mustSpec(consensus.NewPaxos(3, 1)),
	}
	fmt.Fprintf(w, "%-15s", "algorithm")
	phis := []consensus.Phase{1, 2, 3, 4, 6, 8}
	for _, phi := range phis {
		fmt.Fprintf(w, " φ0=%-4d", phi)
	}
	fmt.Fprintln(w)
	for _, spec := range specs {
		fmt.Fprintf(w, "%-15s", spec.Name)
		for _, phi := range phis {
			total := 0
			const seeds = 20
			for seed := int64(0); seed < seeds; seed++ {
				res, err := consensus.Run(spec, consensus.SplitInits(spec.N, "b", "a"),
					consensus.WithSeed(seed),
					consensus.WithGoodFromPhase(phi),
					consensus.WithDropProbability(0.5),
					consensus.WithMaxRounds(400))
				check(err)
				if !res.AllDecided {
					total += 400
					continue
				}
				total += res.Rounds
			}
			fmt.Fprintf(w, " %-7.1f", float64(total)/seeds)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Shape check: each row grows linearly with φ0 at slope ≈ rounds/phase,")
	fmt.Fprintln(w, "and within a row decisions land within ~1 phase of the first good phase.")
}

// ---- E-BENOR ---------------------------------------------------------------

func expBenOr(w io.Writer) {
	fmt.Fprintln(w, "(a) Benign Ben-Or under Prel: mean phases to decision (200 runs).")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-6s %-10s %-16s %-16s\n", "n", "f", "unanimous", "split")
	for _, nf := range [][2]int{{3, 1}, {5, 2}, {7, 3}, {9, 4}} {
		n, f := nf[0], nf[1]
		mean := func(inits map[consensus.PID]consensus.Value) float64 {
			total := 0
			const runs = 200
			for seed := int64(0); seed < runs; seed++ {
				spec, err := consensus.NewBenOr(n, f, seed*131+17)
				check(err)
				res, err := consensus.Run(spec, inits,
					consensus.WithSeed(seed), consensus.WithRel(), consensus.WithMaxRounds(6000))
				check(err)
				if !res.AllDecided {
					check(fmt.Errorf("ben-or n=%d seed=%d did not terminate", n, seed))
				}
				total += (res.Rounds + 2) / 3
			}
			return float64(total) / runs
		}
		fmt.Fprintf(w, "%-6d %-10d %-16.2f %-16.2f\n", n, f,
			mean(consensus.UnanimousInits(n, "1")), mean(consensus.SplitInits(n, "0", "1")))
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "(b) Byzantine Ben-Or — reproduction finding. The paper instantiates")
	fmt.Fprintln(w, "    it with TD = 3b+1 and n > 4b (§6). At n = 4b+1 the ⟨v, φ-1⟩")
	fmt.Fprintln(w, "    lock evidence decays under Prel and agreement can be violated;")
	fmt.Fprintln(w, "    at n = 5b+1 (the original Ben-Or bound) no violation occurs.")
	fmt.Fprintln(w)
	for _, n := range []int{5, 6} {
		violations := 0
		const seeds = 60
		for seed := int64(0); seed < seeds; seed++ {
			spec, err := consensus.NewByzantineBenOr(n, 1, seed*17+3, true)
			check(err)
			inits := consensus.SplitInits(n, "0", "1")
			delete(inits, consensus.PID(n-1))
			res, err := consensus.Run(spec, inits,
				consensus.WithSeed(seed),
				consensus.WithByzantine(consensus.PID(n-1), consensus.Equivocate("0", "1")),
				consensus.WithRel(), consensus.WithMaxRounds(5000))
			check(err)
			if len(res.Violations) > 0 {
				violations++
			}
		}
		tag := "(paper bound n=4b+1)"
		if n == 6 {
			tag = "(original bound n=5b+1)"
		}
		fmt.Fprintf(w, "    n=%d b=1 %-24s: %d agreement violations in %d runs\n",
			n, tag, violations, seeds)
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "(c) Control: the §6 randomized transform of MQB (full class-2 FLV,")
	fmt.Fprintln(w, "    same n = 4b+1, same adversary, same Prel schedule) — the")
	fmt.Fprintln(w, "    vote-based lock does not decay:")
	violations := 0
	const seeds = 60
	for seed := int64(0); seed < seeds; seed++ {
		spec, err := consensus.NewRandomizedMQB(5, 1, seed*17+3)
		check(err)
		inits := consensus.SplitInits(5, "0", "1")
		delete(inits, 4)
		res, err := consensus.Run(spec, inits,
			consensus.WithSeed(seed),
			consensus.WithByzantine(4, consensus.Equivocate("0", "1")),
			consensus.WithRel(), consensus.WithMaxRounds(5000))
		check(err)
		if len(res.Violations) > 0 {
			violations++
		}
	}
	fmt.Fprintf(w, "    randomized MQB n=5 b=1: %d agreement violations in %d runs\n", violations, seeds)
	fmt.Fprintln(w, "    ⇒ the decay is specific to Algorithm 9's timestamp-only FLV,")
	fmt.Fprintln(w, "      not to class 2 or to the randomized adaptation itself.")
}

// ---- E-WIC -----------------------------------------------------------------

func expWIC(w io.Writer) {
	fmt.Fprintln(w, "Building Pcons from Pgood (§2.2): live PBFT (n=4, b=1) decisions")
	fmt.Fprintln(w, "over a Pgood-only network, comparing the Pcons oracle with the two")
	fmt.Fprintln(w, "WIC constructions (authenticated 2-round relay; signature-free")
	fmt.Fprintln(w, "3-round echo). Costs are to the first global decision.")
	fmt.Fprintln(w)
	n, b := 4, 1
	params := core.Params{
		N: n, B: b, F: 0, TD: 2*b + 1,
		Flag:       model.FlagPhase,
		FLV:        flv.NewPBFT(n, b),
		Selector:   selector.NewAll(n),
		UseHistory: true,
	}
	vals := []model.Value{"b", "a", "c", "a"}
	inits := map[model.PID]model.Value{}
	for i := 0; i < n; i++ {
		inits[model.PID(i)] = vals[i]
	}

	fmt.Fprintf(w, "%-18s %-14s %-12s %-12s %-14s\n",
		"construction", "micro-rounds", "rounds", "messages", "requires")

	// Oracle baseline: the simulator enforces Pcons directly.
	oracle, err := sim.New(sim.Config{Params: params, Inits: inits, Seed: 3})
	check(err)
	res := oracle.Run()
	if !res.AllDecided || len(res.Violations) > 0 {
		check(fmt.Errorf("oracle run failed: %v", res.Violations))
	}
	fmt.Fprintf(w, "%-18s %-14s %-12d %-12d %-14s\n", "oracle (none)", "-", res.Rounds, res.Stats.MessagesSent, "-")

	kr, err := auth.NewKeyring(n, 7)
	check(err)
	for _, mode := range []wic.Mode{wic.Relay, wic.Echo} {
		procs := map[model.PID]model.Proc{}
		for i := 0; i < n; i++ {
			p := model.PID(i)
			inner, err := core.NewProcess(p, vals[i], params)
			check(err)
			wrapped, err := wic.Wrap(inner, wic.Config{N: n, B: b, Mode: mode, Keyring: kr}, params.Schedule())
			check(err)
			procs[p] = wrapped
		}
		sched := core.Schedule{Flag: model.FlagPhase}
		e, err := sim.New(sim.Config{
			Params: core.Params{N: n, B: b, F: 0},
			Inits:  inits,
			Procs:  procs,
			Sched:  &sched,
			Modes:  func(model.Round, model.RoundKind) sim.Mode { return sim.ModeGood },
			Seed:   3,
		})
		check(err)
		res := e.Run()
		if !res.AllDecided || len(res.Violations) > 0 {
			check(fmt.Errorf("%s run failed: %v", mode, res.Violations))
		}
		name, req := "relay (auth)", "signatures"
		if mode == wic.Echo {
			name, req = "echo (no sigs)", "n > 3b"
		}
		fmt.Fprintf(w, "%-18s %-14d %-12d %-12d %-14s\n",
			name, mode.Micros(), res.Rounds, res.Stats.MessagesSent, req)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Both constructions deliver identical selection vectors at every")
	fmt.Fprintln(w, "correct process (asserted in internal/wic tests); BenchmarkWIC*")
	fmt.Fprintln(w, "measures wall-clock cost (relay is dominated by ed25519).")
}

// ---- E-DIFF ----------------------------------------------------------------

func expDiff(w io.Writer) {
	fmt.Fprintln(w, "Differential runs of instantiations against the verbatim original")
	fmt.Fprintln(w, "algorithms on identical seeded networks (see also the")
	fmt.Fprintln(w, "internal/baseline test suite).")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "OneThirdRule (§5.1 improvement claim): whenever the original's")
	fmt.Fprintln(w, ">2n/3 guard passes, the class-1 FLV returns non-null — verified")
	fmt.Fprintln(w, "exhaustively over all receive subsets in TestOTRSelectionImprovement.")
	fmt.Fprintln(w, "End-to-end (150 seeds, lossy network): the instantiation decides at")
	fmt.Fprintln(w, "least as often and never later (TestOTRDifferential).")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Ben-Or: both the original two-round protocol and the generic")
	fmt.Fprintln(w, "instantiation terminate under Prel with phase counts of the same")
	fmt.Fprintln(w, "order (TestBenOrDifferential).")
}
