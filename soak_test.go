package genconsensus

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/smr"
)

// TestSoakMatrix is a randomized end-to-end matrix: random algorithm, random
// fault assignment within budget, random network schedule — safety must
// hold in every run, and termination must hold whenever a good phase exists.
// Failures print the full scenario for replay.
func TestSoakMatrix(t *testing.T) {
	const runs = 400
	type scenario struct {
		specIdx   int
		seed      int64
		byz       bool
		byzStrat  int
		crash     bool
		goodPhase Phase
		keepP     float64
	}
	specs := []func() (*Spec, error){
		func() (*Spec, error) { return NewOneThirdRule(4, 1) },
		func() (*Spec, error) { return NewOneThirdRule(7, 2) },
		func() (*Spec, error) { return NewFaBPaxos(6, 1) },
		func() (*Spec, error) { return NewMQB(5, 1) },
		func() (*Spec, error) { return NewMQB(9, 2) },
		func() (*Spec, error) { return NewPaxos(3, 1) },
		func() (*Spec, error) { return NewPaxos(5, 2) },
		func() (*Spec, error) { return NewChandraToueg(3, 1) },
		func() (*Spec, error) { return NewPBFT(4, 1) },
		func() (*Spec, error) { return NewPBFT(7, 2) },
		func() (*Spec, error) { return NewGeneric(Class3, 6, 1, 1) },
	}
	strategies := []func() Strategy{
		Silent,
		func() Strategy { return Equivocate("a", "b") },
		func() Strategy { return RandomJunk("a", "b", "z") },
		func() Strategy { return ForgeTimestamp("z") },
		Mimic,
	}
	rng := rand.New(rand.NewSource(20100621)) // DSN 2010 conference date
	for i := 0; i < runs; i++ {
		sc := scenario{
			specIdx:   rng.Intn(len(specs)),
			seed:      rng.Int63n(1 << 30),
			byz:       rng.Intn(2) == 0,
			byzStrat:  rng.Intn(len(strategies)),
			crash:     rng.Intn(3) == 0,
			goodPhase: Phase(1 + rng.Intn(4)),
			keepP:     0.3 + 0.6*rng.Float64(),
		}
		spec, err := specs[sc.specIdx]()
		if err != nil {
			t.Fatal(err)
		}
		inits := SplitInits(spec.N, "b", "a", "c")
		opts := []RunOption{
			WithSeed(sc.seed),
			WithGoodFromPhase(sc.goodPhase),
			WithDropProbability(sc.keepP),
			WithMaxRounds(300),
		}
		if sc.byz && spec.B > 0 {
			p := PID(spec.N - 1)
			delete(inits, p)
			opts = append(opts, WithByzantine(p, strategies[sc.byzStrat]()))
		}
		if sc.crash && spec.F > 0 {
			opts = append(opts, WithCrash(0, Round(1+sc.seed%5)))
		}
		res, err := Run(spec, inits, opts...)
		if err != nil {
			t.Fatalf("scenario %+v (%s): %v", sc, spec.Name, err)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("scenario %+v (%s): SAFETY VIOLATED: %v", sc, spec.Name, res.Violations)
		}
		if !res.AllDecided {
			t.Fatalf("scenario %+v (%s): no termination in %d rounds", sc, spec.Name, res.Rounds)
		}
	}
}

// TestSoakSafetyOnly hammers perpetual-asynchrony executions: no good phase
// ever, adversaries active, partitions rotating — only safety is demanded.
func TestSoakSafetyOnly(t *testing.T) {
	const runs = 150
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < runs; i++ {
		var spec *Spec
		var err error
		if rng.Intn(2) == 0 {
			spec, err = NewPBFT(4, 1)
		} else {
			spec, err = NewMQB(5, 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		inits := SplitInits(spec.N, "b", "a")
		byzPID := PID(spec.N - 1)
		delete(inits, byzPID)
		opts := []RunOption{
			WithSeed(rng.Int63n(1 << 30)),
			WithByzantine(byzPID, Equivocate("a", "b")),
			WithAlwaysBad(),
			WithMaxRounds(60),
		}
		if rng.Intn(2) == 0 {
			half := spec.N / 2
			g1 := make([]PID, 0, half)
			g2 := make([]PID, 0, spec.N-half)
			for p := 0; p < spec.N; p++ {
				if p < half {
					g1 = append(g1, PID(p))
				} else {
					g2 = append(g2, PID(p))
				}
			}
			opts = append(opts, WithPartition(g1, g2))
		}
		res, err := Run(spec, inits, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("run %d (%s): %v", i, spec.Name, res.Violations)
		}
	}
}

// TestDecidedAtConsistency: reported decision rounds are plausible — on the
// round grid of the schedule's decision rounds, and no later than the
// execution length.
func TestDecidedAtConsistency(t *testing.T) {
	spec, err := NewPBFT(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, SplitInits(4, "b", "a"), WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	for p, r := range res.DecidedAt {
		if int(r) > res.Rounds {
			t.Errorf("process %d decided at round %d > executed %d", p, r, res.Rounds)
		}
		if r%3 != 0 {
			t.Errorf("process %d decided in round %d, not a decision round (3φ)", p, r)
		}
	}
}

// Example-style documentation test for the README snippet.
func ExampleRun() {
	spec, _ := NewPBFT(4, 1)
	res, _ := Run(spec,
		SplitInits(4, "commit", "abort"),
		WithSeed(1),
	)
	fmt.Println(len(res.Violations), res.AllDecided)
	// Output: 0 true
}

// TestSMRConcurrentSubmitSoak is the concurrent-client counterpart of
// TestSMRAuthenticatedSoak: a class-3 (n=6, b=1, f=1) cluster drains bursty
// signed load from three concurrent clients in batches of up to 16 while
// one member crashes and another turns Byzantine (rotating strategies)
// mid-run.
// Submitters race the draining goroutine on purpose — under -race this is
// the concurrency audit of the Replica queues and Cluster fault state — and
// commands arriving mid-drain must never break log consistency or prefix
// agreement.
func TestSMRConcurrentSubmitSoak(t *testing.T) {
	strategies := []Strategy{
		Silent(),
		Equivocate("evil-a", "evil-b"),
		RandomJunk("junk-1", "junk-2", "__noop__"),
		ForgeTimestamp("forged"),
		Mimic(),
	}
	for run := 0; run < len(strategies); run++ {
		strat := strategies[run]
		t.Run(strat.Name(), func(t *testing.T) {
			cluster := newSignedCluster(t, class3Soak(), 200+int64(run), smr.ClusterConfig{MaxBatch: 16})

			// Three clients submit bursty waves concurrently with the
			// draining goroutine.
			const perClient = 50
			var wg sync.WaitGroup
			for client := 0; client < 3; client++ {
				wg.Add(1)
				go func(client int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(run*10 + client)))
					signer := auth.NewClientSigner(soakClientSeed, uint32(client))
					for i := 0; i < perClient; i++ {
						cmd, err := kv.SignedCommand(signer, uint64(i+1),
							"SET", fmt.Sprintf("key-%d", rng.Intn(17)), fmt.Sprintf("val-%d-%d", client, i))
						if err != nil {
							t.Error(err)
							return
						}
						cluster.Submit(0, cmd)
						if rng.Intn(8) == 0 {
							runtime.Gosched()
						}
					}
				}(client)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()

			submittersDone := false
			for wave := 0; ; wave++ {
				switch wave {
				case 2:
					if err := cluster.SetByzantine(5, strat); err != nil {
						t.Fatal(err)
					}
				case 4:
					if err := cluster.Crash(0); err != nil {
						t.Fatal(err)
					}
				}
				if err := cluster.Drain(600); err != nil {
					t.Fatalf("wave %d: %v", wave, err)
				}
				if err := cluster.CheckConsistency(); err != nil {
					t.Fatalf("wave %d: %v", wave, err)
				}
				if !submittersDone {
					// An empty queue with submitters still running is not
					// progress: yield to them instead of burning waves.
					select {
					case <-done:
						submittersDone = true
					case <-time.After(time.Millisecond):
					}
				}
				if submittersDone && cluster.PendingTotal() == 0 {
					break
				}
				if wave > 2000 {
					t.Fatalf("soak did not drain: %d pending", cluster.PendingTotal())
				}
			}
			if err := cluster.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			// Live honest replicas converge to identical stores.
			ref := cluster.Replica(1).SM.(*kv.Store).Snapshot()
			for p := 2; p <= 4; p++ {
				got := cluster.Replica(model.PID(p)).SM.(*kv.Store).Snapshot()
				if len(got) != len(ref) {
					t.Fatalf("replica %d: %d keys vs %d", p, len(got), len(ref))
				}
				for k, v := range ref {
					if got[k] != v {
						t.Fatalf("replica %d: %s = %q, want %q", p, k, got[k], v)
					}
				}
			}
		})
	}
}
