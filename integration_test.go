package fdgrid

import (
	"math/rand"
	"testing"

	"fdgrid/internal/agreement"
	"fdgrid/internal/core"
	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

// TestRandomizedGridSweep is the repository's fuzz-style integration
// test: random system sizes, crash schedules (count, victims and times
// all random, up to t), random grid classes — every run must satisfy
// validity, z-agreement and termination through whatever transformation
// stack the class requires.
func TestRandomizedGridSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized sweep is slow; run without -short")
	}
	const runs = 16
	rng := rand.New(rand.NewSource(20260610))
	for i := 0; i < runs; i++ {
		n := 5 + 2*rng.Intn(3) // 5, 7, 9
		tt := (n - 1) / 2
		// Random crash schedule: up to t crashes, random times (0 = initial).
		crashes := make(map[ids.ProcID]sim.Time)
		for _, p := range rng.Perm(n)[:rng.Intn(tt+1)] {
			crashes[ids.ProcID(p+1)] = sim.Time(rng.Intn(1_500))
		}
		z := 1 + rng.Intn(tt+1)
		line := core.GridLine(z, tt)
		c := line[rng.Intn(len(line))]

		cfg := sim.Config{
			N: n, T: tt, Seed: rng.Int63(), MaxSteps: 3_000_000,
			GST: sim.Time(200 + rng.Intn(1_000)), Crashes: crashes, Bandwidth: n,
		}
		sys := sim.MustNew(cfg)
		out, err := core.SpawnKSetWith(sys, c, nil)
		if err != nil {
			t.Fatalf("run %d (%v, n=%d, t=%d): %v", i, c, n, tt, err)
		}
		rep := sys.Run(out.AllDecided(sys.Pattern().Correct()))
		if !rep.StoppedEarly {
			t.Errorf("run %d (%v, n=%d, t=%d, crashes=%v): timed out; decisions %v",
				i, c, n, tt, crashes, out.Decisions())
			continue
		}
		if err := out.Check(sys.Pattern(), z); err != nil {
			t.Errorf("run %d (%v, n=%d, t=%d, crashes=%v, seed=%d): %v",
				i, c, n, tt, crashes, cfg.Seed, err)
		}
	}
}

// TestCascadingCrashesDuringAgreement injects the maximum number of
// crashes at staggered times straddling the GST — the harshest legal
// failure schedule — and checks agreement still holds.
func TestCascadingCrashesDuringAgreement(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		const (
			n  = 9
			tt = 4
		)
		cfg := sim.Config{
			N: n, T: tt, Seed: seed, MaxSteps: 3_000_000, GST: 1_000, Bandwidth: n,
			Crashes: map[ids.ProcID]sim.Time{
				2: 0,     // initial
				4: 500,   // pre-GST
				6: 1_000, // at GST
				8: 1_500, // post-GST
			},
		}
		sys := sim.MustNew(cfg)
		oracle := fd.NewOmega(sys, 2)
		out := agreement.NewOutcome()
		for p := 1; p <= n; p++ {
			sys.Spawn(ids.ProcID(p), agreement.KSetMain(oracle, agreement.Value(1000+p), out))
		}
		rep := sys.Run(out.AllDecided(sys.Pattern().Correct()))
		if !rep.StoppedEarly {
			t.Fatalf("seed %d: timed out", seed)
		}
		if err := out.Check(sys.Pattern(), 2); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestAgreementSafetyNeverViolated: across many seeds, no run — however
// unlucky — ever decides more than z distinct values (safety is per-run,
// not probabilistic).
func TestAgreementSafetyNeverViolated(t *testing.T) {
	const (
		n = 5
		z = 2
	)
	for seed := int64(0); seed < 20; seed++ {
		cfg := sim.Config{
			N: n, T: 2, Seed: seed, MaxSteps: 1_500_000,
			GST: 2_500, Bandwidth: n, // long anarchy: maximal adversarial window
		}
		sys := sim.MustNew(cfg)
		oracle := fd.NewOmega(sys, z)
		out := agreement.NewOutcome()
		for p := 1; p <= n; p++ {
			sys.Spawn(ids.ProcID(p), agreement.KSetMain(oracle, agreement.Value(p), out))
		}
		rep := sys.Run(out.AllDecided(sys.Pattern().Correct()))
		if !rep.StoppedEarly {
			t.Fatalf("seed %d: timed out", seed)
		}
		if got := len(out.DistinctValues()); got > z {
			t.Fatalf("seed %d: %d distinct values decided (z=%d)", seed, got, z)
		}
	}
}
