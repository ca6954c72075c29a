package sweep

import (
	"math/rand"
	"testing"

	"fdgrid/internal/core"
	"fdgrid/internal/sim"
)

// randomKSetMatrix draws a random legal k-set sweep point: n ∈ 5..9 with
// t < n/2, a random grid line z, a random class on it, up to t crashes
// at random times, a random GST. The rng only builds the matrix; the
// runs themselves are deterministic per cell.
func randomKSetMatrix(rng *rand.Rand) Matrix {
	n := 5 + 2*rng.Intn(3) // 5, 7, 9
	t := (n - 1) / 2
	z := 1 + rng.Intn(t+1)
	line := core.GridLine(z, t)
	class := line[rng.Intn(len(line))]

	var crashes []CrashSpec
	used := map[int]bool{}
	for i := 0; i < rng.Intn(t+1); i++ {
		p := 1 + rng.Intn(n)
		if used[p] {
			continue
		}
		used[p] = true
		crashes = append(crashes, CrashSpec{Proc: p, At: sim.Time(rng.Intn(1_200))})
	}
	return Matrix{
		Name:     "prop",
		Protocol: "kset-grid",
		Seeds:    []int64{rng.Int63()},
		Sizes:    []Size{{N: n, T: t}},
		Patterns: []CrashPattern{{Name: "random", Crashes: crashes}},
		Combos:   []Combo{{Family: class.Fam, Param: class.Param, Z: z}},
		GST:      sim.Time(rng.Intn(800)),
		MaxSteps: 3_000_000,
	}
}

// TestKSetInvariantsOverRandomCells is the property test: for every cell
// of randomly drawn sweeps, the k-set agreement invariants must hold —
//
//   - termination: every correct process decides (the cell stops early
//     and records n−f decisions);
//   - k-agreement: at most z distinct values are decided;
//   - validity: every decided value was proposed (decided values are the
//     proposal ids, checked by the runner via Outcome.Check).
//
// The runner encodes the checks; this test asserts that no random point
// of the configuration space produces a failing or errored cell, and
// re-checks the structural invariants on the recorded results.
func TestKSetInvariantsOverRandomCells(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	for i := 0; i < rounds; i++ {
		m := randomKSetMatrix(rng)
		r, err := Run(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range r.Cells {
			combo := c.Combo
			z := combo.Z
			if c.Verdict != Pass {
				t.Fatalf("round %d (%s z=%d, pattern %+v, seed %d): %s — %s",
					i, combo.Class(), z, m.Patterns[0].Crashes, c.Seed, c.Verdict, c.Detail)
			}
			if !c.StoppedEarly {
				t.Fatalf("round %d: cell did not terminate before its budget", i)
			}
			if len(c.Decided) == 0 || len(c.Decided) > z {
				t.Fatalf("round %d: %d distinct decided values, want 1..%d", i, len(c.Decided), z)
			}
			crashed := len(m.Patterns[0].Crashes)
			if c.Decisions < c.Size.N-crashed {
				t.Fatalf("round %d: only %d of ≥%d expected decisions", i, c.Decisions, c.Size.N-crashed)
			}
			// Validity: proposals are the process ids, so decided values
			// must name live proposal sources.
			for _, v := range c.Decided {
				if v < 1 || v > c.Size.N {
					t.Fatalf("round %d: decided value %d was never proposed", i, v)
				}
			}
		}
	}
}

// randomWheelsMatrix draws a random point of the addition frontier
// x+y ≤ t+1: n ∈ 4..6, t ∈ {1, 2}, a random GST.
func randomWheelsMatrix(rng *rand.Rand) Matrix {
	n := 4 + rng.Intn(3)
	tt := 1 + rng.Intn(2)
	if tt >= n {
		tt = n - 1
	}
	x := 1 + rng.Intn(tt+1)
	y := rng.Intn(tt + 2 - x) // x+y ≤ t+1
	return Matrix{
		Name: "prop-wheels", Protocol: "two-wheels",
		Seeds: []int64{rng.Int63()}, Sizes: []Size{{N: n, T: tt}},
		Combos: []Combo{{X: x, Y: y}},
		GST:    sim.Time(rng.Intn(500)), MaxSteps: 200_000,
		Params: map[string]int64{"stable_for": 8_000, "margin": 5_000},
	}
}

// TestTwoWheelsInvariantsOverRandomCells drives random points of the
// addition frontier x+y ≤ t+1 and asserts the emulated Ω_z verdicts.
func TestTwoWheelsInvariantsOverRandomCells(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	rounds := 8
	if testing.Short() {
		rounds = 3
	}
	for i := 0; i < rounds; i++ {
		m := randomWheelsMatrix(rng)
		r, err := Run(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range r.Cells {
			if c.Verdict != Pass {
				t.Fatalf("round %d (n=%d t=%d x=%d y=%d seed %d): %s — %s",
					i, c.Size.N, c.Size.T, c.Combo.X, c.Combo.Y, c.Seed, c.Verdict, c.Detail)
			}
		}
	}
}
