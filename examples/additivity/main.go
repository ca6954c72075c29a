// Additivity: the paper's motivating example (its introduction, Fig. 2).
//
// With t = 3 crashes possible among n = 7 processes:
//
//   - ◇S_t alone solves 2-set agreement but NOT consensus;
//   - ◇φ_1 alone solves t-set agreement but NOT (t−1)-set agreement;
//   - their ADDITION — the two-wheels algorithm — yields Ω_1, which
//     solves consensus: z = t+2−x−y = 3+2−3−1 = 1.
//
// This program runs all three configurations and prints what each
// achieves.
package main

import (
	"fmt"
	"os"

	"fdgrid/internal/agreement"
	"fdgrid/internal/core"
	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/node"
	"fdgrid/internal/rbcast"
	"fdgrid/internal/reduction"
	"fdgrid/internal/sim"
)

const (
	n = 7
	t = 3
	x = t // scope of ◇S_x
	y = 1 // scope of ◇φ_y
)

func config(seed int64) sim.Config {
	return sim.Config{
		N: n, T: t, Seed: seed, MaxSteps: 2_000_000, GST: 600,
		Crashes:   map[ids.ProcID]sim.Time{6: 300, 7: 900},
		Bandwidth: n,
	}
}

// solveWith runs k-set agreement through the grid construction for class
// c and returns the number of distinct decided values.
func solveWith(c core.Class, k int, seed int64) (int, error) {
	sys := sim.MustNew(config(seed))
	out, err := core.SpawnKSetWith(sys, c, nil)
	if err != nil {
		return 0, err
	}
	rep := sys.Run(out.AllDecided(sys.Pattern().Correct()))
	if !rep.StoppedEarly {
		return 0, fmt.Errorf("timed out")
	}
	if err := out.Check(sys.Pattern(), k); err != nil {
		return 0, err
	}
	return len(out.DistinctValues()), nil
}

func main() {
	fmt.Printf("n=%d, t=%d — what each detector class buys you (paper Fig. 2):\n\n", n, t)

	// ◇S_t: line z = t−x+2 = 2 of the grid.
	kS := core.KSetPower(core.Class{Fam: core.FamEvtS, Param: x}, t)
	d, err := solveWith(core.Class{Fam: core.FamEvtS, Param: x}, kS, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "◇S_t run failed:", err)
		os.Exit(1)
	}
	fmt.Printf("  ◇S_%d alone      → %d-set agreement (measured %d distinct)\n", x, kS, d)

	// ◇φ_1: line z = t−y+1 = t of the grid.
	kP := core.KSetPower(core.Class{Fam: core.FamEvtPhi, Param: y}, t)
	d, err = solveWith(core.Class{Fam: core.FamEvtPhi, Param: y}, kP, 2)
	if err != nil {
		fmt.Fprintln(os.Stderr, "◇φ_1 run failed:", err)
		os.Exit(1)
	}
	fmt.Printf("  ◇φ_%d alone      → %d-set agreement (measured %d distinct)\n", y, kP, d)

	// The addition: ◇S_t + ◇φ_1 → Ω_1 → consensus.
	v := core.CanTransform(
		[]core.Class{{Fam: core.FamEvtS, Param: x}, {Fam: core.FamEvtPhi, Param: y}},
		core.Class{Fam: core.FamOmega, Param: 1}, t)
	fmt.Printf("  ◇S_%d + ◇φ_%d    → Ω_1? %v (%s)\n", x, y, v.OK, v.Reason)

	sys := sim.MustNew(config(3))
	susp := fd.NewEvtS(sys, x)
	quer := fd.NewEvtPhi(sys, y)
	emu := reduction.NewOmegaEmulation(quer)
	out := agreement.NewOutcome()
	for p := 1; p <= n; p++ {
		id := ids.ProcID(p)
		sys.Spawn(id, func(env *sim.Env) {
			rb := rbcast.New(env)
			lower, upper := reduction.InstallTwoWheels(env, rb, susp, quer, x, y, emu, nil)
			nd := node.New(env, rb, lower, upper)
			agreement.KSet(nd, rb, emu, agreement.Value(100+int(env.ID())), out)
			nd.RunForever()
		})
	}
	rep := sys.Run(out.AllDecided(sys.Pattern().Correct()))
	if !rep.StoppedEarly {
		fmt.Fprintln(os.Stderr, "addition run timed out")
		os.Exit(1)
	}
	if err := out.Check(sys.Pattern(), 1); err != nil {
		fmt.Fprintln(os.Stderr, "CONSENSUS FAILED:", err)
		os.Exit(1)
	}
	fmt.Printf("\n  added together they solve CONSENSUS: all correct processes decided %v\n",
		out.DistinctValues())
	fmt.Println("\n  (neither class alone reaches consensus; the sum is stronger than its parts)")
}
