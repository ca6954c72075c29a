// Quickstart: solve 2-set agreement among 5 processes (one crashes)
// using the paper's Ω_2-based algorithm, in ~30 lines of API.
package main

import (
	"fmt"
	"os"

	"fdgrid/internal/agreement"
	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

func main() {
	cfg := sim.Config{
		N: 5, T: 2, // five processes, at most two crashes
		Seed:      2026,
		MaxSteps:  1_000_000, // virtual-time budget
		GST:       500,       // the oracle may misbehave before this tick
		Crashes:   map[ids.ProcID]sim.Time{4: 700},
		Bandwidth: 5,
	}
	sys := sim.MustNew(cfg)

	// A ground-truth Ω_2 oracle: eventually all correct processes trust
	// the same ≤2 processes, at least one of them correct.
	oracle := fd.NewOmega(sys, 2)

	// Every process proposes 100+its id and runs the Fig. 3 algorithm.
	out := agreement.NewOutcome()
	for p := 1; p <= cfg.N; p++ {
		id := ids.ProcID(p)
		sys.Spawn(id, agreement.KSetMain(oracle, agreement.Value(100+p), out))
	}
	sys.Run(out.AllDecided(sys.Pattern().Correct()))

	// Iterate in process order: ranging the decisions map directly would
	// print in Go's randomized map order, a different output every run.
	decisions := out.Decisions()
	for p := 1; p <= cfg.N; p++ {
		if d, ok := decisions[ids.ProcID(p)]; ok {
			fmt.Printf("process %v decided %d (round %d, vtick %d)\n", ids.ProcID(p), d.Value, d.Round, d.At)
		}
	}
	if err := out.Check(sys.Pattern(), 2); err != nil {
		fmt.Fprintln(os.Stderr, "FAILED:", err)
		os.Exit(1)
	}
	fmt.Printf("ok: %d distinct value(s) decided, validity and termination hold\n",
		len(out.DistinctValues()))
}
