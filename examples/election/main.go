// Election: using the two-wheels emulated Ω_z as an eventual
// multi-leader election service.
//
// The program runs the ◇S_x + ◇φ_y → Ω_z addition on 6 processes,
// prints the evolving trusted sets (the elected committee of ≤ z
// leaders), crashes a process mid-run, and shows the committee
// re-stabilizing on live leadership — the exact service Ω_z specifies:
// eventually one common committee containing a correct process.
package main

import (
	"fmt"
	"os"
	"sort"

	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/reduction"
	"fdgrid/internal/sim"
)

func main() {
	const (
		n, t = 6, 2
		x, y = 2, 1 // committee size z = t+2−x−y = 1
	)
	z := t + 2 - x - y
	cfg := sim.Config{
		N: n, T: t, Seed: 11, MaxSteps: 400_000, GST: 800,
		Crashes:   map[ids.ProcID]sim.Time{1: 6_000}, // a late crash to re-elect around
		Bandwidth: n,
	}
	sys := sim.MustNew(cfg)
	susp := fd.NewEvtS(sys, x, fd.WithLeader(2))
	quer := fd.NewEvtPhi(sys, y)
	emu, _ := reduction.SpawnTwoWheels(sys, susp, quer, x, y)
	trace := fd.WatchLeader(sys, emu)

	fmt.Printf("eventual %d-leader election on %d processes (◇S_%d + ◇φ_%d → Ω_%d)\n", z, n, x, y, z)
	fmt.Printf("process 1 will crash at vtick 6000; GST at %d\n\n", cfg.GST)

	// Sample the committee a few times along the run.
	checkpoints := []sim.Time{200, 1_000, 3_000, 5_999, 8_000, 15_000, 30_000}
	views := make(map[sim.Time]map[ids.ProcID]ids.Set)
	sys.OnTick(func(now sim.Time) {
		for _, cp := range checkpoints {
			if now == cp {
				view := make(map[ids.ProcID]ids.Set, n)
				for p := 1; p <= n; p++ {
					id := ids.ProcID(p)
					if !sys.Pattern().Crashed(id, now) {
						view[id] = emu.Trusted(id)
					}
				}
				views[now] = view
			}
		}
	})
	sys.Run(trace.StableFor(sys.Pattern().Correct(), 25_000))

	for _, cp := range checkpoints {
		view, ok := views[cp]
		if !ok {
			continue
		}
		procs := make([]int, 0, len(view))
		for p := range view {
			procs = append(procs, int(p))
		}
		sort.Ints(procs)
		fmt.Printf("vtick %-6d committee views: ", cp)
		for _, p := range procs {
			fmt.Printf("p%d→%s ", p, view[ids.ProcID(p)])
		}
		fmt.Println()
	}

	if err := trace.CheckOmega(sys.Pattern(), z, 10_000); err != nil {
		fmt.Fprintln(os.Stderr, "FAILED:", err)
		os.Exit(1)
	}
	final, _ := trace.FinalValue(sys.Pattern().Correct().Min())
	fmt.Printf("\nstable committee: %s (size ≤ %d, contains a correct process) — Ω_%d verified\n",
		final, z, z)
}
