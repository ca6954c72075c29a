package fd

import (
	"slices"
	"testing"

	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

// TestOracleWindowsExact checks the window invariant of ChangeHinted on
// every oracle that memoizes over its change window. At every tick it
// reads every reader from one long-lived oracle, whose windows are warm,
// and from a twin built afresh at that tick, whose windows are cold: the
// outputs (Suspected, Trusted, Query over every region) and NextChange
// must agree. The twins' hints must also be constant across each window
// they announce, so a memo whose window ends a tick late returns a stale
// output or hint at the tick it should have closed on. The pattern puts
// crashes inside anarchy epochs, two at one tick, and with a detection
// lag inside the same epoch again.
func TestOracleWindowsExact(t *testing.T) {
	const n, horizon = 6, 420
	cfg := sim.Config{
		N: n, T: 3, Seed: 7, MaxSteps: horizon, GST: 200,
		Crashes: map[ids.ProcID]sim.Time{2: 37, 5: 90, 6: 90},
	}
	leaderSteps := []LeaderStep{
		{At: 0, Common: ids.NewSet(1, 2)},
		{At: 45, Common: ids.NewSet(3), PerProc: map[ids.ProcID]ids.Set{4: ids.NewSet(4)}},
		{At: 45, Common: ids.NewSet(3, 4)},
		{At: 121, Common: ids.NewSet(1)},
	}
	suspectSteps := []SuspectStep{
		{At: 3, Common: ids.NewSet(4)},
		{At: 60, Common: ids.NewSet(2), PerProc: map[ids.ProcID]ids.Set{1: ids.NewSet(2, 3)}},
		{At: 131, Common: ids.NewSet(2, 5, 6)},
	}
	oracles := []struct {
		name  string
		build func(sys *sim.System) any
	}{
		{"evt-s/hostile/lag", func(sys *sim.System) any { return NewEvtS(sys, 3, WithLag(5)) }},
		{"evt-s/calm/lag", func(sys *sim.System) any {
			return NewEvtS(sys, 3, WithHostile(false), WithLag(7), WithEpoch(10))
		}},
		{"s/hostile/lag", func(sys *sim.System) any { return NewS(sys, 2, WithLag(5)) }},
		{"s/calm/lag", func(sys *sim.System) any { return NewS(sys, 2, WithHostile(false), WithLag(3)) }},
		{"evt-phi/lag", func(sys *sim.System) any { return NewEvtPhi(sys, 1, WithLag(5)) }},
		{"evt-phi/lag/epoch", func(sys *sim.System) any { return NewEvtPhi(sys, 2, WithLag(11), WithEpoch(10)) }},
		{"phi/lag", func(sys *sim.System) any { return NewPhi(sys, 2, WithLag(6)) }},
		{"omega", func(sys *sim.System) any { return NewOmega(sys, 2) }},
		{"omega/early", func(sys *sim.System) any { return NewOmega(sys, 1, WithEpoch(10), WithStabilizeAt(100)) }},
		{"scripted-leader", func(sys *sim.System) any { return NewScriptedLeader(sys, leaderSteps) }},
		{"scripted-suspector", func(sys *sim.System) any { return NewScriptedSuspector(sys, suspectSteps) }},
	}
	var regions []ids.Set
	for mask := 0; mask < 1<<n; mask++ {
		var r ids.Set
		for p := 1; p <= n; p++ {
			if mask&(1<<(p-1)) != 0 {
				r = r.Add(ids.ProcID(p))
			}
		}
		regions = append(regions, r)
	}

	for _, o := range oracles {
		t.Run(o.name, func(t *testing.T) {
			ticks := 0
			probeRun(t, cfg, func(sys *sim.System) {
				warm := o.build(sys)
				till := sim.Time(-1) // the cold hint's current window end
				sys.OnTick(func(now sim.Time) {
					ticks++
					cold := o.build(sys)
					w, c := readOracle(warm, now, n, regions), readOracle(cold, now, n, regions)
					if !w.equal(c) {
						t.Fatalf("t=%d: warm oracle reads %+v, a fresh one %+v", now, w, c)
					}
					if c.hint <= now {
						t.Fatalf("t=%d: NextChange = %d, not in the future", now, c.hint)
					}
					if now < till && c.hint != till {
						t.Fatalf("t=%d: NextChange = %d inside the window ending at %d", now, c.hint, till)
					}
					till = c.hint
				})
			})
			if ticks < horizon {
				t.Fatalf("read %d ticks, want %d", ticks, horizon)
			}
		})
	}
}

// oracleRead is everything an oracle tells at one tick.
type oracleRead struct {
	hint    sim.Time
	sets    []ids.Set // Suspected or Trusted, per reader
	answers []bool    // Query, per reader and region
}

// readOracle reads o's hint at now first, then the output of every
// reader 1..n.
func readOracle(o any, now sim.Time, n int, regions []ids.Set) oracleRead {
	r := oracleRead{hint: o.(ChangeHinted).NextChange(now)}
	for p := ids.ProcID(1); int(p) <= n; p++ {
		switch o := o.(type) {
		case Suspector:
			r.sets = append(r.sets, o.Suspected(p))
		case Leader:
			r.sets = append(r.sets, o.Trusted(p))
		case Querier:
			for _, x := range regions {
				r.answers = append(r.answers, o.Query(p, x))
			}
		}
	}
	return r
}

func (r oracleRead) equal(o oracleRead) bool {
	return r.hint == o.hint && slices.Equal(r.answers, o.answers) &&
		slices.EqualFunc(r.sets, o.sets, ids.Set.Equal)
}
