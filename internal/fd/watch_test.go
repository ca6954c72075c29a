package fd

import (
	"reflect"
	"testing"

	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

// TestHintedWatchMatchesDense: for every hinted ground-truth oracle, the
// trace WatchLeader/WatchSuspector record at the oracle's change ticks
// equals the one sampled on every tick — samples, horizon, and the tick
// at which a StableFor stop fires.
func TestHintedWatchMatchesDense(t *testing.T) {
	cfg := sim.Config{N: 7, T: 3, MaxSteps: 9_000, GST: 1_500,
		Crashes: map[ids.ProcID]sim.Time{2: 0, 5: 700, 7: 2_300}}
	script := []LeaderStep{
		{At: 0, Common: ids.NewSet(1, 2)},
		{At: 400, Common: ids.NewSet(3), PerProc: map[ids.ProcID]ids.Set{4: ids.NewSet(6)}},
		{At: 1_900, Common: ids.NewSet(4)},
	}
	type source struct {
		name string
		new  func(*sim.System) (src ChangeHinted, read func(ids.ProcID) ids.Set)
	}
	sources := []source{
		{"evt-omega", func(s *sim.System) (ChangeHinted, func(ids.ProcID) ids.Set) {
			o := NewOmega(s, 2, WithEpoch(90))
			return o, o.Trusted
		}},
		{"evt-s", func(s *sim.System) (ChangeHinted, func(ids.ProcID) ids.Set) {
			o := NewEvtS(s, 3, WithLag(35))
			return o, o.Suspected
		}},
		{"hostile-s", func(s *sim.System) (ChangeHinted, func(ids.ProcID) ids.Set) {
			o := NewS(s, 2, WithHostile(true), WithEpoch(70))
			return o, o.Suspected
		}},
		{"scripted-leader", func(s *sim.System) (ChangeHinted, func(ids.ProcID) ids.Set) {
			o := NewScriptedLeader(s, script)
			return o, o.Trusted
		}},
	}
	stoppedEarly := 0
	for _, src := range sources {
		for seed := int64(0); seed < 3; seed++ {
			for _, margin := range []sim.Time{0, 1_200} {
				run := func(dense bool) (*SetTrace, sim.Report) {
					c := cfg
					c.Seed = seed
					sys := sim.MustNew(c)
					h, read := src.new(sys)
					var o any = h
					if dense {
						o = nil
					}
					tr := watchSets(sys, o, true, read)
					var stop func() bool
					if margin > 0 {
						stop = tr.StableFor(sys.Pattern().Correct(), margin)
					}
					return tr, sys.Run(stop)
				}
				hinted, hrep := run(false)
				dense, drep := run(true)
				if hrep.Steps != drep.Steps || hrep.StoppedEarly != drep.StoppedEarly {
					t.Errorf("%s seed %d margin %d: run ended at %d (early %v) hinted, %d (early %v) dense",
						src.name, seed, margin, hrep.Steps, hrep.StoppedEarly, drep.Steps, drep.StoppedEarly)
				}
				if drep.StoppedEarly {
					stoppedEarly++
				}
				if hinted.Horizon() != dense.Horizon() {
					t.Errorf("%s seed %d margin %d: horizon %d hinted, %d dense",
						src.name, seed, margin, hinted.Horizon(), dense.Horizon())
				}
				for p := ids.ProcID(1); int(p) <= cfg.N; p++ {
					if hs, ds := hinted.Samples(p), dense.Samples(p); !reflect.DeepEqual(hs, ds) {
						t.Errorf("%s seed %d margin %d: %v samples differ:\nhinted %v\ndense  %v",
							src.name, seed, margin, p, hs, ds)
					}
				}
			}
		}
	}
	if stoppedEarly == 0 {
		t.Error("no StableFor stop fired: the early-stop comparison is vacuous")
	}
}
