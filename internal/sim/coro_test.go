package sim

import (
	"runtime"
	"testing"

	"fdgrid/internal/ids"
)

// goroutinesRestored returns a check that fails t unless the goroutine
// count is back at (or below) its value from when goroutinesRestored was
// called: every process coroutine of the runs in between has been
// stopped. Below, because the previous test's goroutine may still have
// been exiting when the count was taken.
func goroutinesRestored(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("goroutines: %d before Run, %d after", before, after)
		}
	}
}

// runTickShape runs BenchmarkSchedulerTick's shape: process 1 steps
// every tick, processes 2..8 park on messages that never come.
func runTickShape(maxSteps Time) Report {
	s := MustNew(Config{N: 8, T: 3, Seed: 1, MaxSteps: maxSteps})
	s.Spawn(1, func(e *Env) {
		for {
			e.Step()
		}
	})
	for p := 2; p <= 8; p++ {
		s.Spawn(ids.ProcID(p), func(e *Env) {
			for {
				e.StepUntil(Never)
			}
		})
	}
	return s.Run(nil)
}

// runStormShape runs BenchmarkSchedulerWakeStorm's shape: all 8
// processes step every tick.
func runStormShape(maxSteps Time) Report {
	s := MustNew(Config{N: 8, T: 3, Seed: 1, MaxSteps: maxSteps})
	s.SpawnAll(func(e *Env) {
		for {
			e.Step()
		}
	})
	return s.Run(nil)
}

// TestWakeSwitchCounts pins the scheduler's switch economy. A process
// that is itself the first one due keeps running: the tick shape's
// extra 1000 ticks add 1000 wakes and not one switch. A process that
// is not due first costs two switches — the parker yields to Run's
// loop, which resumes it — so the storm shape's extra wakes
// cost exactly two switches each.
func TestWakeSwitchCounts(t *testing.T) {
	short, long := runTickShape(1001), runTickShape(2001)
	if d := long.Wakes - short.Wakes; d != 1000 {
		t.Errorf("tick shape: %d extra wakes over 1000 extra ticks, want 1000", d)
	}
	if long.Switches != short.Switches {
		t.Errorf("tick shape: switches %d at 1000 ticks, %d at 2000, want no switch per wake", short.Switches, long.Switches)
	}
	// Launch (8×2), the run loop's first wake (2), the end-of-run yield
	// is that wake's switch back, and teardown stops all 8 (8×2).
	if short.Switches != 34 {
		t.Errorf("tick shape: %d switches, want 34 (launch, first wake, teardown)", short.Switches)
	}

	short, long = runStormShape(1001), runStormShape(2001)
	dw, ds := long.Wakes-short.Wakes, long.Switches-short.Switches
	if dw != 8*1000 {
		t.Errorf("storm shape: %d extra wakes over 1000 extra ticks, want 8000", dw)
	}
	if ds != 2*dw {
		t.Errorf("storm shape: %d extra switches for %d extra wakes, want 2 per wake", ds, dw)
	}
}

// TestStopPredicatePanicSurfaces: a stop predicate runs on whichever
// coroutine holds the token — here a parking process — and its panic
// re-raises from Run with every coroutine stopped.
func TestStopPredicatePanicSurfaces(t *testing.T) {
	defer goroutinesRestored(t)()
	s := MustNew(Config{N: 3, T: 0, Seed: 1, MaxSteps: 1_000})
	s.SpawnAll(func(e *Env) {
		for {
			e.Step()
		}
	})
	func() {
		defer func() {
			if r := recover(); r != "stop bug" {
				t.Fatalf("recovered %v, want the stop-predicate panic", r)
			}
		}()
		s.Run(func() bool {
			if s.Now() == 7 {
				panic("stop bug")
			}
			return false
		})
		t.Fatal("Run returned without panicking")
	}()
}

// TestCrashAtOwnTick: a process crashing at a tick whose phases it is
// running itself is only marked dead, then unwinds at its next Env
// call — it takes no step after its crash tick (its step at that tick
// ran before the tick's crash phase; sends from it are refused), and
// Run still returns with no coroutine left.
func TestCrashAtOwnTick(t *testing.T) {
	defer goroutinesRestored(t)()
	const crashAt = 50
	s := MustNew(Config{N: 2, T: 1, Seed: 1, MaxSteps: 200, Crashes: map[ids.ProcID]Time{1: crashAt}})
	last := Time(-1)
	s.Spawn(1, func(e *Env) {
		for {
			last = e.Now()
			e.Step()
		}
	})
	rep := s.Run(nil)
	if last != crashAt {
		t.Errorf("process 1 last stepped at %d, want its crash tick %d", last, crashAt)
	}
	if !s.Env(1).Crashed() {
		t.Error("process 1 not crashed")
	}
	// Process 1 alone ran every tick phase up to its crash, so it never
	// yielded: its only switches are launch (2), the run loop's first wake
	// (2, the second being its unwind back to the run loop), and nothing
	// at teardown.
	if rep.Switches != 4 {
		t.Errorf("%d switches, want 4: the crash must not stop a running coroutine", rep.Switches)
	}
}

// TestKilledMainThatRecoversReunwinds: a main that recovers the crash
// unwind and calls Env again is unwound again, not resumed — whether it
// was killed by a crash mid-run (process 1) or by teardown (process 2).
func TestKilledMainThatRecoversReunwinds(t *testing.T) {
	defer goroutinesRestored(t)()
	s := MustNew(Config{N: 2, T: 1, Seed: 1, MaxSteps: 100, Crashes: map[ids.ProcID]Time{1: 20}})
	var recovered, resumed [3]int
	s.SpawnAll(func(e *Env) {
		id := e.ID()
		func() {
			defer func() {
				if recover() != nil {
					recovered[id]++
				}
			}()
			for {
				e.Step()
			}
		}()
		e.Step() // must unwind again
		resumed[id]++
	})
	s.Run(nil)
	for id := 1; id <= 2; id++ {
		if recovered[id] != 1 || resumed[id] != 0 {
			t.Errorf("process %d: recovered %d unwinds, resumed %d times; want 1 and 0", id, recovered[id], resumed[id])
		}
	}
}

// TestRunAllMainsExit: every main returns on its own long before
// MaxSteps. The run still ends at MaxSteps, with nothing left to stop.
func TestRunAllMainsExit(t *testing.T) {
	defer goroutinesRestored(t)()
	s := MustNew(Config{N: 4, T: 0, Seed: 1, MaxSteps: 1_000})
	steps := 0
	s.SpawnAll(func(e *Env) {
		for i := 0; i < int(e.ID()); i++ {
			e.Step()
			steps++
		}
	})
	rep := s.Run(nil)
	if steps != 1+2+3+4 {
		t.Errorf("%d steps, want 10", steps)
	}
	if rep.Steps != 1_000 || rep.StoppedEarly {
		t.Errorf("run ended at %d (early=%v), want 1000", rep.Steps, rep.StoppedEarly)
	}
}
