package sim

import (
	"sync/atomic"
	"testing"

	"fdgrid/internal/ids"
)

// TestBandwidthDeliversFaster: with Bandwidth k, a burst of k messages
// can be drained in one tick; with Bandwidth 1 it takes k ticks.
func TestBandwidthDeliversFaster(t *testing.T) {
	drainTime := func(bandwidth int) Time {
		s := MustNew(Config{N: 2, T: 0, Seed: 1, MaxSteps: 10_000, Bandwidth: bandwidth})
		const burst = 10
		var done atomic.Int64
		done.Store(-1)
		s.Spawn(1, func(e *Env) {
			for i := 0; i < burst; i++ {
				e.Send(2, Intern("burst"), i)
			}
			for {
				e.Step()
			}
		})
		s.Spawn(2, func(e *Env) {
			seen := 0
			for {
				if _, ok := e.Step(); ok {
					seen++
					if seen == burst {
						done.Store(int64(e.Now()))
					}
				}
			}
		})
		s.Run(func() bool { return done.Load() >= 0 })
		return Time(done.Load())
	}
	slow := drainTime(1)
	fast := drainTime(10)
	if fast >= slow {
		t.Errorf("bandwidth 10 drained at %d, bandwidth 1 at %d; want faster", fast, slow)
	}
}

// TestMultipleHoldsMaxWins: overlapping holds delay to the latest Until.
func TestMultipleHoldsMaxWins(t *testing.T) {
	s := MustNew(Config{
		N: 2, T: 0, Seed: 2, MaxSteps: 10_000,
		Holds: []Hold{
			{From: ids.NewSet(1), To: ids.NewSet(2), Until: 300},
			{From: ids.NewSet(1), To: ids.FullSet(2), Until: 900},
		},
	})
	var deliveredAt atomic.Int64
	deliveredAt.Store(-1)
	s.Spawn(1, func(e *Env) {
		e.Send(2, Intern("held"), nil)
		for {
			e.Step()
		}
	})
	s.Spawn(2, func(e *Env) {
		for {
			if m, ok := e.Step(); ok && m.Tag == Intern("held") {
				deliveredAt.Store(int64(m.DeliveredAt))
			}
		}
	})
	s.Run(func() bool { return deliveredAt.Load() >= 0 })
	if got := deliveredAt.Load(); got < 900 {
		t.Errorf("delivered at %d, want ≥ 900 (max of overlapping holds)", got)
	}
}

// TestOnTickAfterRunPanics.
func TestOnTickAfterRunPanics(t *testing.T) {
	s := MustNew(Config{N: 1, T: 0, Seed: 3, MaxSteps: 10})
	s.Run(nil)
	defer func() {
		if recover() == nil {
			t.Error("OnTick after Run did not panic")
		}
	}()
	s.OnTick(func(Time) {})
}

// TestProcessPanicSurfacesFromRun: a protocol bug inside a process
// main is re-raised by Run after every coroutine is stopped.
func TestProcessPanicSurfacesFromRun(t *testing.T) {
	defer goroutinesRestored(t)()
	s := MustNew(Config{N: 2, T: 0, Seed: 4, MaxSteps: 100_000})
	s.Spawn(1, func(e *Env) {
		e.Step() // wait one event, then blow up
		panic("protocol bug")
	})
	s.Spawn(2, func(e *Env) {
		e.Send(1, Intern("poke"), nil)
		for {
			e.Step()
		}
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not re-raise the protocol panic")
		}
		if r != "protocol bug" {
			t.Fatalf("re-raised %v", r)
		}
	}()
	s.Run(nil)
}

// TestNegativeBandwidthRejected.
func TestNegativeBandwidthRejected(t *testing.T) {
	if _, err := New(Config{N: 2, T: 0, MaxSteps: 10, Bandwidth: -1}); err == nil {
		t.Error("negative bandwidth accepted")
	}
}

// TestInFlightCount: counts pending messages.
func TestInFlightCount(t *testing.T) {
	s := MustNew(Config{
		N: 2, T: 0, Seed: 5, MaxSteps: 5_000,
		Holds: []Hold{{From: ids.NewSet(1), To: ids.NewSet(2), Until: 4_000}},
	})
	var sent atomic.Bool
	s.Spawn(1, func(e *Env) {
		e.Send(2, Intern("held"), nil)
		sent.Store(true)
		for {
			e.Step()
		}
	})
	var observed atomic.Int64
	observed.Store(-1)
	s.OnTick(func(now Time) {
		if now == 1_000 && sent.Load() {
			observed.Store(int64(s.InFlight()))
		}
	})
	s.Run(nil)
	if got := observed.Load(); got != 1 {
		t.Errorf("InFlight at tick 1000 = %d, want 1", got)
	}
}

// TestEnvCrashedVisibility: Env.Crashed is observable from tests.
func TestEnvCrashedVisibility(t *testing.T) {
	s := MustNew(Config{N: 2, T: 1, Seed: 6, MaxSteps: 2_000,
		Crashes: map[ids.ProcID]Time{2: 100}})
	var sawCrashed atomic.Bool
	env := s.Env(2)
	s.OnTick(func(now Time) {
		if now > 150 && env.Crashed() {
			sawCrashed.Store(true)
		}
	})
	s.Run(nil)
	if !sawCrashed.Load() {
		t.Error("Env.Crashed never became true")
	}
}

// TestSamplerPanicSurfaces: a panic in an OnTick sampler — which runs
// on whichever coroutine holds the run token, possibly a process that
// was parking — is re-raised from Run after a clean teardown that
// stops every other coroutine.
func TestSamplerPanicSurfaces(t *testing.T) {
	defer goroutinesRestored(t)()
	s := MustNew(Config{N: 2, T: 0, Seed: 1, MaxSteps: 1_000})
	s.OnTick(func(now Time) {
		if now == 5 {
			panic("sampler bug")
		}
	})
	s.SpawnAll(func(e *Env) {
		for {
			e.Step()
		}
	})
	defer func() {
		if r := recover(); r != "sampler bug" {
			t.Fatalf("recovered %v, want the sampler panic", r)
		}
	}()
	s.Run(nil)
	t.Fatal("Run returned without panicking")
}
