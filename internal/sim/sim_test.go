package sim

import (
	"sync"
	"sync/atomic"
	"testing"

	"fdgrid/internal/ids"
)

func TestConfigValidate(t *testing.T) {
	valid := Config{N: 4, T: 1, MaxSteps: 100}
	if _, err := New(valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{N: 0, T: 0, MaxSteps: 10},
		{N: ids.MaxProcs + 1, T: 1, MaxSteps: 10},
		{N: 4, T: 1, MaxSteps: 10, Holds: []Hold{{From: ids.NewSet(1), To: ids.NewSet(2), Since: -1, Until: 5}}},
		{N: 4, T: 1, MaxSteps: 10, Holds: []Hold{{From: ids.NewSet(1), To: ids.NewSet(2), Since: 7, Until: 5}}},
		{N: 4, T: 4, MaxSteps: 10},
		{N: 4, T: -1, MaxSteps: 10},
		{N: 4, T: 1, MaxSteps: 0},
		{N: 4, T: 1, MaxSteps: 10, Crashes: map[ids.ProcID]Time{1: 0, 2: 0}},
		{N: 4, T: 2, MaxSteps: 10, Crashes: map[ids.ProcID]Time{5: 0}},
		{N: 4, T: 2, MaxSteps: 10, Crashes: map[ids.ProcID]Time{1: -3}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestPattern(t *testing.T) {
	cfg := Config{N: 5, T: 2, MaxSteps: 10, Crashes: map[ids.ProcID]Time{2: 0, 4: 7}}
	s := MustNew(cfg)
	fp := s.Pattern()
	if got := fp.Correct(); !got.Equal(ids.NewSet(1, 3, 5)) {
		t.Errorf("Correct() = %s", got)
	}
	if got := fp.Faulty(); !got.Equal(ids.NewSet(2, 4)) {
		t.Errorf("Faulty() = %s", got)
	}
	if !fp.Crashed(2, 0) || fp.Crashed(4, 6) || !fp.Crashed(4, 7) {
		t.Error("Crashed() timing wrong")
	}
	if fp.AllCrashed(ids.NewSet(2, 4), 6) {
		t.Error("AllCrashed true too early")
	}
	if !fp.AllCrashed(ids.NewSet(2, 4), 7) {
		t.Error("AllCrashed false at crash time")
	}
	if !fp.AllCrashed(ids.EmptySet(), 0) {
		t.Error("empty set should be vacuously AllCrashed")
	}
	if fp.CrashTime(1) != Never {
		t.Error("CrashTime(correct) != Never")
	}
}

// TestBroadcastDelivery: every correct process receives a broadcast from
// every correct process.
func TestBroadcastDelivery(t *testing.T) {
	const n = 5
	s := MustNew(Config{N: n, T: 0, Seed: 1, MaxSteps: 100_000})
	var mu sync.Mutex
	got := make(map[ids.ProcID]map[ids.ProcID]int)
	s.SpawnAll(func(e *Env) {
		e.Broadcast(Intern("hello"), int(e.ID()))
		seen := map[ids.ProcID]int{}
		for len(seen) < n {
			m, ok := e.Step()
			if !ok {
				continue
			}
			v, okv := m.Payload.(int)
			if !okv {
				t.Errorf("payload type %T", m.Payload)
				return
			}
			seen[m.From] = v
		}
		mu.Lock()
		got[e.ID()] = seen
		mu.Unlock()
	})
	rep := s.Run(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	})
	if !rep.StoppedEarly {
		t.Fatalf("run hit MaxSteps; got %d collectors", len(got))
	}
	for p, seen := range got {
		for q, v := range seen {
			if v != int(q) {
				t.Errorf("process %v saw %d from %v", p, v, q)
			}
		}
		if len(seen) != n {
			t.Errorf("process %v saw %d senders", p, len(seen))
		}
	}
	if rep.Messages.Sent["hello"] != n*n {
		t.Errorf("sent = %d, want %d", rep.Messages.Sent["hello"], n*n)
	}
}

// TestCrashStopsSends: every message accepted from a process crashed at
// tick c carries SentAt < c (the network refuses later sends).
func TestCrashStopsSends(t *testing.T) {
	const n = 3
	s := MustNew(Config{
		N: n, T: 1, Seed: 7, MaxSteps: 5_000,
		Crashes: map[ids.ProcID]Time{2: 100},
	})
	var lastSentAt atomic.Int64
	s.Spawn(2, func(e *Env) {
		for {
			e.Send(1, Intern("tick"), nil)
			// Yield to the scheduler between sends.
			e.Step()
		}
	})
	s.Spawn(1, func(e *Env) {
		for {
			m, ok := e.Step()
			if ok && m.Tag == Intern("tick") && int64(m.SentAt) > lastSentAt.Load() {
				lastSentAt.Store(int64(m.SentAt))
			}
		}
	})
	s.Spawn(3, func(e *Env) { e.Step() })
	s.Run(nil)
	if got := lastSentAt.Load(); got >= 100 {
		t.Errorf("crashed process message stamped SentAt=%d, want < 100", got)
	}
}

// TestInitialCrashNeverActs: crash at time 0 means no observable action.
func TestInitialCrashNeverActs(t *testing.T) {
	s := MustNew(Config{
		N: 2, T: 1, Seed: 3, MaxSteps: 1_000,
		Crashes: map[ids.ProcID]Time{1: 0},
	})
	ran := atomic.Bool{}
	s.Spawn(1, func(e *Env) {
		ran.Store(true)
		e.Broadcast(Intern("x"), nil)
	})
	s.Spawn(2, func(e *Env) {
		for {
			e.Step()
		}
	})
	rep := s.Run(nil)
	if ran.Load() {
		t.Error("initially-crashed process ran its main")
	}
	if rep.Messages.Sent["x"] != 0 {
		t.Error("initially-crashed process sent messages")
	}
}

// TestMessagesToCrashedAreDropped.
func TestMessagesToCrashedAreDropped(t *testing.T) {
	s := MustNew(Config{
		N: 2, T: 1, Seed: 11, MaxSteps: 2_000,
		Crashes: map[ids.ProcID]Time{2: 0},
	})
	s.Spawn(1, func(e *Env) {
		e.Send(2, Intern("gone"), nil)
		for {
			e.Step()
		}
	})
	rep := s.Run(func() bool { return s.Metrics().Sent(Intern("gone")) == 1 && s.InFlight() == 0 })
	if rep.Messages.Dropped["gone"] != 1 {
		t.Errorf("dropped = %d, want 1", rep.Messages.Dropped["gone"])
	}
}

// TestHoldDelaysDelivery: a held message is not delivered before Until.
func TestHoldDelaysDelivery(t *testing.T) {
	s := MustNew(Config{
		N: 2, T: 0, Seed: 5, MaxSteps: 10_000,
		Holds: []Hold{{From: ids.NewSet(1), To: ids.NewSet(2), Until: 500}},
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
			m, ok := e.Step()
			if ok && m.Tag == Intern("held") {
				deliveredAt.Store(int64(m.DeliveredAt))
				return
			}
		}
	})
	s.Run(func() bool { return deliveredAt.Load() >= 0 })
	if got := deliveredAt.Load(); got < 500 {
		t.Errorf("held message delivered at %d, want ≥ 500", got)
	}
}

// TestAwaitWakesOnTicks: an Await with a per-tick wake whose predicate
// depends only on time eventually returns even with no message
// traffic.
func TestAwaitWakesOnTicks(t *testing.T) {
	s := MustNew(Config{N: 1, T: 0, Seed: 2, MaxSteps: 10_000})
	reached := atomic.Bool{}
	s.Spawn(1, func(e *Env) {
		e.Await(func(Time) Time { return 0 }, func(*Message) {}, func() bool { return e.Now() >= 200 })
		reached.Store(true)
	})
	s.Run(func() bool { return reached.Load() })
	if !reached.Load() {
		t.Fatal("Await never returned on a tick-driven predicate")
	}
}

// TestRunStopsAtMaxSteps even with processes blocked forever.
func TestRunStopsAtMaxSteps(t *testing.T) {
	s := MustNew(Config{N: 2, T: 0, Seed: 9, MaxSteps: 300})
	s.SpawnAll(func(e *Env) {
		for {
			e.Step() // nothing ever arrives
		}
	})
	rep := s.Run(nil)
	if rep.StoppedEarly {
		t.Error("StoppedEarly = true, want false")
	}
	if rep.Steps < 300 {
		t.Errorf("Steps = %d, want ≥ 300", rep.Steps)
	}
}

// TestSendToUnknownPanics.
func TestSendToUnknownPanics(t *testing.T) {
	s := MustNew(Config{N: 2, T: 0, Seed: 1, MaxSteps: 100})
	var recovered atomic.Bool
	s.Spawn(1, func(e *Env) {
		defer func() {
			if recover() != nil {
				recovered.Store(true)
			}
		}()
		e.Send(9, Intern("bad"), nil)
	})
	s.Run(func() bool { return recovered.Load() })
	if !recovered.Load() {
		t.Error("Send to unknown process did not panic")
	}
}

// TestRunTwicePanics.
func TestRunTwicePanics(t *testing.T) {
	s := MustNew(Config{N: 1, T: 0, Seed: 1, MaxSteps: 10})
	s.Run(nil)
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	s.Run(nil)
}

// TestSpawnTwicePanics and unknown id.
func TestSpawnValidation(t *testing.T) {
	s := MustNew(Config{N: 2, T: 0, Seed: 1, MaxSteps: 10})
	s.Spawn(1, func(*Env) {})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Spawn did not panic")
			}
		}()
		s.Spawn(1, func(*Env) {})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Spawn(3) did not panic")
			}
		}()
		s.Spawn(3, func(*Env) {})
	}()
	s.Run(nil)
}

func TestMetricsSnapshotTags(t *testing.T) {
	s := MustNew(Config{N: 2, T: 0, Seed: 4, MaxSteps: 5_000})
	s.Spawn(1, func(e *Env) {
		e.Send(2, Intern("b"), nil)
		e.Send(2, Intern("a"), nil)
		for {
			e.Step()
		}
	})
	s.Spawn(2, func(e *Env) {
		for {
			e.Step()
		}
	})
	rep := s.Run(func() bool { return s.Metrics().TotalSent() == 2 && s.InFlight() == 0 })
	tags := rep.Messages.Tags()
	if len(tags) != 2 || tags[0] != "a" || tags[1] != "b" {
		t.Errorf("Tags() = %v", tags)
	}
	if rep.Messages.TotalSent != 2 {
		t.Errorf("TotalSent = %d", rep.Messages.TotalSent)
	}
}

// TestEnvAccessors sanity-checks the trivial getters.
func TestEnvAccessors(t *testing.T) {
	s := MustNew(Config{N: 3, T: 1, Seed: 1, MaxSteps: 1_000, GST: 50})
	var ok atomic.Bool
	s.Spawn(2, func(e *Env) {
		if e.ID() == 2 && e.N() == 3 && e.T() == 1 && e.All().Equal(ids.FullSet(3)) {
			ok.Store(true)
		}
	})
	s.Run(func() bool { return ok.Load() })
	if !ok.Load() {
		t.Error("Env accessors returned unexpected values")
	}
	if s.GST() != 50 {
		t.Errorf("GST() = %d", s.GST())
	}
	if s.Config().N != 3 {
		t.Error("Config() wrong")
	}
}
