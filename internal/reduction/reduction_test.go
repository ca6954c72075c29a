package reduction

import (
	"fmt"
	"sync"
	"testing"

	"fdgrid/internal/agreement"
	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/node"
	"fdgrid/internal/rbcast"
	"fdgrid/internal/sim"
)

// posTracker samples per-process lower-wheel positions each tick and
// remembers when they last changed.
type posTracker struct {
	mu         sync.Mutex
	last       map[ids.ProcID]ids.XPos
	lastChange sim.Time
	horizon    sim.Time
}

func trackPositions(sys *sim.System, reprs *ReprView) *posTracker {
	tr := &posTracker{last: make(map[ids.ProcID]ids.XPos)}
	sys.OnTick(func(now sim.Time) {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		tr.horizon = now
		for p := 1; p <= sys.Config().N; p++ {
			id := ids.ProcID(p)
			if sys.Pattern().Crashed(id, now) {
				continue
			}
			pos, ok := reprs.Pos(id)
			if !ok {
				continue
			}
			if old, seen := tr.last[id]; !seen || old.Leader != pos.Leader || !old.X.Equal(pos.X) {
				tr.last[id] = pos
				tr.lastChange = now
			}
		}
	})
	return tr
}

func (tr *posTracker) stableFor() sim.Time {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.horizon - tr.lastChange
}

// checkLowerStable asserts the Theorem 6 post-state.
func checkLowerStable(t *testing.T, sys *sim.System, reprs *ReprView, x int) {
	t.Helper()
	correct := sys.Pattern().Correct()
	var pos ids.XPos
	first := true
	ok := true
	correct.ForEach(func(p ids.ProcID) bool {
		pp, registered := reprs.Pos(p)
		if !registered {
			t.Errorf("correct process %v never registered", p)
			ok = false
			return false
		}
		if first {
			pos, first = pp, false
		} else if pp.Leader != pos.Leader || !pp.X.Equal(pos.X) {
			t.Errorf("positions diverge: %v at %s vs %s", p, pp, pos)
			ok = false
			return false
		}
		return true
	})
	if !ok {
		return
	}
	if pos.X.Size() != x {
		t.Fatalf("stable X %s has size %d, want %d", pos.X, pos.X.Size(), x)
	}
	if pos.X.Intersects(correct) {
		// Live X: leader must be a correct member, adopted by all live
		// members; outsiders represent themselves.
		if !correct.Contains(pos.Leader) {
			t.Errorf("stable leader %v is faulty though X=%s has correct members", pos.Leader, pos.X)
		}
		correct.ForEach(func(p ids.ProcID) bool {
			want := p
			if pos.X.Contains(p) {
				want = pos.Leader
			}
			if got := reprs.Repr(p); got != want {
				t.Errorf("repr of %v = %v, want %v", p, got, want)
			}
			return true
		})
	} else {
		// Dead X: every live process represents itself.
		correct.ForEach(func(p ids.ProcID) bool {
			if got := reprs.Repr(p); got != p {
				t.Errorf("repr of %v = %v, want itself (X fully crashed)", p, got)
			}
			return true
		})
	}
}

func TestLowerWheelStabilizes(t *testing.T) {
	cases := []struct {
		name    string
		n, tt   int
		x       int
		crashes map[ids.ProcID]sim.Time
	}{
		{"no-crash-x2", 5, 2, 2, nil},
		{"late-crash-x2", 5, 2, 2, map[ids.ProcID]sim.Time{3: 900}},
		{"x1", 5, 2, 1, map[ids.ProcID]sim.Time{1: 0}},
		{"x-equals-n", 5, 2, 5, map[ids.ProcID]sim.Time{2: 500}},
		{"crashes-ge-x", 6, 3, 2, map[ids.ProcID]sim.Time{1: 0, 2: 0, 3: 400}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				cfg := sim.Config{
					N: tc.n, T: tc.tt, Seed: seed, MaxSteps: 60_000,
					GST: 800, Crashes: tc.crashes, Bandwidth: tc.n,
				}
				sys := sim.MustNew(cfg)
				susp := fd.NewEvtS(sys, tc.x)
				reprs := SpawnLowerWheel(sys, susp, tc.x)
				tracker := trackPositions(sys, reprs)
				sys.Run(nil)
				if stable := tracker.stableFor(); stable < 10_000 {
					t.Fatalf("seed %d: wheel still moving (stable only %d ticks)", seed, stable)
				}
				checkLowerStable(t, sys, reprs, tc.x)
			}
		})
	}
}

// TestLowerWheelQuiescent: eventually no more x_move messages are sent
// (Corollary 1). We assert no x_move traffic in the final fifth of a
// long run, at x = 2 and at x = n, where the lower wheel is the
// single-wheel ◇S → Ω transformation.
func TestLowerWheelQuiescent(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  sim.Config
		x    int
		mark sim.Time
	}{
		{"x2", sim.Config{N: 5, T: 2, Seed: 7, MaxSteps: 100_000, GST: 500,
			Crashes: map[ids.ProcID]sim.Time{4: 700}, Bandwidth: 5}, 2, 80_000},
		{"x-equals-n", sim.Config{N: 5, T: 2, Seed: 4, MaxSteps: 120_000, GST: 500,
			Crashes: map[ids.ProcID]sim.Time{2: 600}, Bandwidth: 5}, 5, 100_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := sim.MustNew(tc.cfg)
			susp := fd.NewEvtS(sys, tc.x)
			_ = SpawnLowerWheel(sys, susp, tc.x)
			wire := rbcast.WireTag(tagXMove)
			var atMark int64 = -1
			sys.OnTick(func(now sim.Time) {
				if now == tc.mark {
					atMark = sys.Metrics().Sent(wire)
				}
			})
			rep := sys.Run(nil)
			if atMark < 0 {
				t.Fatal("sampling tick never hit")
			}
			if final := rep.Messages.Sent[wire.String()]; final != atMark {
				t.Errorf("x_move traffic after tick %d: %d → %d (not quiescent)", tc.mark, atMark, final)
			}
			if rep.Messages.Sent[wire.String()] == 0 {
				t.Error("no x_move was ever sent; anarchy did not exercise the wheel")
			}
		})
	}
}

// The single wheel, the paper's companion ◇S → Ω transformation [17],
// is the lower wheel at x = n: every process is in X, so each
// representative is the position's leader and ReprView, read as an
// fd.Leader, is the emulated Ω.

// TestSingleWheelBuildsOmega: ◇S (full scope) → Ω via the lower wheel
// at x = n, across seeds and crash patterns.
func TestSingleWheelBuildsOmega(t *testing.T) {
	cases := []struct {
		name    string
		crashes map[ids.ProcID]sim.Time
	}{
		{"no-crash", nil},
		{"initial-crash", map[ids.ProcID]sim.Time{1: 0}},
		{"late-crashes", map[ids.ProcID]sim.Time{1: 500, 3: 1_200}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				cfg := sim.Config{
					N: 5, T: 2, Seed: seed, MaxSteps: 200_000, GST: 800,
					Crashes: tc.crashes, Bandwidth: 5,
				}
				sys := sim.MustNew(cfg)
				susp := fd.NewEvtS(sys, 5) // ◇S = ◇S_n required
				reprs := SpawnLowerWheel(sys, susp, 5)
				trace := fd.WatchLeader(sys, reprs)
				sys.Run(trace.StableFor(sys.Pattern().Correct(), 15_000))
				if err := trace.CheckOmega(sys.Pattern(), 1, 10_000); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestSingleWheelFeedsConsensus: the emulated Ω drives the Fig. 3
// algorithm at k = 1 — the classic ◇S → Ω → consensus pipeline.
func TestSingleWheelFeedsConsensus(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		cfg := sim.Config{
			N: 5, T: 2, Seed: seed, MaxSteps: 1_000_000, GST: 600,
			Crashes: map[ids.ProcID]sim.Time{5: 400}, Bandwidth: 5,
		}
		sys := sim.MustNew(cfg)
		susp := fd.NewEvtS(sys, 5)
		reprs := NewReprView()
		out := agreement.NewOutcome()
		sys.SpawnAll(func(env *sim.Env) {
			rb := rbcast.New(env)
			w := NewLowerWheel(env, rb, susp, 5)
			reprs.Register(env.ID(), w)
			nd := node.New(env, rb, w)
			agreement.KSet(nd, rb, reprs, agreement.Value(10*int(env.ID())), out)
			nd.RunForever()
		})
		rep := sys.Run(out.AllDecided(sys.Pattern().Correct()))
		if !rep.StoppedEarly {
			t.Fatalf("seed %d: timed out", seed)
		}
		if err := out.Check(sys.Pattern(), 1); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestSingleWheelSleepsBetweenChanges: with nothing to suspect, the
// wheels at x = n never wake after their first poll. n = 4 under a
// perfect, non-hostile ◇S for 50,000 ticks: the separate single-wheel
// layer this construction replaces declared no wake and woke every
// process on every tick, 200,000 wakes here.
func TestSingleWheelSleepsBetweenChanges(t *testing.T) {
	sys := sim.MustNew(sim.Config{N: 4, T: 1, Seed: 1, MaxSteps: 50_000, Bandwidth: 4})
	susp := fd.NewEvtS(sys, 4, fd.WithStabilizeAt(0), fd.WithHostile(false))
	reprs := SpawnLowerWheel(sys, susp, 4)
	trace := fd.WatchLeader(sys, reprs)
	rep := sys.Run(nil)
	if rep.Wakes != 0 {
		t.Errorf("the wheels woke %d times, want 0", rep.Wakes)
	}
	if err := trace.CheckOmega(sys.Pattern(), 1, 10_000); err != nil {
		t.Error(err)
	}
}

func TestTwoWheelsBuildOmega(t *testing.T) {
	type xy struct{ x, y int }
	cases := []struct {
		name    string
		n, tt   int
		params  []xy
		crashes map[ids.ProcID]sim.Time
	}{
		{"n5t2-no-crash", 5, 2, []xy{{1, 0}, {2, 0}, {3, 0}, {1, 1}, {2, 1}, {1, 2}}, nil},
		{"n5t2-crashes", 5, 2, []xy{{2, 0}, {1, 1}, {2, 1}}, map[ids.ProcID]sim.Time{2: 0, 4: 600}},
		{"n6t3-mixed", 6, 3, []xy{{2, 1}, {3, 1}, {1, 3}}, map[ids.ProcID]sim.Time{1: 300, 5: 900}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range tc.params {
				z := tc.tt + 2 - p.x - p.y
				for seed := int64(0); seed < 2; seed++ {
					cfg := sim.Config{
						N: tc.n, T: tc.tt, Seed: seed, MaxSteps: 150_000,
						GST: 800, Crashes: tc.crashes, Bandwidth: tc.n,
					}
					sys := sim.MustNew(cfg)
					susp := fd.NewEvtS(sys, p.x)
					quer := fd.NewEvtPhi(sys, p.y)
					emu, _ := SpawnTwoWheels(sys, susp, quer, p.x, p.y)
					trace := fd.WatchLeader(sys, emu)
					sys.Run(trace.StableFor(sys.Pattern().Correct(), 15_000))
					if err := trace.CheckOmega(sys.Pattern(), z, 10_000); err != nil {
						t.Errorf("x=%d y=%d z=%d seed=%d: %v", p.x, p.y, z, seed, err)
					}
				}
			}
		})
	}
}

// TestTwoWheelsAllOfYCrashed drives the upper wheel into its "case A":
// the final candidate region Y can be entirely crashed, making trusted
// fall back to the query-probed smallest live process.
func TestTwoWheelsYCrashed(t *testing.T) {
	// n=5, t=2, x=1, y=1 → |Y| = 2, z = 2. Crash {1,2}: the first ring
	// position Y={1,2} is fully dead, so the wheel may rest there.
	cfg := sim.Config{
		N: 5, T: 2, Seed: 3, MaxSteps: 150_000, GST: 600,
		Crashes: map[ids.ProcID]sim.Time{1: 0, 2: 100}, Bandwidth: 5,
	}
	sys := sim.MustNew(cfg)
	susp := fd.NewEvtS(sys, 1)
	quer := fd.NewEvtPhi(sys, 1)
	emu, _ := SpawnTwoWheels(sys, susp, quer, 1, 1)
	trace := fd.WatchLeader(sys, emu)
	sys.Run(trace.StableFor(sys.Pattern().Correct(), 15_000))
	if err := trace.CheckOmega(sys.Pattern(), 2, 10_000); err != nil {
		t.Fatal(err)
	}
}

func TestUpperWheelParameterValidation(t *testing.T) {
	sys := sim.MustNew(sim.Config{N: 5, T: 2, Seed: 1, MaxSteps: 100})
	env := sys.Env(1)
	rb := rbcast.New(env)
	susp := fd.NewEvtS(sys, 2)
	lower := NewLowerWheel(env, rb, susp, 2)
	quer := fd.NewEvtPhi(sys, 0)
	bad := []struct{ x, y int }{
		{0, 0},  // x too small
		{6, 0},  // x too big
		{2, -1}, // y negative
		{2, 3},  // y > t
		{3, 1},  // z = 0
	}
	for _, c := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("x=%d y=%d: no panic", c.x, c.y)
				}
			}()
			NewUpperWheel(env, rb, quer, lower, c.x, c.y)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("lower wheel x=0: no panic")
			}
		}()
		NewLowerWheel(env, rb, susp, 0)
	}()
}

func TestPsiOmega(t *testing.T) {
	cases := []struct {
		name    string
		y, z    int
		crashes map[ids.ProcID]sim.Time
	}{
		{"z1-perfectish", 2, 1, map[ids.ProcID]sim.Time{1: 200, 2: 500}},
		{"z2", 1, 2, map[ids.ProcID]sim.Time{1: 300}},
		{"z3-no-crash", 0, 3, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sim.Config{
				N: 6, T: 2, Seed: 5, MaxSteps: 5_000, GST: 0,
				Crashes: tc.crashes,
			}
			sys := sim.MustNew(cfg)
			psi := fd.WrapPsi(fd.NewPhi(sys, tc.y))
			po := NewPsiOmega(6, 2, tc.y, tc.z, psi)
			if po.Z() != tc.z {
				t.Errorf("Z() = %d", po.Z())
			}
			trace := fd.WatchLeader(sys, po)
			sys.Run(nil)
			if err := trace.CheckOmega(sys.Pattern(), tc.z, 1_000); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPsiOmegaValidation(t *testing.T) {
	sys := sim.MustNew(sim.Config{N: 5, T: 2, Seed: 1, MaxSteps: 100})
	psi := fd.WrapPsi(fd.NewPhi(sys, 1))
	for _, c := range []struct{ y, z int }{{1, 1}, {0, 2}, {1, 0}, {1, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("y=%d z=%d: no panic", c.y, c.z)
				}
			}()
			NewPsiOmega(5, 2, c.y, c.z, psi)
		}()
	}
}

// TestPsiOmegaHonoursContainment: the construction only ever queries
// chain sets, so the Ψ contract holds by design (no panic).
func TestPsiOmegaHonoursContainment(t *testing.T) {
	cfg := sim.Config{N: 6, T: 3, Seed: 9, MaxSteps: 3_000, GST: 0,
		Crashes: map[ids.ProcID]sim.Time{1: 100, 2: 100, 3: 100}}
	sys := sim.MustNew(cfg)
	psi := fd.WrapPsi(fd.NewPhi(sys, 2))
	po := NewPsiOmega(6, 3, 2, 2, psi)
	sys.OnTick(func(now sim.Time) {
		for p := 4; p <= 6; p++ {
			po.Trusted(ids.ProcID(p))
		}
	})
	sys.Run(nil)
	if psi.ChainLen() == 0 {
		t.Error("no queries recorded")
	}
}

func TestSpawnTwoWheelsMessageMix(t *testing.T) {
	// Sanity on the protocol's traffic: inquiries and responses flow
	// forever (non-quiescent upper wheel, paper remark in §4.2.2).
	cfg := sim.Config{N: 5, T: 2, Seed: 11, MaxSteps: 40_000, GST: 300, Bandwidth: 5}
	sys := sim.MustNew(cfg)
	emu, _ := SpawnTwoWheels(sys, fd.NewEvtS(sys, 2), fd.NewEvtPhi(sys, 1), 2, 1)
	var inquiriesAt30k int64 = -1
	sys.OnTick(func(now sim.Time) {
		if now == 30_000 {
			inquiriesAt30k = sys.Metrics().Sent(tagInquiry)
		}
	})
	rep := sys.Run(nil)
	_ = emu
	if inquiriesAt30k <= 0 {
		t.Fatal("no inquiries sent")
	}
	if final := rep.Messages.Sent[tagInquiry.String()]; final <= inquiriesAt30k {
		t.Errorf("inquiry traffic stopped (%d → %d); upper wheel should not be quiescent", inquiriesAt30k, final)
	}
}

func ExampleNewPsiOmega() {
	cfg := sim.Config{N: 4, T: 1, Seed: 1, MaxSteps: 1_000, GST: 0,
		Crashes: map[ids.ProcID]sim.Time{1: 0}}
	sys := sim.MustNew(cfg)
	psi := fd.WrapPsi(fd.NewPhi(sys, 1))
	po := NewPsiOmega(4, 1, 1, 1, psi)
	var out ids.Set
	sys.OnTick(func(now sim.Time) {
		if now == 500 {
			out = po.Trusted(2)
		}
	})
	sys.Run(nil)
	fmt.Println(out)
	// Output: {2}
}
