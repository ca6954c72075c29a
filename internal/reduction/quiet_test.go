package reduction

import (
	"fmt"
	"reflect"
	"testing"

	"fdgrid/internal/adversary"
	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/node"
	"fdgrid/internal/rbcast"
	"fdgrid/internal/sim"
)

// The full* layers force a wheel down its full path: before every Poll
// and NextWake they zero the quiet tick and the caches behind it, so
// each call recomputes everything as if the wheel had never been quiet.

type fullLower struct{ *LowerWheel }

func (f fullLower) Poll() {
	f.quiet, f.wake = 0, 0
	f.LowerWheel.Poll()
}

func (f fullLower) NextWake(now sim.Time) sim.Time {
	f.quiet, f.wake = 0, 0
	return f.LowerWheel.NextWake(now)
}

type fullUpper struct{ *UpperWheel }

func (f fullUpper) Poll() {
	f.quiet = 0
	f.UpperWheel.Poll()
}

func (f fullUpper) NextWake(now sim.Time) sim.Time {
	f.quiet = 0
	return f.UpperWheel.NextWake(now)
}

// quietUpper leaves the wheel as it is and counts the waits that end
// through query(Y_i) at a Poll that found a cached "keep waiting": the
// querier's answer turned true while the cache held.
type quietUpper struct {
	*UpperWheel
	queryExits *int
}

func (q quietUpper) Poll() {
	cached := q.waiting && q.quiet > 0
	responded := q.yResponded()
	q.UpperWheel.Poll()
	if cached && !responded && !q.waiting {
		*q.queryExits++
	}
}

// yResponded reports whether a member of Y_i has answered this round.
func (w *UpperWheel) yResponded() bool {
	for from := 1; from < len(w.responses); from++ {
		if w.responses[from] != ids.None && w.pos.Y.Contains(ids.ProcID(from)) {
			return true
		}
	}
	return false
}

// wheelRun is what a wheel run exposes: the emulated output's sampled
// changes, the representatives, the moves each wheel consumed and the
// run's report.
type wheelRun struct {
	trace      map[ids.ProcID][]fd.SetSample
	reprs      map[ids.ProcID]ids.ProcID
	moves      map[ids.ProcID][2]int
	rep        sim.Report
	queryExits int
}

func (r *wheelRun) record(sys *sim.System, tr *fd.SetTrace, rep sim.Report) {
	r.rep = rep
	r.trace = map[ids.ProcID][]fd.SetSample{}
	for p := 1; p <= sys.Config().N; p++ {
		r.trace[ids.ProcID(p)] = tr.Samples(ids.ProcID(p))
	}
}

// runQuietWheels runs the two-wheels stack over fresh oracles from mk,
// its wheels forced down their full path when full is set. When mk
// gives no querier, it runs the lower wheel alone instead, whose
// representatives are the output: at x = n, the single-wheel ◇S → Ω
// transformation, watched exactly as its runner watches it.
func runQuietWheels(cfg sim.Config, mk func(*sim.System) (fd.Suspector, fd.Querier), x, y int, full bool) wheelRun {
	sys := sim.MustNew(cfg)
	susp, quer := mk(sys)
	lowers := make([]*LowerWheel, cfg.N+1)
	uppers := make([]*UpperWheel, cfg.N+1)
	var run wheelRun
	var tr *fd.SetTrace
	if quer == nil {
		reprs := NewReprView()
		sys.SpawnAll(func(env *sim.Env) {
			rb := rbcast.New(env)
			lower := NewLowerWheel(env, rb, susp, x)
			reprs.Register(env.ID(), lower)
			lowers[env.ID()] = lower
			var l node.Layer = lower
			if full {
				l = fullLower{lower}
			}
			node.New(env, rb, l).RunForever()
		})
		tr = fd.WatchLeader(sys, reprs)
	} else {
		emu := NewOmegaEmulation(quer)
		sys.SpawnAll(func(env *sim.Env) {
			rb := rbcast.New(env)
			lower, upper := InstallTwoWheels(env, rb, susp, quer, x, y, emu, nil)
			lowers[env.ID()], uppers[env.ID()] = lower, upper
			if full {
				node.New(env, rb, fullLower{lower}, fullUpper{upper}).RunForever()
			} else {
				node.New(env, rb, lower, quietUpper{upper, &run.queryExits}).RunForever()
			}
		})
		tr = fd.WatchLeaderSparse(sys, emu)
	}
	rep := sys.Run(tr.StableFor(sys.Pattern().Correct(), 12_000))
	run.record(sys, tr, rep)
	run.reprs = map[ids.ProcID]ids.ProcID{}
	run.moves = map[ids.ProcID][2]int{}
	for p := 1; p <= cfg.N; p++ {
		if lowers[p] == nil {
			continue
		}
		moves := [2]int{lowers[p].Moves()}
		if uppers[p] != nil {
			moves[1] = uppers[p].LMoves()
		}
		run.reprs[ids.ProcID(p)] = lowers[p].Repr()
		run.moves[ids.ProcID(p)] = moves
	}
	return run
}

// pairOracles builds the two-wheels oracles of one generated pair
// script, as the sweep's resolver does for an eventual pair.
func pairOracles(s adversary.OracleScript, x, y int) func(*sim.System) (fd.Suspector, fd.Querier) {
	return func(sys *sim.System) (fd.Suspector, fd.Querier) {
		var susp fd.Suspector
		if ps := s.Pair.S; ps.IsTimeline() {
			susp = fd.NewScriptedSuspector(sys, ps.Suspect)
		} else {
			susp = fd.NewEvtS(sys, x, ps.Options()...)
		}
		return susp, fd.NewEvtPhi(sys, y, s.Pair.Phi.Options()...)
	}
}

// f2Pairs expands the F2-additivity-pairs oracle pair families at
// n = 5, t = 2: scope churn against a late ◇φ, scope churn against a
// 950‰ anarchy burst, and two late stabilizations.
func f2Pairs(t *testing.T) []adversary.OracleScript {
	t.Helper()
	gen := adversary.NewOracleGen(5, 2)
	fams := []adversary.OraclePairFamily{
		{S: adversary.OracleFamily{Kind: "scope-churn", X: 2, Seed: 61, Settle: []int{1, 2}},
			Phi: adversary.OracleFamily{Kind: "late-stab", Y: 1, Seed: 62, Start: 20_000, Ramp: 1}},
		{S: adversary.OracleFamily{Kind: "scope-churn", X: 2, Seed: 63, Period: 120, Flaps: 10, Settle: []int{1, 2}},
			Phi: adversary.OracleFamily{Kind: "anarchy-burst", Y: 1, Seed: 64, RatePermille: 950}},
		{S: adversary.OracleFamily{Kind: "late-stab", X: 2, Seed: 65, Start: 8_000, Ramp: 1},
			Phi: adversary.OracleFamily{Kind: "late-stab", Y: 1, Seed: 66, Start: 12_000, Ramp: 1}},
	}
	var out []adversary.OracleScript
	for _, f := range fams {
		ss, err := gen.ExpandPair(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ss...)
	}
	return out
}

// sameRun fails unless two runs agree on everything a wheel's caller can
// observe.
func sameRun(t *testing.T, name string, quiet, full wheelRun) {
	t.Helper()
	if !reflect.DeepEqual(quiet.trace, full.trace) {
		t.Errorf("%s: emulated output differs from the full-poll run", name)
	}
	if !reflect.DeepEqual(quiet.reprs, full.reprs) {
		t.Errorf("%s: representatives %v, full-poll run %v", name, quiet.reprs, full.reprs)
	}
	if !reflect.DeepEqual(quiet.moves, full.moves) {
		t.Errorf("%s: moves %v, full-poll run %v", name, quiet.moves, full.moves)
	}
	if !reflect.DeepEqual(quiet.rep.Messages.Sent, full.rep.Messages.Sent) || quiet.rep.Steps != full.rep.Steps {
		t.Errorf("%s: sent_by_tag %v at tick %d, full-poll run %v at tick %d", name,
			quiet.rep.Messages.Sent, quiet.rep.Steps, full.rep.Messages.Sent, full.rep.Steps)
	}
}

// TestQuietPollsExact: a wheel's quiet tick and its cached "keep
// waiting" only skip Polls that would do nothing. Every wheel run with
// them must equal the run whose wheels recompute everything before every
// Poll and NextWake: the same emulated output, representatives, moves,
// messages by tag and final tick. The cases cover ground-truth oracles
// over several seeds, the F2 oracle pairs, and a querier whose answer to
// query(Y_i) turns true in the middle of waits, ending them with no
// response (the quiet run must show such exits).
func TestQuietPollsExact(t *testing.T) {
	var cases []quietCase
	for seed := int64(0); seed < 4; seed++ {
		cases = append(cases, quietCase{
			name: fmt.Sprintf("ground-truth/seed=%d", seed),
			cfg: sim.Config{N: 5, T: 2, Seed: seed, MaxSteps: 80_000, GST: 600, Bandwidth: 5,
				Crashes: map[ids.ProcID]sim.Time{4: 800}},
			mk: func(sys *sim.System) (fd.Suspector, fd.Querier) {
				return fd.NewEvtS(sys, 2), fd.NewEvtPhi(sys, 1)
			},
			x: 2, y: 1,
		})
	}
	for i, s := range f2Pairs(t) {
		for seed := int64(0); seed < 2; seed++ {
			cases = append(cases, quietCase{
				name: fmt.Sprintf("f2-pair-%d/%s/seed=%d", i, s.Name, seed),
				cfg: sim.Config{N: 5, T: 2, Seed: seed, MaxSteps: 160_000, GST: 600, Bandwidth: 10,
					Crashes: map[ids.ProcID]sim.Time{4: 800}},
				mk: pairOracles(s, 2, 1),
				x:  2, y: 1,
			})
		}
	}
	// y = 1, so Y_i has t−y+1 = 2 members and the first is {1, 2}. A
	// suspector that never suspects keeps the lower wheel still. Both
	// members of Y_i crash at 1000, and the perpetual φ_1 vouches for
	// it 300 ticks later: the waits begun in between hear from nobody in
	// Y_i and end when query(Y_i) turns true.
	cases = append(cases, quietCase{
		name: "query-turns-true",
		cfg: sim.Config{N: 5, T: 2, Seed: 3, MaxSteps: 40_000, GST: 0, Bandwidth: 5,
			Crashes: map[ids.ProcID]sim.Time{1: 1_000, 2: 1_000}},
		mk: func(sys *sim.System) (fd.Suspector, fd.Querier) {
			return fd.NewScriptedSuspector(sys, []fd.SuspectStep{{At: 0}}), fd.NewPhi(sys, 1, fd.WithLag(300))
		},
		x: 1, y: 1, wantQuery: true,
	})
	checkQuietRuns(t, cases)
}

// TestQuietSingleWheelExact is TestQuietPollsExact for the lower wheel
// alone at x = n, the single-wheel ◇S → Ω transformation, over several
// seeds.
func TestQuietSingleWheelExact(t *testing.T) {
	var cases []quietCase
	for seed := int64(0); seed < 4; seed++ {
		cases = append(cases, quietCase{
			name: fmt.Sprintf("seed=%d", seed),
			cfg: sim.Config{N: 5, T: 2, Seed: seed, MaxSteps: 60_000, GST: 600, Bandwidth: 5,
				Crashes: map[ids.ProcID]sim.Time{1: 700}},
			mk: func(sys *sim.System) (fd.Suspector, fd.Querier) {
				return fd.NewEvtS(sys, 5), nil
			},
			x: 5,
		})
	}
	checkQuietRuns(t, cases)
}

// quietCase is one run compared with and without the wheels' quiet
// ticks.
type quietCase struct {
	name      string
	cfg       sim.Config
	mk        func(*sim.System) (fd.Suspector, fd.Querier)
	x, y      int
	wantQuery bool
}

// checkQuietRuns runs each case once with quiet ticks and once with full
// polls and fails unless the two runs agree.
func checkQuietRuns(t *testing.T, cases []quietCase) {
	t.Helper()
	for _, c := range cases {
		quiet := runQuietWheels(c.cfg, c.mk, c.x, c.y, false)
		full := runQuietWheels(c.cfg, c.mk, c.x, c.y, true)
		sameRun(t, c.name, quiet, full)
		if c.wantQuery && quiet.queryExits == 0 {
			t.Errorf("%s: no wait ended through query(Y_i) after a cached keep-waiting", c.name)
		}
	}
}

// sleepLower counts the NextWake calls a lower wheel answers after a
// Poll that left its quiet tick at sim.Never, and fails the test if any
// of them asks for a timed wake.
type sleepLower struct {
	*LowerWheel
	t      *testing.T
	asleep *int
}

func (s sleepLower) NextWake(now sim.Time) sim.Time {
	wake := s.LowerWheel.NextWake(now)
	if s.quiet == sim.Never {
		*s.asleep++
		if wake != sim.Never {
			s.t.Errorf("p%d at %d: quiet is sim.Never, but NextWake asks for a wake at %d", s.env.ID(), now, wake)
		}
	}
	return wake
}

// awakeLower keeps waking its node at every end of the suspector's
// change window, whatever its quiet tick.
type awakeLower struct{ *LowerWheel }

func (a awakeLower) NextWake(now sim.Time) sim.Time { return a.windowEnd(now) }

// runLowerLayers runs the lower wheel alone over a fresh ◇S_x, each
// wheel wrapped by wrap, to cfg.MaxSteps, returning the report and each
// process's final representative and consumed moves.
func runLowerLayers(cfg sim.Config, x int, wrap func(*LowerWheel) node.Layer) (sim.Report, map[ids.ProcID][2]int) {
	sys := sim.MustNew(cfg)
	susp := fd.NewEvtS(sys, x)
	lowers := make([]*LowerWheel, cfg.N+1)
	sys.SpawnAll(func(env *sim.Env) {
		rb := rbcast.New(env)
		lowers[env.ID()] = NewLowerWheel(env, rb, susp, x)
		node.New(env, rb, wrap(lowers[env.ID()])).RunForever()
	})
	rep := sys.Run(nil)
	out := map[ids.ProcID][2]int{}
	for p := 1; p <= cfg.N; p++ {
		if w := lowers[p]; w != nil {
			out[ids.ProcID(p)] = [2]int{int(w.Repr()), w.Moves()}
		}
	}
	return rep, out
}

// TestLowerWheelSleepsWhenQuiet: once a Poll leaves a lower wheel's
// quiet tick at sim.Never (it has sent at its position, or is outside
// the position's X), the wheel makes no timed wake, since only a move,
// which arrives as a message, can give it work. At x = 2 and at x = n,
// over several seeds, every NextWake answered in that state is
// sim.Never, and the run equals, in messages by tag, final tick,
// representatives and moves, the run whose wheels wake at every end of
// the suspector's window regardless, with strictly fewer wakes.
func TestLowerWheelSleepsWhenQuiet(t *testing.T) {
	for _, c := range []struct {
		x       int
		crashes map[ids.ProcID]sim.Time
	}{{2, map[ids.ProcID]sim.Time{3: 500}}, {5, map[ids.ProcID]sim.Time{1: 700}}} {
		for seed := int64(0); seed < 3; seed++ {
			name := fmt.Sprintf("x=%d/seed=%d", c.x, seed)
			cfg := sim.Config{N: 5, T: 2, Seed: seed, MaxSteps: 60_000, GST: 600, Bandwidth: 5, Crashes: c.crashes}
			asleep := 0
			rep, wheels := runLowerLayers(cfg, c.x, func(w *LowerWheel) node.Layer { return sleepLower{w, t, &asleep} })
			awake, awakeWheels := runLowerLayers(cfg, c.x, func(w *LowerWheel) node.Layer { return awakeLower{w} })
			if asleep == 0 {
				t.Errorf("%s: no wheel was ever asked for its wake with nothing to send", name)
			}
			if !reflect.DeepEqual(wheels, awakeWheels) {
				t.Errorf("%s: representatives and moves %v, waking run %v", name, wheels, awakeWheels)
			}
			if !reflect.DeepEqual(rep.Messages, awake.Messages) || rep.Steps != awake.Steps {
				t.Errorf("%s: messages %v at tick %d, waking run %v at tick %d", name,
					rep.Messages.Sent, rep.Steps, awake.Messages.Sent, awake.Steps)
			}
			if rep.Wakes >= awake.Wakes {
				t.Errorf("%s: %d wakes, the waking run %d: the quiet wheels still wake", name, rep.Wakes, awake.Wakes)
			}
		}
	}
}
