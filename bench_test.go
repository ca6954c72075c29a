package fdgrid

import (
	"fmt"
	"testing"

	"fdgrid/internal/adversary"
	"fdgrid/internal/ids"
	"fdgrid/internal/node"
	"fdgrid/internal/reduction"
	"fdgrid/internal/sim"
)

// The benchmarks regenerate the paper's "evaluation": each corresponds
// to an experiment of EXPERIMENTS.md (EXP-*) and reports, besides wall
// time, the virtual-time and message-count shapes the paper's results
// predict. cmd/experiments renders the same measurements as the tables
// of EXPERIMENTS.md.

// benchPing is the tag of the scheduler micro-benchmarks.
var benchPing = Intern("bench.ping")

// benchCfg is the common workload: n processes, t = ⌊(n−1)/2⌋, one late
// crash, late stabilization.
func benchCfg(n int, seed int64) Config {
	t := (n - 1) / 2
	crashes := map[ProcID]Time{ProcID(n): 400}
	return Config{
		N: n, T: t, Seed: seed, MaxSteps: 2_000_000,
		GST: 600, Crashes: crashes, Bandwidth: n,
	}
}

// BenchmarkGridLine (EXP-F1, paper Fig. 1): every class of every grid
// line solves its line's k-set agreement via the paper's constructions.
func BenchmarkGridLine(b *testing.B) {
	const (
		n = 5
		t = 2
	)
	for z := 1; z <= t+1; z++ {
		for _, c := range GridLine(z, t) {
			b.Run(fmt.Sprintf("z=%d/%s", z, c), func(b *testing.B) {
				var ticks, rounds float64
				for i := 0; i < b.N; i++ {
					cfg := benchCfg(n, int64(i))
					sys := MustNewSystem(cfg)
					out, err := SpawnKSetWith(sys, c, nil)
					if err != nil {
						b.Fatal(err)
					}
					rep := sys.Run(out.AllDecided(sys.Pattern().Correct()))
					if !rep.StoppedEarly {
						b.Fatalf("timed out: %v", out.Decisions())
					}
					if err := out.Check(sys.Pattern(), z); err != nil {
						b.Fatal(err)
					}
					ticks += float64(rep.Steps)
					rounds += float64(out.MaxRound())
				}
				b.ReportMetric(ticks/float64(b.N), "vticks/run")
				b.ReportMetric(rounds/float64(b.N), "rounds/run")
			})
		}
	}
}

// BenchmarkKSetOmega (EXP-F3, paper Fig. 3): the Ω_z-based k-set
// agreement algorithm across system sizes, up to the SCALE sizes n = 64
// and n = 256, where the protocol's round state dominates a run.
func BenchmarkKSetOmega(b *testing.B) {
	for _, n := range []int{5, 7, 9, 11, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var ticks, rounds, msgs float64
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(n, int64(i))
				sys := MustNewSystem(cfg)
				oracle := NewOmega(sys, 2)
				out := NewOutcome()
				for p := 1; p <= n; p++ {
					sys.Spawn(ProcID(p), KSetMain(oracle, Value(100+p), out))
				}
				rep := sys.Run(out.AllDecided(sys.Pattern().Correct()))
				if !rep.StoppedEarly {
					b.Fatal("timed out")
				}
				if err := out.Check(sys.Pattern(), 2); err != nil {
					b.Fatal(err)
				}
				ticks += float64(rep.Steps)
				rounds += float64(out.MaxRound())
				msgs += float64(rep.Messages.TotalSent)
			}
			b.ReportMetric(ticks/float64(b.N), "vticks/run")
			b.ReportMetric(rounds/float64(b.N), "rounds/run")
			b.ReportMetric(msgs/float64(b.N), "msgs/run")
		})
	}
}

// BenchmarkKSetOracleEfficient (EXP-F3a, §3.2): perfect oracle, no
// crashes ⇒ decision in one round (two communication steps).
func BenchmarkKSetOracleEfficient(b *testing.B) {
	const n = 7
	for i := 0; i < b.N; i++ {
		cfg := Config{N: n, T: 3, Seed: int64(i), MaxSteps: 500_000, GST: 0, Bandwidth: n}
		sys := MustNewSystem(cfg)
		oracle := NewOmega(sys, 2, WithStabilizeAt(0))
		out := NewOutcome()
		for p := 1; p <= n; p++ {
			sys.Spawn(ProcID(p), KSetMain(oracle, Value(p), out))
		}
		rep := sys.Run(out.AllDecided(sys.Pattern().Correct()))
		if !rep.StoppedEarly {
			b.Fatal("timed out")
		}
		for p, d := range out.Decisions() {
			if d.Round != 1 {
				b.Fatalf("%v decided in round %d", p, d.Round)
			}
		}
	}
	b.ReportMetric(1, "rounds/run")
}

// BenchmarkKSetZeroDegradation (EXP-F3b, §3.2): perfect oracle, crashes
// only initial ⇒ still one round.
func BenchmarkKSetZeroDegradation(b *testing.B) {
	const n = 7
	for i := 0; i < b.N; i++ {
		cfg := Config{
			N: n, T: 3, Seed: int64(i), MaxSteps: 500_000, GST: 0, Bandwidth: n,
			Crashes: map[ProcID]Time{2: 0, 5: 0},
		}
		sys := MustNewSystem(cfg)
		oracle := NewOmega(sys, 2, WithStabilizeAt(0), WithTrusted(NewSet(1, 4)))
		out := NewOutcome()
		for p := 1; p <= n; p++ {
			sys.Spawn(ProcID(p), KSetMain(oracle, Value(p), out))
		}
		rep := sys.Run(out.AllDecided(sys.Pattern().Correct()))
		if !rep.StoppedEarly {
			b.Fatal("timed out")
		}
		for p, d := range out.Decisions() {
			if d.Round != 1 {
				b.Fatalf("%v decided in round %d", p, d.Round)
			}
		}
	}
	b.ReportMetric(1, "rounds/run")
}

// BenchmarkConsensusBaselines compares the Fig. 3 algorithm at z = k = 1
// (the Ω-based consensus of ref. [20]) against the rotating-coordinator
// ◇S consensus of ref. [18].
func BenchmarkConsensusBaselines(b *testing.B) {
	const n = 7
	run := func(b *testing.B, spawn func(sys *System, out *Outcome)) {
		var ticks, rounds float64
		for i := 0; i < b.N; i++ {
			cfg := benchCfg(n, int64(i))
			sys := MustNewSystem(cfg)
			out := NewOutcome()
			spawn(sys, out)
			rep := sys.Run(out.AllDecided(sys.Pattern().Correct()))
			if !rep.StoppedEarly {
				b.Fatal("timed out")
			}
			if err := out.Check(sys.Pattern(), 1); err != nil {
				b.Fatal(err)
			}
			ticks += float64(rep.Steps)
			rounds += float64(out.MaxRound())
		}
		b.ReportMetric(ticks/float64(b.N), "vticks/run")
		b.ReportMetric(rounds/float64(b.N), "rounds/run")
	}
	b.Run("omega-fig3", func(b *testing.B) {
		run(b, func(sys *System, out *Outcome) {
			oracle := NewOmega(sys, 1)
			for p := 1; p <= n; p++ {
				sys.Spawn(ProcID(p), KSetMain(oracle, Value(p), out))
			}
		})
	})
	b.Run("evtS-rotating", func(b *testing.B) {
		run(b, func(sys *System, out *Outcome) {
			susp := NewEvtS(sys, n)
			for p := 1; p <= n; p++ {
				sys.Spawn(ProcID(p), ConsensusDSMain(susp, Value(p), out))
			}
		})
	})
}

// BenchmarkRingNext (EXP-F4, paper Fig. 4): the ring enumeration the
// wheels spin on.
func BenchmarkRingNext(b *testing.B) {
	b.Run("xring-n9x4", func(b *testing.B) {
		r := ids.NewXRing(9, 4)
		for i := 0; i < b.N; i++ {
			r.Next()
		}
	})
	b.Run("lyring-n9y4l2", func(b *testing.B) {
		r := ids.NewLYRing(9, 4, 2)
		for i := 0; i < b.N; i++ {
			r.Next()
		}
	})
}

// BenchmarkLowerWheel (EXP-F5, paper Fig. 5): convergence and
// quiescence of the lower wheel.
func BenchmarkLowerWheel(b *testing.B) {
	const (
		n = 5
		x = 2
	)
	var moves, xmoves float64
	for i := 0; i < b.N; i++ {
		cfg := Config{
			N: n, T: 2, Seed: int64(i), MaxSteps: 60_000, GST: 600,
			Crashes: map[ProcID]Time{3: 500}, Bandwidth: n,
		}
		sys := MustNewSystem(cfg)
		susp := NewEvtS(sys, x)
		reprs := SpawnLowerWheel(sys, susp, x)
		rep := sys.Run(nil)
		var consumed int
		for p := 1; p <= n; p++ {
			if pos, ok := reprs.Pos(ProcID(p)); ok {
				_ = pos
				consumed++
			}
		}
		moves += float64(consumed)
		xmoves += float64(rep.Messages.Sent["rbcast:wheel.xmove"])
	}
	b.ReportMetric(xmoves/float64(b.N), "xmove-sends/run")
}

// BenchmarkTwoWheels (EXP-F2/F6, paper Figs. 5–7): the additivity
// construction across (x, y), reporting stabilization time of the
// emulated Ω_z.
func BenchmarkTwoWheels(b *testing.B) {
	const (
		n = 5
		t = 2
	)
	for _, p := range []struct{ x, y int }{{1, 0}, {2, 0}, {3, 0}, {1, 1}, {2, 1}, {1, 2}} {
		z := t + 2 - p.x - p.y
		b.Run(fmt.Sprintf("x=%d,y=%d,z=%d", p.x, p.y, z), func(b *testing.B) {
			var stab, msgs float64
			for i := 0; i < b.N; i++ {
				cfg := Config{
					N: n, T: t, Seed: int64(i), MaxSteps: 120_000, GST: 600,
					Crashes: map[ProcID]Time{4: 800}, Bandwidth: n,
				}
				trace, sys, rep, err := AddOmega(cfg, p.x, p.y, 15_000)
				if err != nil {
					b.Fatal(err)
				}
				if err := trace.CheckOmega(sys.Pattern(), z, 10_000); err != nil {
					b.Fatalf("seed %d: %v", i, err)
				}
				var last Time
				sys.Pattern().Correct().ForEach(func(q ProcID) bool {
					if lc := trace.LastChange(q); lc > last {
						last = lc
					}
					return true
				})
				stab += float64(last)
				msgs += float64(rep.Messages.TotalSent)
			}
			b.ReportMetric(stab/float64(b.N), "stab-vticks")
			b.ReportMetric(msgs/float64(b.N), "msgs/run")
		})
	}
}

// BenchmarkPsiToOmega (EXP-F8, paper Fig. 8).
func BenchmarkPsiToOmega(b *testing.B) {
	const (
		n = 6
		t = 2
	)
	for i := 0; i < b.N; i++ {
		cfg := Config{
			N: n, T: t, Seed: int64(i), MaxSteps: 6_000, GST: 0,
			Crashes: map[ProcID]Time{1: 200, 2: 500},
		}
		sys := MustNewSystem(cfg)
		psi := WrapPsi(NewPhi(sys, 1))
		po := NewPsiOmega(n, t, 1, 2, psi)
		trace := WatchLeader(sys, po)
		sys.Run(nil)
		if err := trace.CheckOmega(sys.Pattern(), 2, 1_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddToS (EXP-F9, paper Fig. 9): the S_x + φ_y → S_n addition
// over the three register substrates.
func BenchmarkAddToS(b *testing.B) {
	for _, substrate := range []string{"memory", "heartbeat", "abd"} {
		b.Run(substrate, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := Config{
					N: 5, T: 2, Seed: int64(i), MaxSteps: 120_000, GST: 0,
					Crashes: map[ProcID]Time{3: 800}, Bandwidth: 5,
				}
				sys := MustNewSystem(cfg)
				susp := NewS(sys, 2)
				quer := NewPhi(sys, 1)
				emu := SpawnAddS(sys, susp, quer, substrate)
				trace := WatchSuspector(sys, emu)
				sys.Run(nil)
				if err := trace.CheckSuspector(sys.Pattern(), 5, true, 20_000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkT5Boundary (EXP-T5, Theorem 5): z ≤ k is tight — with a
// legal Ω_{k+1}, runs exist that decide k+1 distinct values. The bench
// reports the largest decision diversity observed (expected to exceed k
// = z−1 across seeds, never to exceed z).
func BenchmarkT5Boundary(b *testing.B) {
	const (
		n = 5
		t = 2
		z = 2
	)
	maxDistinct := 0
	for i := 0; i < b.N; i++ {
		cfg := Config{N: n, T: t, Seed: int64(i), MaxSteps: 500_000, GST: 0, Bandwidth: n}
		sys := MustNewSystem(cfg)
		// A perfect Ω_2 trusting two correct processes with distinct
		// proposals: a legal oracle for 2-set agreement and the
		// adversary's best case against 1-set (consensus).
		oracle := NewOmega(sys, z, WithStabilizeAt(0), WithTrusted(NewSet(1, 2)))
		out := NewOutcome()
		for p := 1; p <= n; p++ {
			sys.Spawn(ProcID(p), KSetMain(oracle, Value(p), out))
		}
		rep := sys.Run(out.AllDecided(sys.Pattern().Correct()))
		if !rep.StoppedEarly {
			b.Fatal("timed out")
		}
		if err := out.Check(sys.Pattern(), z); err != nil {
			b.Fatal(err) // never more than z values
		}
		if d := len(out.DistinctValues()); d > maxDistinct {
			maxDistinct = d
		}
	}
	b.ReportMetric(float64(maxDistinct), "max-distinct")
}

// BenchmarkT8Boundary (EXP-T8, Theorem 8): the two-wheels output
// achieves exactly z = t+2−x−y — it passes the Ω_z checker and fails
// the Ω_{z−1} checker whenever its resting set has full size.
func BenchmarkT8Boundary(b *testing.B) {
	const (
		n = 5
		t = 2
		x = 1
		y = 0
		z = t + 2 - x - y // 3
	)
	tighterFails := 0
	for i := 0; i < b.N; i++ {
		cfg := Config{N: n, T: t, Seed: int64(i), MaxSteps: 120_000, GST: 600, Bandwidth: n}
		trace, sys, _, err := AddOmega(cfg, x, y, 15_000)
		if err != nil {
			b.Fatal(err)
		}
		if err := trace.CheckOmega(sys.Pattern(), z, 10_000); err != nil {
			b.Fatal(err)
		}
		if err := trace.CheckOmega(sys.Pattern(), z-1, 10_000); err != nil {
			tighterFails++
		}
	}
	b.ReportMetric(float64(tighterFails)/float64(b.N), "omega(z-1)-failrate")
}

// BenchmarkIrreducibility (EXP-T9, Theorem 9): the crash-vs-delay run
// pair defeats the straw-man S_x → φ_y reducer; the bench reports the
// time at which eventual safety is violated in run R′ (always past the
// claimed stabilization time).
func BenchmarkIrreducibility(b *testing.B) {
	const (
		n   = 5
		t   = 2
		y   = 1
		tau = Time(1_000)
	)
	e := NewSet(4, 5)
	var violatedSum float64
	for i := 0; i < b.N; i++ {
		rp := adversary.RunPair{N: n, T: t, E: e, CrashAt: 100, Horizon: tau + 1_000, Seed: int64(i)}
		sys := MustNewSystem(rp.ConfigRPrime(tau + 2_000))
		reducer := adversary.NewPhiFromS(rp.SuspectorForRPrime(sys, 3, 1), t, y)
		var violatedAt Time = -1
		sys.OnTick(func(now Time) {
			if violatedAt < 0 && now > tau && reducer.Query(1, e) {
				violatedAt = now
			}
		})
		sys.Run(func() bool { return violatedAt >= 0 })
		if violatedAt < 0 {
			b.Fatal("no violation observed")
		}
		violatedSum += float64(violatedAt)
	}
	b.ReportMetric(violatedSum/float64(b.N), "violation-vtick")
}

// BenchmarkRepeatedInstances measures throughput of consecutive k-set
// instances with a perfect detector and initial crashes — the repeated
// use-case behind the paper's zero-degradation property (§3.2): every
// instance stays single-round.
func BenchmarkRepeatedInstances(b *testing.B) {
	const (
		n = 7
		r = 4
	)
	var ticks float64
	for i := 0; i < b.N; i++ {
		cfg := Config{
			N: n, T: 3, Seed: int64(i), MaxSteps: 4_000_000, GST: 0, Bandwidth: n,
			Crashes: map[ProcID]Time{2: 0, 6: 0},
		}
		sys := MustNewSystem(cfg)
		oracle := NewOmega(sys, 2, WithStabilizeAt(0), WithTrusted(NewSet(1, 4)))
		outs := make([]*Outcome, r)
		for j := range outs {
			outs[j] = NewOutcome()
		}
		for p := 1; p <= n; p++ {
			id := ProcID(p)
			vals := make([]Value, r)
			for j := range vals {
				vals[j] = Value(100*(j+1) + p)
			}
			sys.Spawn(id, SequenceMain(oracle, vals, outs))
		}
		rep := sys.Run(AllInstancesDecided(outs, sys.Pattern().Correct()))
		if !rep.StoppedEarly {
			b.Fatal("timed out")
		}
		for j, o := range outs {
			if err := o.Check(sys.Pattern(), 2); err != nil {
				b.Fatalf("instance %d: %v", j, err)
			}
		}
		ticks += float64(rep.Steps)
	}
	b.ReportMetric(ticks/float64(b.N)/r, "vticks/instance")
}

// BenchmarkAblationOmegaRoutes compares the two routes to Ω (= Ω_1)
// from a full-scope ◇S — the design-choice ablation of EXPERIMENTS.md's
// EXP-ABL:
//
//   - the quiescent single wheel of the companion report [17]
//     (internal/reduction.SingleWheelOmega), message traffic stops;
//   - the two-wheels addition with y = 0 and x = t+1, which also works
//     from the weaker ◇S_{t+1} but keeps inquiring forever.
func BenchmarkAblationOmegaRoutes(b *testing.B) {
	const (
		n = 5
		t = 2
	)
	mkCfg := func(i int) Config {
		return Config{
			N: n, T: t, Seed: int64(i), MaxSteps: 150_000, GST: 500,
			Crashes: map[ProcID]Time{4: 700}, Bandwidth: n,
		}
	}
	b.Run("single-wheel", func(b *testing.B) {
		var msgs float64
		for i := 0; i < b.N; i++ {
			sys := MustNewSystem(mkCfg(i))
			susp := NewEvtS(sys, n)
			emu := reduction.SpawnSingleWheel(sys, susp)
			trace := WatchLeader(sys, emu)
			rep := sys.Run(trace.StableFor(sys.Pattern().Correct(), 15_000))
			if err := trace.CheckOmega(sys.Pattern(), 1, 10_000); err != nil {
				b.Fatal(err)
			}
			msgs += float64(rep.Messages.TotalSent)
		}
		b.ReportMetric(msgs/float64(b.N), "msgs/run")
	})
	b.Run("two-wheels", func(b *testing.B) {
		var msgs float64
		for i := 0; i < b.N; i++ {
			trace, sys, rep, err := AddOmega(mkCfg(i), t+1, 0, 15_000)
			if err != nil {
				b.Fatal(err)
			}
			if err := trace.CheckOmega(sys.Pattern(), 1, 10_000); err != nil {
				b.Fatal(err)
			}
			msgs += float64(rep.Messages.TotalSent)
		}
		b.ReportMetric(msgs/float64(b.N), "msgs/run")
	})
}

// BenchmarkSchedulerTick measures the raw cost of one scheduled virtual
// tick driving one process step — the minimal unit of simulated work,
// and the number behind every virtual-time metric: a sweep is millions
// of these. The stepping process runs the tick phases on its own
// coroutine and dispatches itself, so this path makes no coroutine
// switch at all: switches/op tends to 0 (only launch and teardown
// switch). A pure hub, where every park yields to Run's loop, ran this
// benchmark about 4× slower (≈62 → ≈235 ns/op on a 2-vCPU VM, Go 1.24.0).
//
// (The PR-1 version of this benchmark spawned no processes, so the
// clock jumped straight to MaxSteps and it measured nothing.)
func BenchmarkSchedulerTick(b *testing.B) {
	sys := MustNewSystem(Config{N: 8, T: 3, Seed: 1, MaxSteps: sim.Time(b.N) + 1})
	sys.Spawn(1, func(env *sim.Env) {
		for {
			env.Step()
		}
	})
	for p := 2; p <= 8; p++ {
		sys.Spawn(ProcID(p), func(env *sim.Env) {
			for {
				env.StepUntil(sim.Never)
			}
		})
	}
	b.ResetTimer()
	reportSwitches(b, sys.Run(nil))
}

// reportSwitches reports a scheduler benchmark's coroutine switches per
// op (launch and teardown included, amortized over b.N).
func reportSwitches(b *testing.B, rep sim.Report) {
	b.ReportMetric(float64(rep.Switches)/float64(b.N), "switches/op")
}

// BenchmarkSchedulerWakeStorm is the worst-case tick: all 8 processes
// wake on every tick, and none of them is ever the first due process
// when it parks, so each wake is two coroutine switches — the parking
// process yields to Run's loop, which resumes the next one —
// and one op is 16 switches. Coroutine switch cost is the floor here.
func BenchmarkSchedulerWakeStorm(b *testing.B) {
	const n = 8
	sys := MustNewSystem(Config{N: n, T: 3, Seed: 1, MaxSteps: sim.Time(b.N) + 1})
	sys.SpawnAll(func(env *sim.Env) {
		for {
			env.Step()
		}
	})
	b.ResetTimer()
	reportSwitches(b, sys.Run(nil))
}

// BenchmarkSchedulerAwaitStorm is BenchmarkSchedulerWakeStorm's shape
// through node waits: all 8 processes wake on every tick, each inside
// a node.WaitUntil whose predicate never holds. Their steps run on the
// stack of whichever process holds the run token, so no wake switches
// and switches/op tends to 0 (only launch and teardown switch), against
// WakeStorm's 16.
func BenchmarkSchedulerAwaitStorm(b *testing.B) {
	const n = 8
	sys := MustNewSystem(Config{N: n, T: 3, Seed: 1, MaxSteps: sim.Time(b.N) + 1})
	sys.SpawnAll(func(env *sim.Env) {
		node.New(env).WaitUntil(func() bool { return false }, nil)
	})
	b.ResetTimer()
	reportSwitches(b, sys.Run(nil))
}

// BenchmarkSchedulerSend measures one tick carrying one message: a send
// (tag metrics, hold lookup, network enqueue), a delivery and two wakes.
func BenchmarkSchedulerSend(b *testing.B) {
	sys := MustNewSystem(Config{N: 2, T: 0, Seed: 1, MaxSteps: sim.Time(b.N) + 1, Bandwidth: 2})
	sys.Spawn(1, func(env *sim.Env) {
		for {
			env.Send(2, benchPing, nil)
			env.Step()
		}
	})
	sys.Spawn(2, func(env *sim.Env) {
		for {
			env.Step()
		}
	})
	b.ResetTimer()
	reportSwitches(b, sys.Run(nil))
}

// BenchmarkDeliverBatch measures the batched delivery hot path under the
// quadratic-protocol load shape every reduction in this repo produces:
// all n processes broadcast each tick and bandwidth admits the full n²
// messages, so one op (one virtual tick) is n² message deliveries
// grouped into n per-destination batches. It drains the whole queue
// every tick; the suite's SCALE and ORACLE cells run bandwidth n
// instead, the shape BenchmarkDeliverBacklog measures.
func BenchmarkDeliverBatch(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sys := MustNewSystem(Config{
				N: n, T: 0, Seed: 1, MaxSteps: sim.Time(b.N) + 1, Bandwidth: n * n,
			})
			sys.SpawnAll(func(env *sim.Env) {
				for {
					next := env.Now() + 1
					env.Broadcast(benchPing, nil)
					for {
						if _, ok := env.StepUntil(next); !ok {
							break
						}
					}
				}
			})
			b.ResetTimer()
			sys.Run(nil)
			b.ReportMetric(float64(n*n), "msgs/op")
		})
	}
}

// BenchmarkDeliverBacklog measures delivery in the shape the suite's
// n = 32–256 SCALE and ORACLE cells run: bandwidth n against a standing
// backlog of about n² copies. Every process broadcasts once, then
// broadcasts again each time n more messages have reached it, inside a
// node-style Env.Await, so its steps run without coroutine switches and
// the backlog stays near n². One op is one virtual tick: n random draws
// from the backlog, n deliveries, and on average one n-copy broadcast.
func BenchmarkDeliverBacklog(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sys := MustNewSystem(Config{
				N: n, T: 0, Seed: 1, MaxSteps: sim.Time(b.N) + 1, Bandwidth: n,
			})
			sys.SpawnAll(func(env *sim.Env) {
				got := 0
				env.Broadcast(benchPing, nil)
				env.Await(func(sim.Time) sim.Time { return sim.Never }, func(m *sim.Message) {
					if m == nil {
						return
					}
					if got++; got == n {
						got = 0
						env.Broadcast(benchPing, nil)
					}
				}, nil)
			})
			b.ResetTimer()
			sys.Run(nil)
			b.ReportMetric(float64(n), "msgs/op")
		})
	}
}

// BenchmarkBroadcastFanout measures the single-stamp broadcast fan-out:
// one process fires a burst of broadcasts per tick, the other n−1 only
// drain. One op is one tick: burst×n sends and deliveries plus n wakes —
// the fan-out-dominated shape of an rbcast relay wave (every process
// re-broadcasting one frame lands ~n broadcasts in a tick) or a batch
// of ABD query rounds.
func BenchmarkBroadcastFanout(b *testing.B) {
	const burst = 64
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sys := MustNewSystem(Config{
				N: n, T: 0, Seed: 1, MaxSteps: sim.Time(b.N) + 1, Bandwidth: burst * n,
			})
			sys.Spawn(1, func(env *sim.Env) {
				for {
					next := env.Now() + 1
					for i := 0; i < burst; i++ {
						env.Broadcast(benchPing, nil)
					}
					for {
						if _, ok := env.StepUntil(next); !ok {
							break
						}
					}
				}
			})
			for p := 2; p <= n; p++ {
				sys.Spawn(ProcID(p), func(env *sim.Env) {
					for {
						env.StepUntil(sim.Never)
					}
				})
			}
			b.ResetTimer()
			sys.Run(nil)
			b.ReportMetric(float64(burst*n), "msgs/op")
		})
	}
}

// BenchmarkSchedulerSendHolds is BenchmarkSchedulerSend under a scripted
// adversary with 16 hold rules (all released at tick 1, so delivery
// behaviour matches): the per-send cost of resolving holds.
func BenchmarkSchedulerSendHolds(b *testing.B) {
	holds := make([]Hold, 16)
	for i := range holds {
		holds[i] = Hold{From: NewSet(1), To: NewSet(2), Until: 1}
	}
	sys := MustNewSystem(Config{N: 2, T: 0, Seed: 1, MaxSteps: sim.Time(b.N) + 1, Bandwidth: 2, Holds: holds})
	sys.Spawn(1, func(env *sim.Env) {
		for {
			env.Send(2, benchPing, nil)
			env.Step()
		}
	})
	sys.Spawn(2, func(env *sim.Env) {
		for {
			env.Step()
		}
	})
	b.ResetTimer()
	reportSwitches(b, sys.Run(nil))
}
