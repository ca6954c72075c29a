package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fdgrid/internal/ids"
)

// waitFunc is one way of running a guarded wait: Await itself, or the
// literal loop Await is specified as.
type waitFunc func(e *Env, next func(Time) Time, on func(*Message), done func() bool)

// literalWait is Await's specification, verbatim: next is called only
// when no message is pending.
func literalWait(e *Env, next func(Time) Time, on func(*Message), done func() bool) {
	for done == nil || !done() {
		var wake Time
		if !e.Pending() {
			wake = next(e.Now())
		}
		if m, ok := e.StepUntil(wake); ok {
			on(&m)
		} else {
			on(nil)
		}
	}
}

func awaitWait(e *Env, next func(Time) Time, on func(*Message), done func() bool) {
	e.Await(next, on, done)
}

var (
	tagPing = Intern("await.ping")
	tagPong = Intern("await.pong")
)

// awaitProtocol runs a round protocol whose every blocking wait goes
// through wait: each round a process broadcasts a ping and waits for
// n−t pings of that round (message-driven, pongs answered along the
// way; process N sends none, so the quorum counts the others), then
// waits a few ticks (per-tick wake), then a paced wait woken
// every fourth tick; after its rounds it serves pongs forever. Process
// N instead runs a raw StepUntil loop throughout, so waiting processes
// interleave with one whose coroutine is resumed on every wake. Every
// callback invocation, send and raw step is appended to one global log
// with its process, tick and arguments: the log is the run's full
// effect sequence.
func awaitProtocol(cfg Config, wait waitFunc) (Report, []string) {
	s := MustNew(cfg)
	var log []string
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	const rounds = 6
	for i := 1; i < cfg.N; i++ {
		s.Spawn(ids.ProcID(i), func(e *Env) {
			me := e.ID()
			pings := make(map[int]int)
			on := func(in *Message) {
				var m Message
				ok := in != nil
				if ok {
					m = *in
				}
				logf("%d@%d on %v %v %v %v", me, e.Now(), ok, m.From, m.Tag, m.Payload)
				if !ok {
					return
				}
				switch m.Tag {
				case tagPing:
					pings[m.Payload.(int)]++
					e.Send(m.From, tagPong, m.Payload)
				}
			}
			never := func(now Time) Time {
				logf("%d@%d next", me, now)
				return Never
			}
			everyTick := func(now Time) Time {
				logf("%d@%d next", me, now)
				return 0
			}
			paced := func(now Time) Time {
				logf("%d@%d next", me, now)
				return now + 4
			}
			for r := 1; r <= rounds; r++ {
				e.Broadcast(tagPing, r)
				wait(e, never, on, func() bool {
					logf("%d@%d done quorum", me, e.Now())
					return pings[r] >= cfg.N-cfg.T-1
				})
				until := e.Now() + Time(int(me)%3+1)
				wait(e, everyTick, on, func() bool {
					logf("%d@%d done until", me, e.Now())
					return e.Now() >= until
				})
				until = e.Now() + 9
				wait(e, paced, on, func() bool {
					logf("%d@%d done paced", me, e.Now())
					return e.Now() >= until
				})
			}
			logf("%d@%d finished", me, e.Now())
			wait(e, never, on, nil)
		})
	}
	s.Spawn(ids.ProcID(cfg.N), func(e *Env) {
		for {
			m, ok := e.StepUntil(e.Now() + 7)
			logf("raw@%d %v %v %v %v", e.Now(), ok, m.From, m.Tag, m.Payload)
			if ok && m.Tag == tagPing {
				e.Send(m.From, tagPong, m.Payload)
			}
		}
	})
	return s.Run(nil), log
}

// TestAwaitMatchesLiteralLoop runs awaitProtocol both ways — as the
// literal StepUntil loop and through Await — under partial and full
// delivery, scripted holds and windowed holds, and crashes that land
// while processes wait. The effect logs must be identical entry
// for entry, next calls included, and so must the Reports, apart from
// Switches, which Await exists to change, and, in runs with in-run
// crashes, Wakes: a process crashing at a tick run on its own stack is
// woken once more to unwind, and which stack runs a tick is exactly
// what Await moves. In the burst case a whole round of pings lands at
// one tick, so waits drain several pending messages with no next call
// between them.
func TestAwaitMatchesLiteralLoop(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		burst bool // some wake must drain several pending messages
	}{
		{"partial", Config{N: 5, T: 2, Seed: 3, MaxSteps: 2_000}, false},
		{"full", Config{N: 4, T: 1, Seed: 4, MaxSteps: 2_000, Bandwidth: 16}, false},
		{"holds-crash", Config{N: 6, T: 2, Seed: 5, MaxSteps: 3_000, Bandwidth: 3,
			Crashes: map[ids.ProcID]Time{2: 137, 4: 1},
			Holds: []Hold{
				{From: ids.NewSet(1), To: ids.NewSet(2, 3), Until: 200},
				{From: ids.NewSet(3, 5), To: ids.NewSet(1, 6), Since: 50, Until: 120},
			}}, false},
		{"crash-mid-wait", Config{N: 5, T: 1, Seed: 6, MaxSteps: 2_000, Bandwidth: 2,
			Crashes: map[ids.ProcID]Time{3: 61}}, false},
		{"burst", Config{N: 6, T: 2, Seed: 7, MaxSteps: 2_000, Bandwidth: 36}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer goroutinesRestored(t)()
			want, wantLog := awaitProtocol(tc.cfg, literalWait)
			got, gotLog := awaitProtocol(tc.cfg, awaitWait)
			if len(wantLog) < 200 {
				t.Fatalf("only %d log entries: the protocol did not run", len(wantLog))
			}
			for i := 0; i < len(wantLog) || i < len(gotLog); i++ {
				var w, g string
				if i < len(wantLog) {
					w = wantLog[i]
				}
				if i < len(gotLog) {
					g = gotLog[i]
				}
				if w != g {
					t.Fatalf("effect %d of %d/%d: literal loop %q, Await %q", i, len(wantLog), len(gotLog), w, g)
				}
			}
			if d := drainedTogether(gotLog); tc.burst && d == 0 {
				t.Error("no wake drained several pending messages")
			}
			if got.Switches >= want.Switches {
				t.Errorf("Await made %d switches, the literal loop %d: steps are not running on the token holder's stack", got.Switches, want.Switches)
			}
			want.Switches, got.Switches = 0, 0
			if len(tc.cfg.Crashes) > 0 {
				want.Wakes, got.Wakes = 0, 0
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("reports differ:\nliteral %+v\nAwait   %+v", want, got)
			}
		})
	}
}

// drainedTogether counts the messages a waiting process handled right
// after another one at the same tick, with no next call between: the
// second and later messages drained at one wake.
func drainedTogether(log []string) int {
	last := map[string]string{} // process → its last "@tick on true" or next entry
	n := 0
	for _, entry := range log {
		who, rest, _ := strings.Cut(entry, "@")
		tick, what, _ := strings.Cut(rest, " ")
		switch {
		case strings.HasPrefix(what, "on true"):
			if last[who] == tick+" on" {
				n++
			}
			last[who] = tick + " on"
		case what == "next":
			last[who] = ""
		}
	}
	return n
}

// onParkerStack reports whether the caller runs inside a parking
// process's park — on another process's stack, not Run's loop's.
func onParkerStack() bool {
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "sim.(*System).park") {
			return true
		}
		if !more {
			return false
		}
	}
}

// foreverEveryTick waits forever with a per-tick wake (node.RunForever
// under a layer that never hints).
func foreverEveryTick(e *Env) {
	e.Await(func(Time) Time { return 0 }, func(*Message) {}, nil)
}

// holdToken makes e's process the run-token holder: its first wait
// completes at tick 10 on Run's loop, which resumes it; from then on it
// waits forever, parking on its own stack, where every later tick
// phase and every other waiting process's step runs.
func holdToken(e *Env) {
	e.Await(func(Time) Time { return 0 }, func(*Message) {}, func() bool { return e.Now() >= 10 })
	foreverEveryTick(e)
}

// TestAwaitSwitches pins Await's switch economy. Processes waiting
// forever never switch after launch, however long the run: all their
// steps run on one stack. A wait that completes on another process's
// stack costs exactly two switches — the parker yields to Run's loop,
// which resumes the waiter.
func TestAwaitSwitches(t *testing.T) {
	const n = 6
	forever := func(maxSteps Time) Report {
		s := MustNew(Config{N: n, T: 2, Seed: 1, MaxSteps: maxSteps})
		s.SpawnAll(foreverEveryTick)
		return s.Run(nil)
	}
	short, long := forever(1_001), forever(2_001)
	if d := long.Wakes - short.Wakes; d != n*1_000 {
		t.Errorf("%d extra wakes over 1000 extra ticks, want %d", d, n*1_000)
	}
	// Launch and teardown, two switches per process each.
	if short.Switches != 4*n || long.Switches != 4*n {
		t.Errorf("switches %d at 1000 ticks, %d at 2000; want %d for both (launch and teardown only)", short.Switches, long.Switches, 4*n)
	}

	completes := func(at Time) (Report, bool) {
		s := MustNew(Config{N: 3, T: 1, Seed: 1, MaxSteps: 1_000})
		s.Spawn(1, holdToken)
		s.Spawn(2, foreverEveryTick)
		var elsewhere bool
		s.Spawn(3, func(e *Env) {
			e.Await(func(Time) Time { return 0 }, func(*Message) {}, func() bool {
				if e.Now() < at {
					return false
				}
				elsewhere = onParkerStack()
				return true
			})
			foreverEveryTick(e)
		})
		return s.Run(nil), elsewhere
	}
	base, _ := completes(Never)
	rep, elsewhere := completes(500)
	if !elsewhere {
		t.Fatal("process 3's wait did not complete on process 1's stack")
	}
	if d := rep.Switches - base.Switches; d != 2 {
		t.Errorf("a wait completing on another stack cost %d switches, want 2", d)
	}
	if rep.Wakes != base.Wakes {
		t.Errorf("wakes %d with the completion, %d without; want equal", rep.Wakes, base.Wakes)
	}
}

// TestAwaitKilledParked: a process waiting in Await on messages that
// never come is killed mid-run; its parked coroutine is stopped on the
// spot, and the run leaves no coroutine behind.
func TestAwaitKilledParked(t *testing.T) {
	defer goroutinesRestored(t)()
	s := MustNew(Config{N: 3, T: 1, Seed: 1, MaxSteps: 500, Crashes: map[ids.ProcID]Time{2: 50}})
	s.Spawn(1, holdToken)
	steps, after := 0, 0
	s.Spawn(2, func(e *Env) {
		e.Await(func(Time) Time { return Never }, func(*Message) { steps++ }, func() bool { return false })
		after++
	})
	s.Spawn(3, foreverEveryTick)
	rep := s.Run(nil)
	if steps != 0 || after != 0 {
		t.Errorf("killed waiter took %d steps and returned %d times, want 0 and 0", steps, after)
	}
	// Launch, process 1's completion and teardown of 1 and 3: process
	// 2 was stopped at its crash, which counts its two switches there.
	if rep.Switches != 3*2+2+3*2 {
		t.Errorf("%d switches, want 14", rep.Switches)
	}
}

// TestAwaitKilledAtOwnTick: a waiting process crashes at a tick whose
// phases it is running itself, so it is only marked dead. It takes no
// further step: when it is itself the first process due it unwinds on
// the spot; when another process is due first it yields behind it,
// and unwinds when resumed (a later wake) or stopped (teardown).
func TestAwaitKilledAtOwnTick(t *testing.T) {
	cases := []struct {
		name string
		next func(Time) Time // process 1's wake once it holds the token
	}{
		{"due-first", func(Time) Time { return 0 }},
		{"resumed-later", func(now Time) Time { return now + 37 }},
		{"stopped-at-teardown", func(Time) Time { return Never }},
	}
	const crashAt = 50
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer goroutinesRestored(t)()
			s := MustNew(Config{N: 2, T: 1, Seed: 1, MaxSteps: 500, Crashes: map[ids.ProcID]Time{1: crashAt}})
			last := Time(-1)
			s.Spawn(1, func(e *Env) {
				e.Await(func(Time) Time { return 0 }, func(*Message) {}, func() bool { return e.Now() >= 10 })
				last = e.Now()
				e.Await(tc.next, func(*Message) { last = e.Now() }, nil)
				last = e.Now() // unreachable: the wait never completes
			})
			// Process 2 wakes at ticks 80, 160, ... in a raw loop: at
			// 80 process 1, dead, yields to Run's loop behind it.
			s.Spawn(2, func(e *Env) {
				for {
					e.StepUntil(e.Now() + 80)
				}
			})
			s.Run(nil)
			// Its step at the crash tick itself ran before that tick's
			// crash phase.
			if last > crashAt {
				t.Errorf("process 1 stepped at %d, after its crash at %d", last, crashAt)
			}
		})
	}
}

// TestAwaitStepPanic: a protocol panic inside one process's Await step,
// running on another process's stack, re-raises from Run with its
// original value, and the run leaves no coroutine behind — including
// the panicking waiter's, whose park bit its wake had already cleared.
func TestAwaitStepPanic(t *testing.T) {
	defer goroutinesRestored(t)()
	s := MustNew(Config{N: 3, T: 1, Seed: 1, MaxSteps: 1_000})
	s.Spawn(1, holdToken)
	var elsewhere bool
	s.Spawn(2, func(e *Env) {
		e.Await(func(Time) Time { return 0 }, func(*Message) {
			if e.Now() == 300 {
				elsewhere = onParkerStack()
				panic("protocol bug")
			}
		}, nil)
	})
	s.Spawn(3, foreverEveryTick)
	func() {
		defer func() {
			if r := recover(); r != "protocol bug" {
				t.Fatalf("recovered %v, want the step's own panic value", r)
			}
		}()
		s.Run(nil)
		t.Fatal("Run returned without panicking")
	}()
	if !elsewhere {
		t.Error("the panicking step did not run on process 1's stack")
	}
}

// TestAwaitNestedBlockingPanics: a step must not block, since it may be
// running on another process's stack. Step, StepUntil or Await called
// from inside any Await callback panics.
func TestAwaitNestedBlockingPanics(t *testing.T) {
	block := map[string]func(e *Env){
		"Step":      func(e *Env) { e.Step() },
		"StepUntil": func(e *Env) { e.StepUntil(Never) },
		"Await": func(e *Env) {
			e.Await(func(Time) Time { return 0 }, func(*Message) {}, func() bool { return true })
		},
	}
	for name, call := range block {
		for _, where := range []string{"next", "on", "done"} {
			t.Run(name+"-in-"+where, func(t *testing.T) {
				defer goroutinesRestored(t)()
				s := MustNew(Config{N: 2, T: 0, Seed: 1, MaxSteps: 100})
				s.Spawn(1, holdToken)
				s.Spawn(2, func(e *Env) {
					hook := func(at string) {
						if at == where && e.Now() == 20 {
							call(e)
						}
					}
					e.Await(func(Time) Time { hook("next"); return 0 },
						func(*Message) { hook("on") },
						func() bool { hook("done"); return false })
				})
				defer func() {
					if r := recover(); r != errBlockInStep {
						t.Fatalf("recovered %v, want %q", r, errBlockInStep)
					}
				}()
				s.Run(nil)
				t.Fatal("Run returned without panicking")
			})
		}
	}
}
