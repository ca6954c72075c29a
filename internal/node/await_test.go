package node

import (
	"fmt"
	"reflect"
	"testing"

	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

var (
	tagPing = sim.Intern("node.ping")
	tagBeat = sim.Intern("node.beat")
)

// logLayer appends every Handle and Poll call to a shared log and
// broadcasts a heartbeat from Poll every period ticks, consuming
// heartbeats on the way up. It declares no wake hint, so it pins its
// node to every tick; hintedLogLayer adds a logged NextWake hinting the
// next heartbeat.
type logLayer struct {
	env    *sim.Env
	log    *[]string
	period sim.Time
	last   sim.Time
}

func (l *logLayer) logf(format string, args ...any) {
	*l.log = append(*l.log, fmt.Sprintf("%d@%d ", l.env.ID(), l.env.Now())+fmt.Sprintf(format, args...))
}

func (l *logLayer) Handle(m *sim.Message) bool {
	l.logf("handle %v %v %v", m.From, m.Tag, m.Payload)
	return m.Tag != tagBeat
}

func (l *logLayer) Poll() {
	l.logf("poll")
	if now := l.env.Now(); now >= l.last+l.period {
		l.last = now
		l.env.Broadcast(tagBeat, int(now))
	}
}

type hintedLogLayer struct{ logLayer }

func (l *hintedLogLayer) NextWake(now sim.Time) sim.Time {
	l.logf("nextwake")
	return l.last + l.period
}

// quietLayer passes everything up, does nothing and hints no wake.
type quietLayer struct{}

func (quietLayer) Handle(*sim.Message) bool   { return true }
func (quietLayer) Poll()                      {}
func (quietLayer) NextWake(sim.Time) sim.Time { return sim.Never }

// waits is one implementation of the three node waits.
type waits struct {
	on, until  func(nd *Node, pred func() bool, onMsg func(*sim.Message))
	runForever func(nd *Node)
}

// literal are the node waits as the loops they stand for: WaitOn over
// StepUntil(sim.Never), WaitUntil over Step, RunForever over an initial
// poll round and StepUntil(sim.Never) forever.
var literal = waits{
	on: func(nd *Node, pred func() bool, onMsg func(*sim.Message)) {
		for !pred() {
			if m, ok := nd.StepUntil(sim.Never); ok && onMsg != nil {
				onMsg(&m)
			}
		}
	},
	until: func(nd *Node, pred func() bool, onMsg func(*sim.Message)) {
		for !pred() {
			if m, ok := nd.Step(); ok && onMsg != nil {
				onMsg(&m)
			}
		}
	},
	runForever: func(nd *Node) {
		for _, l := range nd.layers {
			l.Poll()
		}
		for {
			nd.StepUntil(sim.Never)
		}
	},
}

var awaited = waits{on: (*Node).WaitOn, until: (*Node).WaitUntil, runForever: (*Node).RunForever}

// nodeProtocol runs rounds of "broadcast a ping, WaitOn n−t pings, then
// WaitUntil a few ticks pass" over a logging layer stack, then
// RunForever. Process 3's stack has a dense (unhinted) layer, so both
// the hinted and the every-tick wake paths run. The log records every
// layer call and every message the top level sees.
func nodeProtocol(cfg sim.Config, w waits) (sim.Report, []string) {
	sys := sim.MustNew(cfg)
	var log []string
	sys.SpawnAll(func(env *sim.Env) {
		base := logLayer{env: env, log: &log, period: sim.Time(5 + env.ID())}
		var nd *Node
		if env.ID() == 3 {
			nd = New(env, &base)
		} else {
			nd = New(env, &hintedLogLayer{base})
		}
		pings := make(map[int]int)
		onMsg := func(m *sim.Message) {
			base.logf("top %v %v %v", m.From, m.Tag, m.Payload)
			if m.Tag == tagPing {
				pings[m.Payload.(int)]++
			}
		}
		for r := 1; r <= 5; r++ {
			env.Broadcast(tagPing, r)
			w.on(nd, func() bool { return pings[r] >= cfg.N-cfg.T }, onMsg)
			until := env.Now() + 3
			w.until(nd, func() bool { return env.Now() >= until }, onMsg)
		}
		w.runForever(nd)
	})
	return sys.Run(nil), log
}

// TestNodeWaitsMatchStepLoops: WaitOn, WaitUntil and RunForever, now
// sim.Env.Await underneath, make the same layer calls, sends and
// top-level deliveries in the same order as the step loops they
// replaced, with and without crashes and under partial delivery. Only
// Switches (and, with in-run crashes, Wakes; see the internal/sim
// equivalence test) may differ.
func TestNodeWaitsMatchStepLoops(t *testing.T) {
	for _, cfg := range []sim.Config{
		{N: 4, T: 1, Seed: 1, MaxSteps: 1_500},
		{N: 5, T: 2, Seed: 2, MaxSteps: 1_500, Bandwidth: 3, Crashes: map[ids.ProcID]sim.Time{2: 90, 5: 400}},
	} {
		want, wantLog := nodeProtocol(cfg, literal)
		got, gotLog := nodeProtocol(cfg, awaited)
		if len(wantLog) < 500 {
			t.Fatalf("only %d log entries: the protocol did not run", len(wantLog))
		}
		if !reflect.DeepEqual(wantLog, gotLog) {
			for i := range wantLog {
				if i >= len(gotLog) || wantLog[i] != gotLog[i] {
					t.Fatalf("seed %d: call %d differs: step loop %q, wait %q", cfg.Seed, i, wantLog[i], gotLog[min(i, len(gotLog)-1)])
				}
			}
			t.Fatalf("seed %d: waits made %d calls, step loops %d", cfg.Seed, len(gotLog), len(wantLog))
		}
		want.Switches, got.Switches = 0, 0
		if len(cfg.Crashes) > 0 {
			want.Wakes, got.Wakes = 0, 0
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("seed %d: reports differ:\nstep loops %+v\nwaits      %+v", cfg.Seed, want, got)
		}
	}
}

// TestRunForeverSwitchesFlat: n processes in RunForever never switch
// after launch, however long the run, although every one of them wakes
// at each heartbeat: all their steps run on one stack.
func TestRunForeverSwitchesFlat(t *testing.T) {
	const n = 5
	run := func(maxSteps sim.Time) sim.Report {
		sys := sim.MustNew(sim.Config{N: n, T: 2, Seed: 1, MaxSteps: maxSteps, Bandwidth: n})
		var log []string
		sys.SpawnAll(func(env *sim.Env) {
			New(env, &hintedLogLayer{logLayer{env: env, log: &log, period: 10}}).RunForever()
		})
		return sys.Run(nil)
	}
	short, long := run(1_000), run(2_000)
	if long.Wakes < short.Wakes+n*100 {
		t.Errorf("wakes %d over 1000 ticks, %d over 2000: the heartbeats did not run", short.Wakes, long.Wakes)
	}
	if short.Switches != 4*n || long.Switches != 4*n {
		t.Errorf("switches %d over 1000 ticks, %d over 2000; want %d for both (launch and teardown only)", short.Switches, long.Switches, 4*n)
	}
}

// TestWaitOnAllocatesNothing: a node wait keeps its state in the Node
// and the Proc, so a WaitOn that parks and completes allocates nothing
// beyond the caller's own predicate and handler closures, built once
// here outside the measured calls.
func TestWaitOnAllocatesNothing(t *testing.T) {
	sys := sim.MustNew(sim.Config{N: 2, T: 0, Seed: 1, MaxSteps: 100_000, Bandwidth: 2})
	sys.Spawn(1, func(env *sim.Env) {
		for {
			env.Send(2, tagPing, nil)
			env.Step()
		}
	})
	allocs := -1.0
	sys.Spawn(2, func(env *sim.Env) {
		nd := New(env, quietLayer{})
		got, target := 0, 0
		pred := func() bool { return got >= target }
		onMsg := func(*sim.Message) { got++ }
		allocs = testing.AllocsPerRun(100, func() {
			target = got + 3
			nd.WaitOn(pred, onMsg)
		})
		if got < 300 {
			allocs = -2
		}
		nd.RunForever()
	})
	sys.Run(func() bool { return allocs != -1 })
	switch {
	case allocs == -1:
		t.Fatal("the measurement never finished")
	case allocs == -2:
		t.Fatal("the waits completed without receiving their messages")
	case allocs != 0:
		t.Errorf("a completed WaitOn allocated %.1f times, want 0", allocs)
	}
}
