package node

import (
	"sync"
	"testing"

	"fdgrid/internal/sim"
)

// countingLayer records Handle/Poll calls and optionally consumes or
// rewrites messages. It wakes on every tick.
type countingLayer struct {
	mu      sync.Mutex
	handled int
	polled  int
	consume func(m *sim.Message) bool
	rewrite func(m *sim.Message)
}

func (l *countingLayer) Handle(m *sim.Message) bool {
	l.mu.Lock()
	l.handled++
	l.mu.Unlock()
	if l.consume != nil && l.consume(m) {
		return false
	}
	if l.rewrite != nil {
		l.rewrite(m)
	}
	return true
}

func (l *countingLayer) Poll() {
	l.mu.Lock()
	l.polled++
	l.mu.Unlock()
}

func (l *countingLayer) NextWake(now sim.Time) sim.Time { return now + 1 }

func (l *countingLayer) counts() (int, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.handled, l.polled
}

func TestStackFiltersBottomUp(t *testing.T) {
	sys := sim.MustNew(sim.Config{N: 2, T: 0, Seed: 1, MaxSteps: 50_000})
	bottom := &countingLayer{consume: func(m *sim.Message) bool { return m.Tag == sim.Intern("eat") }}
	top := &countingLayer{rewrite: func(m *sim.Message) {
		m.Tag = sim.Intern("rewritten:" + m.Tag.String())
	}}
	var mu sync.Mutex
	var got []string
	sys.Spawn(1, func(env *sim.Env) {
		env.Send(2, sim.Intern("eat"), nil)
		env.Send(2, sim.Intern("pass"), nil)
		env.Send(2, sim.Intern("pass2"), nil)
		for {
			env.Step()
		}
	})
	sys.Spawn(2, func(env *sim.Env) {
		New(env, bottom, top).WaitUntil(func() bool { return false }, func(m *sim.Message) {
			mu.Lock()
			got = append(got, m.Tag.String())
			mu.Unlock()
		})
	})
	sys.Run(func() bool {
		mu.Lock()
		defer mu.Unlock()
		h, _ := bottom.counts()
		return h == 3 && len(got) >= 2
	})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("top level saw %v", got)
	}
	for _, tag := range got {
		if tag != "rewritten:pass" && tag != "rewritten:pass2" {
			t.Errorf("unexpected tag %q", tag)
		}
	}
	h, p := bottom.counts()
	if h != 3 {
		t.Errorf("bottom handled %d messages, want 3", h)
	}
	if p == 0 {
		t.Error("bottom never polled")
	}
	// The consumed message must not reach the top layer's Handle.
	hTop, _ := top.counts()
	if hTop != 2 {
		t.Errorf("top handled %d, want 2", hTop)
	}
}

func TestPollRunsOnTicksToo(t *testing.T) {
	sys := sim.MustNew(sim.Config{N: 1, T: 0, Seed: 2, MaxSteps: 500})
	layer := &countingLayer{}
	sys.Spawn(1, func(env *sim.Env) {
		nd := New(env, layer)
		nd.RunForever()
	})
	sys.Run(nil)
	if _, p := layer.counts(); p < 100 {
		t.Errorf("layer polled only %d times over 500 ticks", p)
	}
}

func TestWaitUntilImmediate(t *testing.T) {
	sys := sim.MustNew(sim.Config{N: 1, T: 0, Seed: 3, MaxSteps: 2_000})
	done := false
	var mu sync.Mutex
	sys.Spawn(1, func(env *sim.Env) {
		nd := New(env)
		nd.WaitUntil(func() bool { return true }, nil) // returns without stepping
		mu.Lock()
		done = true
		mu.Unlock()
		nd.RunForever()
	})
	sys.Run(func() bool { mu.Lock(); defer mu.Unlock(); return done })
	mu.Lock()
	defer mu.Unlock()
	if !done {
		t.Fatal("WaitUntil with true predicate did not return")
	}
}

// TestWaitTillSteps: WaitTill takes exactly one step when its deadline
// has already passed or is now, and otherwise sleeps to the deadline:
// with no messages and no layer hint, one step that returns at the
// deadline itself.
func TestWaitTillSteps(t *testing.T) {
	sys := sim.MustNew(sim.Config{N: 1, T: 0, Seed: 5, MaxSteps: 2_000})
	layer := &countingLayer{}
	type result struct {
		polls    int
		from, at sim.Time
	}
	var got []result
	sys.Spawn(1, func(env *sim.Env) {
		nd := New(env, hintless{layer})
		for _, off := range []sim.Time{-5, 0, 1, 10} {
			_, before := layer.counts()
			from := env.Now()
			nd.WaitTill(from + off)
			_, after := layer.counts()
			got = append(got, result{after - before, from, env.Now()})
		}
		nd.RunForever()
	})
	sys.Run(func() bool { return len(got) == 4 })
	if len(got) != 4 {
		t.Fatalf("only %d of 4 waits returned", len(got))
	}
	for i, off := range []sim.Time{-5, 0, 1, 10} {
		r := got[i]
		if r.polls != 1 {
			t.Errorf("WaitTill(now%+d) took %d steps, want 1", off, r.polls)
		}
		if want := r.from + max(off, 1); r.at != want {
			t.Errorf("WaitTill(now%+d) from %d returned at %d, want %d", off, r.from, r.at, want)
		}
	}
}

// hintless wraps a layer with a sim.Never wake hint, so the node sleeps
// between messages instead of waking every tick.
type hintless struct{ *countingLayer }

func (hintless) NextWake(sim.Time) sim.Time { return sim.Never }

func TestPushAddsLayer(t *testing.T) {
	sys := sim.MustNew(sim.Config{N: 2, T: 0, Seed: 4, MaxSteps: 50_000})
	late := &countingLayer{consume: func(*sim.Message) bool { return true }}
	var sawAny bool
	var mu sync.Mutex
	var started bool
	sys.Spawn(1, func(env *sim.Env) {
		mu.Lock()
		started = true
		mu.Unlock()
		env.Send(2, sim.Intern("x"), nil)
		for {
			env.Step()
		}
	})
	sys.Spawn(2, func(env *sim.Env) {
		nd := New(env)
		nd.Push(late)
		if nd.Env() != env {
			t.Error("Env() mismatch")
		}
		nd.WaitUntil(func() bool { return false }, func(m *sim.Message) {
			if m.Tag == sim.Intern("x") {
				mu.Lock()
				sawAny = true
				mu.Unlock()
			}
		})
	})
	sys.Run(func() bool {
		mu.Lock()
		defer mu.Unlock()
		h, _ := late.counts()
		return started && h > 0
	})
	mu.Lock()
	defer mu.Unlock()
	if sawAny {
		t.Error("pushed layer did not consume the message")
	}
	if h, _ := late.counts(); h == 0 {
		t.Error("pushed layer never handled")
	}
}
