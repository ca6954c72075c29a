package rbcast

import (
	"sync"
	"testing"

	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

// collector runs an event loop R-delivering everything it sees.
type record struct {
	from ids.ProcID
	tag  sim.Tag
	val  any
}

func runCollectors(t *testing.T, s *sim.System, senders map[ids.ProcID]func(*sim.Env, *Layer), want int) map[ids.ProcID][]record {
	t.Helper()
	var mu sync.Mutex
	got := make(map[ids.ProcID][]record)
	done := func() bool {
		mu.Lock()
		defer mu.Unlock()
		for p := 1; p <= s.Config().N; p++ {
			id := ids.ProcID(p)
			if !s.Pattern().Crashed(id, 0) && len(got[id]) < want {
				return false
			}
		}
		return true
	}
	for p := 1; p <= s.Config().N; p++ {
		id := ids.ProcID(p)
		send := senders[id]
		s.Spawn(id, func(e *sim.Env) {
			l := New(e)
			if send != nil {
				send(e, l)
			}
			for {
				m, ok := e.Step()
				if !ok {
					continue
				}
				if !l.Handle(&m) {
					continue
				}
				mu.Lock()
				got[e.ID()] = append(got[e.ID()], record{m.From, m.Tag, m.Payload})
				mu.Unlock()
			}
		})
	}
	s.Run(done)
	mu.Lock()
	defer mu.Unlock()
	out := make(map[ids.ProcID][]record, len(got))
	for k, v := range got {
		out[k] = append([]record(nil), v...)
	}
	return out
}

// TestAllCorrectDeliverOnce: every correct process R-delivers each
// broadcast exactly once, with From = origin.
func TestAllCorrectDeliverOnce(t *testing.T) {
	const n = 4
	s := sim.MustNew(sim.Config{N: n, T: 0, Seed: 42, MaxSteps: 200_000})
	senders := map[ids.ProcID]func(*sim.Env, *Layer){
		1: func(e *sim.Env, l *Layer) { l.Broadcast(sim.Intern("a"), "va") },
		3: func(e *sim.Env, l *Layer) { l.Broadcast(sim.Intern("b"), "vb"); l.Broadcast(sim.Intern("c"), "vc") },
	}
	got := runCollectors(t, s, senders, 3)
	for p := 1; p <= n; p++ {
		recs := got[ids.ProcID(p)]
		if len(recs) != 3 {
			t.Fatalf("process %d delivered %d messages, want 3: %v", p, len(recs), recs)
		}
		count := map[string]int{}
		for _, r := range recs {
			count[r.tag.String()]++
			switch r.tag.String() {
			case "a":
				if r.from != 1 || r.val != "va" {
					t.Errorf("process %d: bad record %v", p, r)
				}
			case "b", "c":
				if r.from != 3 {
					t.Errorf("process %d: bad origin %v", p, r)
				}
			default:
				t.Errorf("process %d: unexpected tag %q", p, r.tag)
			}
		}
		for tag, c := range count {
			if c != 1 {
				t.Errorf("process %d delivered %q %d times (integrity violation)", p, tag, c)
			}
		}
	}
}

// TestTerminationDespiteOriginCrash: the origin crashes early; if any
// correct process delivered, all correct processes must deliver.
func TestTerminationDespiteOriginCrash(t *testing.T) {
	const n = 5
	for seed := int64(0); seed < 10; seed++ {
		s := sim.MustNew(sim.Config{
			N: n, T: 1, Seed: seed, MaxSteps: 100_000,
			Crashes: map[ids.ProcID]sim.Time{1: 3},
		})
		var mu sync.Mutex
		delivered := map[ids.ProcID]bool{}
		for p := 1; p <= n; p++ {
			id := ids.ProcID(p)
			s.Spawn(id, func(e *sim.Env) {
				l := New(e)
				if e.ID() == 1 {
					l.Broadcast(sim.Intern("m"), 99)
				}
				for {
					m, ok := e.Step()
					if !ok {
						continue
					}
					if l.Handle(&m) && m.Tag == sim.Intern("m") {
						mu.Lock()
						delivered[e.ID()] = true
						mu.Unlock()
					}
				}
			})
		}
		s.Run(nil)
		mu.Lock()
		anyCorrect := false
		for p := 2; p <= n; p++ {
			if delivered[ids.ProcID(p)] {
				anyCorrect = true
			}
		}
		if anyCorrect {
			for p := 2; p <= n; p++ {
				if !delivered[ids.ProcID(p)] {
					t.Errorf("seed %d: process %d missed a message another correct process delivered", seed, p)
				}
			}
		}
		mu.Unlock()
	}
}

// TestPlainMessagesPassThrough.
func TestPlainMessagesPassThrough(t *testing.T) {
	s := sim.MustNew(sim.Config{N: 2, T: 0, Seed: 8, MaxSteps: 50_000})
	senders := map[ids.ProcID]func(*sim.Env, *Layer){
		1: func(e *sim.Env, l *Layer) { e.Send(2, sim.Intern("plain"), 7) },
	}
	var mu sync.Mutex
	var got []record
	s.Spawn(1, func(e *sim.Env) {
		l := New(e)
		senders[1](e, l)
		for {
			e.Step()
		}
	})
	s.Spawn(2, func(e *sim.Env) {
		l := New(e)
		for {
			m, ok := e.Step()
			if !ok {
				continue
			}
			if l.Handle(&m) {
				mu.Lock()
				got = append(got, record{m.From, m.Tag, m.Payload})
				mu.Unlock()
			}
		}
	})
	s.Run(func() bool { mu.Lock(); defer mu.Unlock(); return len(got) > 0 })
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].tag != sim.Intern("plain") || got[0].val != 7 || got[0].from != 1 {
		t.Fatalf("got %v", got)
	}
}
