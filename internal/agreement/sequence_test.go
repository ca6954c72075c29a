package agreement

import (
	"testing"

	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

func TestSeqInstanceOf(t *testing.T) {
	tags := seqTags(7)
	for _, tag := range []sim.Tag{tags.phase1, tags.phase2, tags.decision} {
		inst, ok := seqInstanceOf(tag)
		if !ok || inst != 7 {
			t.Errorf("seqInstanceOf(%q) = %d, %v", tag, inst, ok)
		}
	}
	for _, tag := range []string{"kset.phase1", "kseq.x.phase1", "kseq.3", "other"} {
		tag := sim.Intern(tag)
		if _, ok := seqInstanceOf(tag); ok {
			t.Errorf("seqInstanceOf(%q) accepted", tag)
		}
	}
}

// TestSequenceRunsManyInstances: R consecutive instances, every instance
// independently satisfies the agreement properties.
func TestSequenceRunsManyInstances(t *testing.T) {
	const (
		n = 5
		r = 5 // instances
	)
	for seed := int64(0); seed < 3; seed++ {
		cfg := sim.Config{
			N: n, T: 2, Seed: seed, MaxSteps: 4_000_000, GST: 500, Bandwidth: n,
			Crashes: map[ids.ProcID]sim.Time{4: 900},
		}
		sys := sim.MustNew(cfg)
		oracle := fd.NewOmega(sys, 2)
		outs := make([]*Outcome, r)
		for i := range outs {
			outs[i] = NewOutcome()
		}
		for p := 1; p <= n; p++ {
			id := ids.ProcID(p)
			vals := make([]Value, r)
			for i := range vals {
				vals[i] = Value(100*(i+1) + p)
			}
			sys.Spawn(id, SequenceMain(oracle, vals, outs))
		}
		rep := sys.Run(AllInstancesDecided(outs, sys.Pattern().Correct()))
		if !rep.StoppedEarly {
			for i, o := range outs {
				t.Logf("instance %d decisions: %v", i, o.Decisions())
			}
			t.Fatalf("seed %d: timed out", seed)
		}
		for i, o := range outs {
			if err := o.Check(sys.Pattern(), 2); err != nil {
				t.Errorf("seed %d instance %d: %v", seed, i, err)
			}
		}
	}
}

// TestSequenceZeroDegradation is the paper's §3.2 point made executable:
// with a perfect detector and only initial crashes, *every* instance of
// a repeated sequence decides in one round — past failures cost nothing.
func TestSequenceZeroDegradation(t *testing.T) {
	const (
		n = 7
		r = 4
	)
	for seed := int64(0); seed < 3; seed++ {
		cfg := sim.Config{
			N: n, T: 3, Seed: seed, MaxSteps: 4_000_000, GST: 0, Bandwidth: n,
			Crashes: map[ids.ProcID]sim.Time{2: 0, 6: 0},
		}
		sys := sim.MustNew(cfg)
		oracle := fd.NewOmega(sys, 2, fd.WithStabilizeAt(0), fd.WithTrusted(ids.NewSet(1, 4)))
		outs := make([]*Outcome, r)
		for i := range outs {
			outs[i] = NewOutcome()
		}
		for p := 1; p <= n; p++ {
			id := ids.ProcID(p)
			vals := make([]Value, r)
			for i := range vals {
				vals[i] = Value(100*(i+1) + p)
			}
			sys.Spawn(id, SequenceMain(oracle, vals, outs))
		}
		rep := sys.Run(AllInstancesDecided(outs, sys.Pattern().Correct()))
		if !rep.StoppedEarly {
			t.Fatalf("seed %d: timed out", seed)
		}
		for i, o := range outs {
			if err := o.Check(sys.Pattern(), 2); err != nil {
				t.Fatalf("seed %d instance %d: %v", seed, i, err)
			}
			for p, d := range o.Decisions() {
				if d.Round != 1 {
					t.Errorf("seed %d instance %d: %v decided in round %d (degradation!)",
						seed, i, p, d.Round)
				}
			}
		}
	}
}

func TestRunSequenceValidatesLengths(t *testing.T) {
	cfg := sim.Config{N: 3, T: 1, Seed: 1, MaxSteps: 10_000}
	sys := sim.MustNew(cfg)
	oracle := fd.NewOmega(sys, 1)
	caught := make(chan bool, 1)
	sys.Spawn(1, func(env *sim.Env) {
		defer func() { caught <- recover() != nil }()
		SequenceMain(oracle, make([]Value, 2), make([]*Outcome, 3))(env)
	})
	func() {
		defer func() { recover() }() // sim re-raises the main's panic
		sys.Run(func() bool { return len(caught) > 0 })
	}()
	if !<-caught {
		t.Error("mismatched lengths did not panic")
	}
}

// TestSeqBufferStash: a later instance's message is buffered for that
// instance's replay in arrival order, a finished instance's message is
// consumed and dropped, and the current instance's (or a foreign)
// message passes through.
func TestSeqBufferStash(t *testing.T) {
	msg := func(inst int, from ids.ProcID) sim.Message {
		return sim.Message{From: from, Tag: seqTags(inst).phase1}
	}
	var b seqBuffer
	for _, c := range []struct {
		m        sim.Message
		consumed bool
	}{
		{msg(1, 2), false},
		{msg(3, 2), true},
		{msg(0, 4), true},
		{msg(2, 5), true},
		{msg(3, 4), true},
		{sim.Message{From: 3, Tag: sim.Intern("other")}, false},
	} {
		if got := b.stash(1, &c.m); got != c.consumed {
			t.Errorf("stash(1, %s from %v) = %v, want %v", c.m.Tag, c.m.From, got, c.consumed)
		}
	}
	if ms := b.take(0); len(ms) != 0 {
		t.Errorf("finished instance 0 replays %d messages, want 0", len(ms))
	}
	if ms := b.take(2); len(ms) != 1 || ms[0].From != 5 {
		t.Errorf("instance 2 replays %v, want the one message from p5", ms)
	}
	ms := b.take(3)
	if len(ms) != 2 || ms[0].From != 2 || ms[1].From != 4 {
		t.Errorf("instance 3 replays %v, want p2's then p4's message", ms)
	}
	if ms := b.take(3); len(ms) != 0 {
		t.Errorf("instance 3 replayed twice: %v", ms)
	}
}

// TestSequenceLateProcessReplaysStash drives RunSequence's stash and
// replay path end to end: every message to process 1 is held until the
// others have finished all instances, and the release delivers them out
// of instance order, so process 1 meets later instances' messages while
// still in an earlier one. Each instance must still satisfy agreement,
// with process 1 deciding all of them after the release.
func TestSequenceLateProcessReplaysStash(t *testing.T) {
	const (
		n       = 5
		r       = 3
		release = 40_000
	)
	cfg := sim.Config{
		N: n, T: 2, Seed: 4, MaxSteps: 400_000, GST: 0, Bandwidth: n,
		Holds: []sim.Hold{{From: ids.NewSet(2, 3, 4, 5), To: ids.NewSet(1), Until: release}},
	}
	sys := sim.MustNew(cfg)
	oracle := fd.NewOmega(sys, 1, fd.WithStabilizeAt(0), fd.WithTrusted(ids.NewSet(2)))
	outs := make([]*Outcome, r)
	for i := range outs {
		outs[i] = NewOutcome()
	}
	for p := 1; p <= n; p++ {
		vals := make([]Value, r)
		for i := range vals {
			vals[i] = Value(100*(i+1) + p)
		}
		sys.Spawn(ids.ProcID(p), SequenceMain(oracle, vals, outs))
	}
	rep := sys.Run(AllInstancesDecided(outs, sys.Pattern().Correct()))
	if !rep.StoppedEarly {
		t.Fatal("timed out: process 1 did not decide every instance")
	}
	for i, o := range outs {
		if err := o.Check(sys.Pattern(), 1); err != nil {
			t.Errorf("instance %d: %v", i, err)
		}
		for p, d := range o.Decisions() {
			late := p == 1
			if late != (d.At >= release) {
				t.Errorf("instance %d: %v decided at %d; want only process 1 deciding after the release at %d",
					i, p, d.At, release)
			}
		}
	}
}
