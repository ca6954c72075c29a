package agreement

import (
	"testing"

	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

// p1Box builds round 1's phase-1 box for n processes from sender-keyed
// messages.
func p1Box(n int, msgs map[ids.ProcID]phase1Msg) *phase1Box {
	rs := newRounds(n, new(RoundArena))
	for _, from := range ids.SortIDs(mapKeys(msgs)) {
		m := msgs[from]
		rs.at(1).p1.put(from, &m)
	}
	return &rs.advance(1).p1
}

func mapKeys(m map[ids.ProcID]phase1Msg) []ids.ProcID {
	ps := make([]ids.ProcID, 0, len(m))
	for p := range m {
		ps = append(ps, p)
	}
	return ps
}

// TestPhase1Aux covers the phase-1 aux computation (paper Fig. 3
// lines 07-08) in isolation.
func TestPhase1Aux(t *testing.T) {
	l12 := ids.NewSet(1, 2)
	l34 := ids.NewSet(3, 4)
	const n = 5

	t.Run("no majority", func(t *testing.T) {
		b := p1Box(n, map[ids.ProcID]phase1Msg{
			1: {R: 1, L: l12, Est: 10},
			2: {R: 1, L: l34, Est: 20},
		})
		if _, bot := phase1Aux(b, n); !bot {
			t.Error("aux without a majority leader set must be ⊥")
		}
	})

	t.Run("majority without member estimate", func(t *testing.T) {
		// Three senders announce {1,2} but none of them *is* 1 or 2.
		b := p1Box(n, map[ids.ProcID]phase1Msg{
			3: {R: 1, L: l12, Est: 30},
			4: {R: 1, L: l12, Est: 40},
			5: {R: 1, L: l12, Est: 50},
		})
		if _, bot := phase1Aux(b, n); !bot {
			t.Error("aux must be ⊥ when no member of the majority set was heard")
		}
	})

	t.Run("majority with member estimates", func(t *testing.T) {
		b := p1Box(n, map[ids.ProcID]phase1Msg{
			1: {R: 1, L: l12, Est: 10},
			2: {R: 1, L: l12, Est: 20},
			5: {R: 1, L: l12, Est: 50},
		})
		aux, bot := phase1Aux(b, n)
		if bot {
			t.Fatal("aux = ⊥ with members heard")
		}
		if aux != 10 {
			t.Errorf("aux = %d, want the smallest-id member's estimate 10", aux)
		}
	})

	t.Run("majority counts senders not sets", func(t *testing.T) {
		// Two senders of {1,2} is not a majority of n=5.
		b := p1Box(n, map[ids.ProcID]phase1Msg{
			1: {R: 1, L: l12, Est: 10},
			2: {R: 1, L: l12, Est: 20},
		})
		if _, bot := phase1Aux(b, n); !bot {
			t.Error("2 of 5 announcing the same set is not a majority")
		}
	})

	t.Run("majority set trailing in id order", func(t *testing.T) {
		// The vote's running candidate is {3,4} for the first two
		// senders; the majority {1,2} still wins.
		b := p1Box(n, map[ids.ProcID]phase1Msg{
			1: {R: 1, L: l34, Est: 10},
			2: {R: 1, L: l34, Est: 20},
			3: {R: 1, L: l12, Est: 30},
			4: {R: 1, L: l12, Est: 40},
			5: {R: 1, L: l12, Est: 50},
		})
		aux, bot := phase1Aux(b, n)
		if bot || aux != 10 {
			t.Errorf("aux = %d, ⊥=%v; want 10 from member 1 of majority {1,2}", aux, bot)
		}
	})

	t.Run("word boundaries at n=256", func(t *testing.T) {
		// 129 of 256 announce {64,65,256}; the smallest-id member heard
		// is 64, at the top of word 0.
		const big = 256
		lead := ids.NewSet(64, 65, 256)
		msgs := map[ids.ProcID]phase1Msg{}
		for p := 65; p <= 193; p++ {
			msgs[ids.ProcID(p)] = phase1Msg{R: 1, L: lead, Est: Value(p)}
		}
		msgs[64] = phase1Msg{R: 1, L: ids.NewSet(1), Est: 64}
		msgs[256] = phase1Msg{R: 1, L: ids.NewSet(1), Est: 256}
		b := p1Box(big, msgs)
		if b.count != 131 {
			t.Fatalf("count = %d, want 131", b.count)
		}
		aux, bot := phase1Aux(b, big)
		if bot || aux != 64 {
			t.Errorf("aux = %d, ⊥=%v; want 64 (member 64, across the word boundary from 65)", aux, bot)
		}
		// Without sender 64 the smallest member heard is 65.
		delete(msgs, 64)
		b = p1Box(big, msgs)
		if aux, bot := phase1Aux(b, big); bot || aux != 65 {
			t.Errorf("aux = %d, ⊥=%v; want 65", aux, bot)
		}
		// 128 of 256 is not a strict majority.
		delete(msgs, 193)
		b = p1Box(big, msgs)
		if _, bot := phase1Aux(b, big); !bot {
			t.Error("128 of 256 announcing one set is not a majority")
		}
	})
}

// TestPhase2Adoption: phase 2 adopts the process's own non-⊥ echo when
// it arrived, else the smallest-id sender's non-⊥ value, whatever the
// arrival order; a ⊥ sets the flag and adopts nothing.
func TestPhase2Adoption(t *testing.T) {
	const me = 3
	put := func(b *phase2Box, from ids.ProcID, aux Value, bot bool) {
		b.put(from, me, &phase2Msg{R: 1, Aux: aux, Bot: bot})
	}
	var b phase2Box
	put(&b, 5, 50, false)
	put(&b, 4, 0, true)
	if b.pick != 5 || b.aux != 50 || !b.sawBot {
		t.Errorf("pick %v aux %d ⊥ %v, want 5's 50 with ⊥ seen", b.pick, b.aux, b.sawBot)
	}
	put(&b, 2, 20, false)
	if b.pick != 2 || b.aux != 20 {
		t.Errorf("pick %v aux %d, want the smaller id 2's 20", b.pick, b.aux)
	}
	put(&b, me, 30, false)
	put(&b, 1, 10, false)
	if b.pick != me || b.aux != 30 {
		t.Errorf("pick %v aux %d, want the own echo 30", b.pick, b.aux)
	}
	var all phase2Box
	put(&all, 1, 0, true)
	put(&all, me, 0, true)
	if all.pick != ids.None || !all.sawBot || all.count != 2 {
		t.Errorf("all ⊥: pick %v ⊥ %v count %d, want no pick", all.pick, all.sawBot, all.count)
	}
}

// TestRoundsSenders: the sender set of a box answers the phase-1 wait
// "some sender is in L" word by word, ids 64, 65 and 256 included.
func TestRoundsSenders(t *testing.T) {
	rs := newRounds(256, new(RoundArena))
	for _, p := range []ids.ProcID{2, 64, 65, 256} {
		rs.at(1).p1.put(p, &phase1Msg{R: 1})
	}
	b := rs.advance(1).p1
	for _, l := range []ids.Set{ids.NewSet(64), ids.NewSet(65, 66), ids.NewSet(256), ids.NewSet(1, 2)} {
		if !b.from.Intersects(l) {
			t.Errorf("no sender found in %s", l)
		}
	}
	for _, l := range []ids.Set{ids.NewSet(63, 66), ids.NewSet(1, 255), ids.EmptySet()} {
		if b.from.Intersects(l) {
			t.Errorf("phantom sender found in %s", l)
		}
	}
	if rs.at(2).p1.from.Intersects(ids.NewSet(1)) {
		t.Error("empty round's box matched a sender")
	}
}

// TestRoundsReplayBeforeFirstRound: messages handled before round 1
// starts (a sequence instance's replay) wait in their rounds' boxes.
func TestRoundsReplayBeforeFirstRound(t *testing.T) {
	rs := newRounds(5, new(RoundArena))
	rs.at(2).p1.put(4, &phase1Msg{R: 2, Est: 42})
	rs.at(1).p1.put(3, &phase1Msg{R: 1, Est: 31})
	rs.at(1).p2.put(3, 1, &phase2Msg{R: 1, Aux: 32})
	if b := rs.advance(1); b.p1.count != 1 || b.p1.slots[3].Est != 31 || b.p2.pick != 3 || b.p2.aux != 32 {
		t.Errorf("round 1: count %d pick %v, want p3's replayed messages", b.p1.count, b.p2.pick)
	}
	if b := rs.advance(2); b.p1.count != 1 || b.p1.slots[4].Est != 42 || b.p2.count != 0 {
		t.Errorf("round 2: count %d, want p4's replayed message", b.p1.count)
	}
}

// TestRoundsDuplicateSender: a second message from one sender in one
// round and phase panics. Each process sends each phase once per round
// and the network never duplicates a message, so the state keeps no
// per-sender phase-2 record to replace.
func TestRoundsDuplicateSender(t *testing.T) {
	for _, tc := range []struct {
		name string
		dup  func(b *round)
	}{
		{"phase1", func(b *round) { b.p1.put(3, &phase1Msg{R: 1, Est: 8}) }},
		{"phase2", func(b *round) { b.p2.put(3, 1, &phase2Msg{R: 1, Aux: 8}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs := newRounds(5, new(RoundArena))
			b := rs.advance(1)
			b.p1.put(3, &phase1Msg{R: 1, Est: 7})
			b.p2.put(3, 1, &phase2Msg{R: 1, Aux: 7})
			b.p2.put(4, 1, &phase2Msg{R: 1, Bot: true})
			defer func() {
				if recover() == nil {
					t.Error("duplicate sender did not panic")
				}
			}()
			tc.dup(b)
		})
	}
}

// TestRoundsFutureAndStale: a message for a later round waits in its own
// box until that round is current; a message for a passed round is
// dropped; retired boxes come back empty.
func TestRoundsFutureAndStale(t *testing.T) {
	arena := new(RoundArena)
	rs := newRounds(5, arena)
	b1 := rs.advance(1)
	b1.p1.put(1, &phase1Msg{R: 1, Est: 11})
	rs.at(3).p1.put(2, &phase1Msg{R: 3, Est: 32}) // early: round 3 while in round 1
	if b1.p1.count != 1 {
		t.Fatalf("round 1 count %d, want 1 (the round-3 message must not land here)", b1.p1.count)
	}
	b2 := rs.advance(2)
	if b2 != b1 {
		t.Error("round 2 did not reuse retired round 1's box")
	}
	if b2.p1.count != 0 || !b2.p1.from.IsEmpty() {
		t.Errorf("recycled round 2 box not empty: count %d senders %s", b2.p1.count, b2.p1.from)
	}
	if rs.at(1) != nil {
		t.Error("a passed round still has a box") // stale: round 1 has passed
	}
	b3 := rs.advance(3)
	if b3.p1.count != 1 || !b3.p1.from.Contains(2) || b3.p1.slots[2].Est != 32 {
		t.Errorf("round 3 box: count %d senders %s est %d, want the early message from 2",
			b3.p1.count, b3.p1.from, b3.p1.slots[2].Est)
	}
	// Skipping ahead retires round 3 and reuses a box; a run never holds
	// more than the boxes it had in flight at once.
	b7 := rs.advance(7)
	if b7.p1.count != 0 || !b7.p1.from.IsEmpty() {
		t.Errorf("round 7 box not empty: count %d senders %s", b7.p1.count, b7.p1.from)
	}
	if got := len(arena.free) + len(rs.boxes); got != 2 {
		t.Errorf("%d boxes held, want the 2 ever allocated", got)
	}
}

// TestRoundArenaRunReturnsEveryBox: a run lent an arena hands every box
// back, each once and emptied, including those of processes that crash
// mid-run. The arena starts with more boxes than the run needs, so it
// must end with exactly those.
func TestRoundArenaRunReturnsEveryBox(t *testing.T) {
	const stock = 1000
	cfg := sim.Config{
		N: 9, T: 4, Seed: 1, MaxSteps: 1_000_000, GST: 3_000,
		Crashes: map[ids.ProcID]sim.Time{2: 1500, 7: 2500, 9: 50, 3: 0},
	}
	arena := new(RoundArena)
	for i := 0; i < stock; i++ {
		arena.put([]*round{new(round)})
	}
	sys := sim.MustNew(cfg)
	oracle := fd.NewOmega(sys, 3)
	out := NewOutcome()
	out.UseArena(arena)
	for p := 1; p <= cfg.N; p++ {
		sys.Spawn(ids.ProcID(p), KSetMain(oracle, Value(100+p), out))
	}
	if rep := sys.Run(out.AllDecided(sys.Pattern().Correct())); !rep.StoppedEarly {
		t.Fatal("run timed out")
	}
	if len(arena.free) != stock {
		t.Fatalf("arena holds %d boxes after the run, want its %d", len(arena.free), stock)
	}
	seen := map[*round]bool{}
	for _, b := range arena.free {
		if seen[b] {
			t.Fatal("a box was handed back twice")
		}
		seen[b] = true
		if b.p1.senders != (senders{}) || b.p2 != (phase2Box{}) {
			t.Fatalf("box handed back dirty: %+v %+v", b.p1.senders, b.p2)
		}
	}
}

// TestRoundArenaHandsBackEmpty: release returns every box a process
// holds, future rounds included, with its senders and phase-2
// aggregates cleared and its slot array kept; a box taken for a larger
// n grows its slots.
func TestRoundArenaHandsBackEmpty(t *testing.T) {
	arena := new(RoundArena)
	rs := newRounds(5, arena)
	b := rs.advance(1)
	b.p1.put(2, &phase1Msg{R: 1, L: ids.NewSet(2), Est: 9})
	b.p2.put(2, 1, &phase2Msg{R: 1, Aux: 9})
	b.p2.put(4, 1, &phase2Msg{R: 1, Bot: true})
	rs.at(4).p2.put(5, 1, &phase2Msg{R: 4, Aux: 3})
	rs.release()
	if len(arena.free) != 2 || len(rs.boxes) != 0 {
		t.Fatalf("arena holds %d boxes, process %d; want 2 and 0", len(arena.free), len(rs.boxes))
	}
	for _, b := range arena.free {
		if b.p1.senders != (senders{}) || b.p2 != (phase2Box{}) {
			t.Errorf("box handed back dirty: %+v %+v", b.p1.senders, b.p2)
		}
		if len(b.p1.slots) != 6 {
			t.Errorf("slot array of length %d handed back, want 6", len(b.p1.slots))
		}
	}
	big := newRounds(256, arena).advance(1)
	if len(big.p1.slots) != 257 {
		t.Errorf("box for n=256 has %d slots, want 257", len(big.p1.slots))
	}
}

func TestDistinctValuesSorted(t *testing.T) {
	o := NewOutcome()
	o.Propose(1, 30)
	o.Propose(2, 10)
	o.Propose(3, 20)
	o.Decide(1, Decision{Value: 30})
	o.Decide(2, Decision{Value: 10})
	o.Decide(3, Decision{Value: 20})
	got := o.DistinctValues()
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Errorf("DistinctValues = %v, want sorted [10 20 30]", got)
	}
}

func TestAllDecidedEmptyCorrectSet(t *testing.T) {
	o := NewOutcome()
	if !o.AllDecided(ids.EmptySet())() {
		t.Error("vacuously true predicate returned false")
	}
}
