package agreement

import (
	"testing"

	"fdgrid/internal/ids"
)

// phase1Box builds round 1's phase-1 box for n processes from
// sender-keyed messages.
func phase1Box(n int, msgs map[ids.ProcID]phase1Msg) *roundBox[phase1Msg] {
	rs := newRounds[phase1Msg](n)
	for _, from := range ids.SortIDs(mapKeys(msgs)) {
		rs.put(1, from, msgs[from])
	}
	return rs.advance(1)
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
		b := phase1Box(n, map[ids.ProcID]phase1Msg{
			1: {R: 1, L: l12, Est: 10},
			2: {R: 1, L: l34, Est: 20},
		})
		if _, bot := phase1Aux(b, n); !bot {
			t.Error("aux without a majority leader set must be ⊥")
		}
	})

	t.Run("majority without member estimate", func(t *testing.T) {
		// Three senders announce {1,2} but none of them *is* 1 or 2.
		b := phase1Box(n, map[ids.ProcID]phase1Msg{
			3: {R: 1, L: l12, Est: 30},
			4: {R: 1, L: l12, Est: 40},
			5: {R: 1, L: l12, Est: 50},
		})
		if _, bot := phase1Aux(b, n); !bot {
			t.Error("aux must be ⊥ when no member of the majority set was heard")
		}
	})

	t.Run("majority with member estimates", func(t *testing.T) {
		b := phase1Box(n, map[ids.ProcID]phase1Msg{
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
		b := phase1Box(n, map[ids.ProcID]phase1Msg{
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
		b := phase1Box(n, map[ids.ProcID]phase1Msg{
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
		b := phase1Box(big, msgs)
		if b.count != 131 {
			t.Fatalf("count = %d, want 131", b.count)
		}
		aux, bot := phase1Aux(b, big)
		if bot || aux != 64 {
			t.Errorf("aux = %d, ⊥=%v; want 64 (member 64, across the word boundary from 65)", aux, bot)
		}
		// Without sender 64 the smallest member heard is 65.
		delete(msgs, 64)
		b = phase1Box(big, msgs)
		if aux, bot := phase1Aux(b, big); bot || aux != 65 {
			t.Errorf("aux = %d, ⊥=%v; want 65", aux, bot)
		}
		// 128 of 256 is not a strict majority.
		delete(msgs, 193)
		b = phase1Box(big, msgs)
		if _, bot := phase1Aux(b, big); !bot {
			t.Error("128 of 256 announcing one set is not a majority")
		}
	})
}

// TestRoundsSenders: the sender set of a box answers the phase-1 wait
// "some sender is in L" word by word, ids 64, 65 and 256 included.
func TestRoundsSenders(t *testing.T) {
	rs := newRounds[phase1Msg](256)
	for _, p := range []ids.ProcID{2, 64, 65, 256} {
		rs.put(1, p, phase1Msg{R: 1})
	}
	b := rs.advance(1)
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
	if rs.box(2).from.Intersects(ids.NewSet(1)) {
		t.Error("empty round's box matched a sender")
	}
}

// TestRoundsReplayBeforeFirstRound: messages handled before round 1
// starts (a sequence instance's replay) wait in their rounds' boxes.
func TestRoundsReplayBeforeFirstRound(t *testing.T) {
	rs := newRounds[phase1Msg](5)
	rs.put(2, 4, phase1Msg{R: 2, Est: 42})
	rs.put(1, 3, phase1Msg{R: 1, Est: 31})
	if b := rs.advance(1); b.count != 1 || b.msgs[3].Est != 31 {
		t.Errorf("round 1: count %d, want p3's replayed message", b.count)
	}
	if b := rs.advance(2); b.count != 1 || b.msgs[4].Est != 42 {
		t.Errorf("round 2: count %d, want p4's replayed message", b.count)
	}
}

// TestRoundsDuplicateSender: a sender heard twice in a round counts once,
// and its later message replaces the earlier one.
func TestRoundsDuplicateSender(t *testing.T) {
	rs := newRounds[phase2Msg](5)
	rs.put(1, 3, phase2Msg{R: 1, Aux: 7})
	rs.put(1, 3, phase2Msg{R: 1, Aux: 8})
	rs.put(1, 4, phase2Msg{R: 1, Bot: true})
	b := rs.advance(1)
	if b.count != 2 || b.from != ids.NewSet(3, 4) {
		t.Errorf("count %d senders %s, want 2 senders {3,4}", b.count, b.from)
	}
	if b.msgs[3].Aux != 8 {
		t.Errorf("sender 3's message has aux %d, want the later 8", b.msgs[3].Aux)
	}
}

// TestRoundsFutureAndStale: a message for a later round waits in its own
// box until that round is current; a message for a passed round is
// dropped; retired boxes come back empty.
func TestRoundsFutureAndStale(t *testing.T) {
	rs := newRounds[phase1Msg](5)
	b1 := rs.advance(1)
	rs.put(1, 1, phase1Msg{R: 1, Est: 11})
	rs.put(3, 2, phase1Msg{R: 3, Est: 32}) // early: round 3 while in round 1
	if b1.count != 1 {
		t.Fatalf("round 1 count %d, want 1 (the round-3 message must not land here)", b1.count)
	}
	b2 := rs.advance(2)
	if b2 != b1 {
		t.Error("round 2 did not reuse retired round 1's box")
	}
	if b2.count != 0 || !b2.from.IsEmpty() {
		t.Errorf("recycled round 2 box not empty: count %d senders %s", b2.count, b2.from)
	}
	rs.put(1, 4, phase1Msg{R: 1, Est: 14}) // stale: round 1 has passed
	b3 := rs.advance(3)
	if b3.count != 1 || !b3.from.Contains(2) || b3.msgs[2].Est != 32 {
		t.Errorf("round 3 box: count %d senders %s est %d, want the early message from 2",
			b3.count, b3.from, b3.msgs[2].Est)
	}
	if b3.from.Contains(4) {
		t.Error("stale round-1 message reached round 3")
	}
	// Skipping ahead retires round 3 and reuses a box; a run never holds
	// more than the boxes it had in flight at once.
	b7 := rs.advance(7)
	if b7.count != 0 || !b7.from.IsEmpty() {
		t.Errorf("round 7 box not empty: count %d senders %s", b7.count, b7.from)
	}
	if got := len(rs.free) + len(rs.boxes); got != 2 {
		t.Errorf("%d boxes held, want the 2 ever allocated", got)
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
