package agreement

import (
	"testing"

	"fdgrid/internal/ids"
)

// The reference below is the round state Fig. 3 ran on before its
// per-round aggregates: a generic sender-indexed box per phase and
// round, phase1Aux over it, and phase 2's adoption as an id-order scan
// of the box. FuzzRoundStateMatchesScan checks the aggregates against
// it. The bodies are kept as they were; only the names changed.

// scanBox holds one phase's messages of one round, indexed by sender:
// msgs[p] is p's message when from contains p. A sender heard twice
// counts once; its later message replaces the earlier one.
type scanBox[M any] struct {
	from  ids.Set
	count int
	msgs  []M // index 1..n
}

// scanRounds is one phase's round state for one process: a box per round
// from the current one up, kept dense by round. Messages for rounds
// already passed are dropped on arrival — the protocol never reads
// them — and the boxes of retired rounds are recycled, so a run reuses
// the same few sender-indexed arrays however many rounds it takes.
type scanRounds[M any] struct {
	n     int
	base  int           // the current round: boxes[i] holds round base+i
	boxes []*scanBox[M] // nil where nothing has arrived yet
	free  []*scanBox[M] // retired boxes, emptied, ready for reuse
}

func newScanRounds[M any](n int) *scanRounds[M] {
	return &scanRounds[M]{n: n, base: 1}
}

// box returns round r's box, creating it (from a recycled one when
// possible) if needed; r must be at least the current round.
func (rs *scanRounds[M]) box(r int) *scanBox[M] {
	i := r - rs.base
	for len(rs.boxes) <= i {
		rs.boxes = append(rs.boxes, nil)
	}
	if rs.boxes[i] == nil {
		if k := len(rs.free); k > 0 {
			rs.boxes[i] = rs.free[k-1]
			rs.free = rs.free[:k-1]
		} else {
			rs.boxes[i] = &scanBox[M]{msgs: make([]M, rs.n+1)}
		}
	}
	return rs.boxes[i]
}

// put records from's message for round r, dropping it if r has passed.
func (rs *scanRounds[M]) put(r int, from ids.ProcID, m M) {
	if r < rs.base {
		return
	}
	b := rs.box(r)
	if !b.from.Contains(from) {
		b.from = b.from.Add(from)
		b.count++
	}
	b.msgs[from] = m
}

// advance makes r the current round, retiring every earlier round's
// box, and returns round r's box.
func (rs *scanRounds[M]) advance(r int) *scanBox[M] {
	k := min(r-rs.base, len(rs.boxes))
	for _, b := range rs.boxes[:k] {
		if b != nil {
			b.from, b.count = ids.Set{}, 0
			rs.free = append(rs.free, b)
		}
	}
	rs.boxes = rs.boxes[:copy(rs.boxes, rs.boxes[k:])]
	rs.base = r
	return rs.box(r)
}

// scanPhase1Aux is phase1Aux over a sender-indexed box.
func scanPhase1Aux(b *scanBox[phase1Msg], n int) (aux Value, bot bool) {
	var cand ids.Set
	lead := 0
	b.from.ForEachIn(n, func(p ids.ProcID) bool {
		switch l := b.msgs[p].L; {
		case lead == 0:
			cand, lead = l, 1
		case l.Equal(cand):
			lead++
		default:
			lead--
		}
		return true
	})
	votes := 0
	b.from.ForEachIn(n, func(p ids.ProcID) bool {
		if b.msgs[p].L.Equal(cand) {
			votes++
		}
		return true
	})
	if 2*votes <= n {
		return 0, true
	}
	best := b.from.Intersect(cand).Min()
	if best == ids.None {
		return 0, true
	}
	return b.msgs[best].Est, false
}

// scanAdopt is phase 2's adoption scan: senders in identity order, the
// own echo preferred, else the first non-⊥ value.
func scanAdopt(p2 *scanBox[phase2Msg], n int, me ids.ProcID, est Value) (Value, bool, bool) {
	sawBot := false
	adopted := false
	p2.from.ForEachIn(n, func(from ids.ProcID) bool {
		pm := p2.msgs[from]
		if pm.Bot {
			sawBot = true
			return true
		}
		if from == me || !adopted {
			est = pm.Aux
			adopted = true
		}
		return true
	})
	return est, adopted, sawBot
}

// FuzzRoundStateMatchesScan drives the round state and the reference
// with the same messages — any n in 1..256, leader sets, estimates, aux
// values and ⊥ flags from the input, in any arrival order, for the
// current round, later rounds and passed ones, some before round 1 —
// and after every step compares the current round's counts, senders,
// wait predicates, phase-1 (aux, ⊥), adopted estimate and ⊥ flag. The
// state panics on a duplicate (round, phase, sender), so the input
// skips those.
//
// Input: n−1, this process's id, four leader-set members, then 5-byte
// steps: kind, round offset, sender, value, flags.
func FuzzRoundStateMatchesScan(f *testing.F) {
	f.Add([]byte{4, 2, 0, 1, 2, 3, 0, 0, 0, 10, 0, 0, 2, 1, 20, 0, 1, 2, 0, 30, 1, 7, 0, 0, 0, 0})
	// n = 5, process 3: aux from 2, then the own echo, then from 1.
	f.Add([]byte{4, 2, 0, 1, 2, 3, 1, 2, 1, 20, 0, 1, 2, 2, 30, 0, 1, 2, 0, 10, 0})
	for _, n := range []byte{0, 63, 64, 255} { // n = 1, 64, 65, 256
		seed := []byte{n, 63, 63, 64, 255, 0}
		for i := byte(0); i < 60; i++ {
			seed = append(seed, i%8, 2+i%3, i*37, i, i>>2)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		n := int(data[0]) + 1
		me := ids.ProcID(int(data[1])%n + 1)
		var leaders [4]ids.Set
		for i := range leaders {
			p := ids.ProcID(int(data[2+i])%n + 1)
			leaders[i] = ids.NewSet(p, ids.ProcID((int(p)+i)%n+1))
		}
		tol := (n - 1) / 2
		data = data[6:]

		arena := new(RoundArena)
		rs := newRounds(n, arena)
		ref1, ref2 := newScanRounds[phase1Msg](n), newScanRounds[phase2Msg](n)
		type key struct{ r, phase, from int }
		sent := map[key]bool{}
		check := func(step int, l ids.Set) {
			b := rs.at(rs.base)
			w1, w2 := ref1.box(ref1.base), ref2.box(ref2.base)
			if b.p1.count != w1.count || b.p1.from != w1.from || b.p2.count != w2.count || b.p2.from != w2.from {
				t.Fatalf("step %d: senders %s/%d, %s/%d; want %s/%d, %s/%d", step,
					b.p1.from, b.p1.count, b.p2.from, b.p2.count, w1.from, w1.count, w2.from, w2.count)
			}
			if (b.p1.count >= n-tol) != (w1.count >= n-tol) || b.p1.from.Intersects(l) != w1.from.Intersects(l) ||
				(b.p2.count >= n-tol) != (w2.count >= n-tol) {
				t.Fatalf("step %d: wait predicates differ", step)
			}
			aux, bot := phase1Aux(&b.p1, n)
			waux, wbot := scanPhase1Aux(w1, n)
			if aux != waux || bot != wbot {
				t.Fatalf("step %d: phase-1 aux (%d, ⊥=%v), want (%d, ⊥=%v)", step, aux, bot, waux, wbot)
			}
			const est = -1
			west, adopted, sawBot := scanAdopt(w2, n, me, est)
			got := Value(est)
			if b.p2.pick != ids.None {
				got = b.p2.aux
			}
			if (b.p2.pick != ids.None) != adopted || got != west || b.p2.sawBot != sawBot {
				t.Fatalf("step %d: adopts %d (pick %v) ⊥=%v, want %d (adopted %v) ⊥=%v",
					step, got, b.p2.pick, b.p2.sawBot, west, adopted, sawBot)
			}
		}

		started := false
		for step := 0; len(data) >= 5; step, data = step+1, data[5:] {
			kind, off, from, val, flags := data[0], data[1], ids.ProcID(int(data[2])%n+1), Value(data[3]), data[4]
			l := leaders[flags&3]
			if kind%8 == 7 {
				next := rs.base + 1 + int(kind>>3)%3
				if !started {
					next, started = 1, true
				}
				rs.advance(next)
				ref1.advance(next)
				ref2.advance(next)
				check(step, l)
				continue
			}
			r := rs.base + int(off%6) - 2
			if r < 1 {
				r = 1
			}
			phase := 1 + int(kind%2)
			if k := (key{r, phase, int(from)}); sent[k] {
				continue
			} else {
				sent[k] = true
			}
			b := rs.at(r)
			if b == nil {
				if r >= ref1.base {
					t.Fatalf("step %d: round %d dropped while current is %d", step, r, rs.base)
				}
				continue
			}
			if phase == 1 {
				m := phase1Msg{R: r, L: l, Est: val}
				b.p1.put(from, &m)
				ref1.put(r, from, m)
			} else {
				m := phase2Msg{R: r, Aux: val, Bot: flags&4 != 0}
				b.p2.put(from, me, &m)
				ref2.put(r, from, m)
			}
			check(step, l)
		}
		rs.release()
		for _, b := range arena.free {
			if b.p1.senders != (senders{}) || b.p2 != (phase2Box{}) {
				t.Fatalf("box handed back dirty: %+v %+v", b.p1.senders, b.p2)
			}
		}
	})
}
