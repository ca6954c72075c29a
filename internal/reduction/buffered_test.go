package reduction

import (
	"testing"

	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/rbcast"
	"fdgrid/internal/sim"
)

// checkBuffer fails unless b holds exactly the given leftover moves:
// here at the wheel's current position, others elsewhere.
func checkBuffer[P comparable](t *testing.T, b *moveBuffer[P], here int, others map[P]int) {
	t.Helper()
	if b.here != here || len(b.others) != len(others) {
		t.Fatalf("buffer here=%d others=%v, want here=%d others=%v", b.here, b.others, here, others)
	}
	for p, c := range others {
		if b.others[p] != c {
			t.Fatalf("buffer here=%d others=%v, want here=%d others=%v", b.here, b.others, here, others)
		}
	}
}

// TestWheelBuffersDropDrainedMoves feeds each wheel layer buffered
// moves for its next few ring positions, then polls once: the moves are
// consumed in ring order, and a drained position must keep no entry in
// the move buffer (an entry left at count zero makes every later Poll
// hash its position, and the map grows with every position the wheel
// ever visits). Only moves the wheel has not consumed stay buffered.
//
// The wrap cases deliver two copies of the current position's move and
// one move for every other position: one Poll goes round the whole ring
// and, back at the first position, consumes the second copy. A wheel
// that forgets a position's leftover moves when it leaves it stops one
// move short, back at the start.
func TestWheelBuffersDropDrainedMoves(t *testing.T) {
	sys := sim.MustNew(sim.Config{N: 4, T: 1, Seed: 1, MaxSteps: 10})
	env := sys.Env(1)
	rb := rbcast.New(env)
	susp := fd.NewScriptedSuspector(sys, []fd.SuspectStep{{At: 0}})

	xPositions := func(x, count int) []ids.XPos {
		ring := ids.NewXRing(4, x)
		pos := make([]ids.XPos, count)
		for i := range pos {
			pos[i] = ring.Current()
			ring.Next()
		}
		return pos
	}
	lyPositions := func(count int) []ids.LYPos {
		ring := ids.NewLYRing(4, 2, 2)
		pos := make([]ids.LYPos, count)
		for i := range pos {
			pos[i] = ring.Current()
			ring.Next()
		}
		return pos
	}
	xMove := func(p ids.XPos) *sim.Message { return &sim.Message{Tag: tagXMove, Payload: xMoveMsg{Pos: p}} }
	lMove := func(p ids.LYPos) *sim.Message { return &sim.Message{Tag: tagLMove, Payload: lMoveMsg{Pos: p}} }

	t.Run("lower", func(t *testing.T) {
		w := NewLowerWheel(env, rb, susp, 2)
		pos := xPositions(2, 4)
		for _, p := range []ids.XPos{pos[0], pos[1], pos[2], pos[2]} {
			w.Handle(xMove(p))
		}
		w.Poll()
		if w.Moves() != 3 || w.Pos() != pos[3] {
			t.Fatalf("consumed %d moves, at %v; want 3, at %v", w.Moves(), w.Pos(), pos[3])
		}
		checkBuffer(t, &w.buffered, 0, map[ids.XPos]int{pos[2]: 1})
	})

	t.Run("lower-wrap", func(t *testing.T) {
		w := NewLowerWheel(env, rb, susp, 2)
		size := int(ids.NewXRing(4, 2).Len())
		pos := xPositions(2, size)
		w.Handle(xMove(pos[0]))
		for _, p := range pos {
			w.Handle(xMove(p))
		}
		w.Poll()
		if w.Moves() != size+1 || w.Pos() != pos[1] {
			t.Fatalf("consumed %d moves, at %v; want %d, at %v", w.Moves(), w.Pos(), size+1, pos[1])
		}
		checkBuffer(t, &w.buffered, 0, nil)
	})

	t.Run("upper", func(t *testing.T) {
		lower := NewLowerWheel(env, rb, susp, 1)
		w := NewUpperWheel(env, rb, fd.NewPhi(sys, 0), lower, 1, 0)
		pos := lyPositions(3)
		w.Handle(lMove(pos[0]))
		w.Handle(lMove(pos[1]))
		w.Poll()
		if w.LMoves() != 2 || w.Pos() != pos[2] {
			t.Fatalf("consumed %d moves, at %v; want 2, at %v", w.LMoves(), w.Pos(), pos[2])
		}
		checkBuffer(t, &w.buffered, 0, nil)
	})

	t.Run("upper-wrap", func(t *testing.T) {
		lower := NewLowerWheel(env, rb, susp, 1)
		w := NewUpperWheel(env, rb, fd.NewPhi(sys, 0), lower, 1, 0)
		size := int(ids.NewLYRing(4, 2, 2).Len())
		pos := lyPositions(size)
		w.Handle(lMove(pos[0]))
		for _, p := range pos {
			w.Handle(lMove(p))
		}
		w.Poll()
		if w.LMoves() != size+1 || w.Pos() != pos[1] {
			t.Fatalf("consumed %d moves, at %v; want %d, at %v", w.LMoves(), w.Pos(), size+1, pos[1])
		}
		checkBuffer(t, &w.buffered, 0, nil)
	})

	// The single wheel is the lower wheel at x = n: its ring is the
	// candidates 1..n, each with X = Π.
	t.Run("single", func(t *testing.T) {
		w := NewLowerWheel(env, rb, susp, 4)
		pos := xPositions(4, 4)
		for _, p := range []ids.XPos{pos[0], pos[1], pos[3]} {
			w.Handle(xMove(p))
		}
		w.Poll()
		if w.Moves() != 2 || w.Pos() != pos[2] || w.Repr() != 3 {
			t.Fatalf("consumed %d moves, at %v with repr %v; want 2, at %v with repr 3", w.Moves(), w.Pos(), w.Repr(), pos[2])
		}
		checkBuffer(t, &w.buffered, 0, map[ids.XPos]int{pos[3]: 1})
	})

	t.Run("single-wrap", func(t *testing.T) {
		w := NewLowerWheel(env, rb, susp, 4)
		pos := xPositions(4, 4)
		for _, p := range []ids.XPos{pos[0], pos[0], pos[1], pos[2], pos[3]} {
			w.Handle(xMove(p))
		}
		w.Poll()
		if w.Moves() != 5 || w.Pos() != pos[1] || w.Repr() != 2 {
			t.Fatalf("consumed %d moves, at %v with repr %v; want 5, at %v with repr 2", w.Moves(), w.Pos(), w.Repr(), pos[1])
		}
		checkBuffer(t, &w.buffered, 0, nil)
	})
}
