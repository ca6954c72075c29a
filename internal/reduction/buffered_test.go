package reduction

import (
	"testing"

	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/rbcast"
	"fdgrid/internal/sim"
)

// TestWheelBuffersDropDrainedMoves feeds each wheel layer buffered
// moves for its next few ring positions, then polls once: the moves are
// consumed in ring order, and a drained position must keep no entry in
// the move buffer (an entry left at count zero makes every later Poll
// hash its position, and the map grows with every position the wheel
// ever visits). Only moves the wheel has not consumed stay buffered.
func TestWheelBuffersDropDrainedMoves(t *testing.T) {
	sys := sim.MustNew(sim.Config{N: 4, T: 1, Seed: 1, MaxSteps: 10})
	env := sys.Env(1)
	rb := rbcast.New(env)
	susp := fd.NewScriptedSuspector(sys, []fd.SuspectStep{{At: 0}})

	t.Run("lower", func(t *testing.T) {
		w := NewLowerWheel(env, rb, susp, 2)
		ring := ids.NewXRing(4, 2)
		var pos [3]ids.XPos
		for i := range pos {
			pos[i] = ring.Current()
			ring.Next()
		}
		for _, p := range []ids.XPos{pos[0], pos[1], pos[2], pos[2]} {
			w.Handle(&sim.Message{Tag: tagXMove, Payload: xMoveMsg{Pos: p}})
		}
		w.Poll()
		if w.Moves() != 3 {
			t.Fatalf("consumed %d moves, want 3", w.Moves())
		}
		if len(w.buffered) != 1 || w.buffered[pos[2]] != 1 {
			t.Errorf("buffer %v after draining two positions and one of two copies at a third, want only that copy", w.buffered)
		}
	})

	t.Run("upper", func(t *testing.T) {
		lower := NewLowerWheel(env, rb, susp, 1)
		w := NewUpperWheel(env, rb, fd.NewPhi(sys, 0), lower, 1, 0)
		ring := ids.NewLYRing(4, 2, 2)
		for i := 0; i < 2; i++ {
			w.Handle(&sim.Message{Tag: tagLMove, Payload: lMoveMsg{Pos: ring.Current()}})
			ring.Next()
		}
		w.Poll()
		if w.lmoves != 2 {
			t.Fatalf("consumed %d moves, want 2", w.lmoves)
		}
		if len(w.buffered) != 0 {
			t.Errorf("buffer %v after draining every move, want empty", w.buffered)
		}
	})

	t.Run("single", func(t *testing.T) {
		w := NewSingleWheelOmega(env, rb, susp)
		for _, c := range []ids.ProcID{1, 2, 4} {
			w.Handle(&sim.Message{Tag: tagCMove, Payload: cMoveMsg{Candidate: c}})
		}
		w.Poll()
		if w.moves != 2 {
			t.Fatalf("consumed %d moves, want 2", w.moves)
		}
		if len(w.buffered) != 1 || w.buffered[4] != 1 {
			t.Errorf("buffer %v after draining candidates 1 and 2, want only candidate 4's move", w.buffered)
		}
	})
}
