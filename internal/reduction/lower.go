// Package reduction implements the paper's transformation algorithms:
//
//   - the two-wheels addition ◇S_x + ◇φ_y → Ω_z with z = t+2−x−y
//     (paper §4, Figs. 5–6): LowerWheel and UpperWheel;
//   - the direct Ψ_y → Ω_z construction for y+z > t (Appendix A,
//     Fig. 8): PsiOmega;
//   - the addition S_x + φ_y → S_n (and ◇S_x + ◇φ_y → ◇S_n) for
//     x+y > t (Appendix B, Fig. 9): AddS, over shared registers.
//
// Each transformation's output is exposed through the fd interfaces, so
// constructions stack exactly as in the paper (e.g. its Theorem 5 proof
// composes ◇S_x → Ω_z with the Ω_z-based k-set agreement algorithm).
package reduction

import (
	"fmt"

	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/node"
	"fdgrid/internal/rbcast"
	"fdgrid/internal/sim"
)

// tagXMove is the lower wheel's R-broadcast move message.
var tagXMove = sim.Intern("wheel.xmove")

type xMoveMsg struct {
	Pos ids.XPos
}

// LowerWheel is the paper's Fig. 5 component, run by every process. Using
// a ◇S_x suspector, all processes scan the common ring of (leader, X)
// pairs over x-subsets until they stabilize on a pair (ℓ, X) such that
// either every process of X has crashed, or ℓ is a correct process of X
// that the live members of X stop suspecting. Each process continuously
// exposes a representative Repr: the pair's leader if the process belongs
// to X, its own identity otherwise (Theorem 6).
//
// Faithfulness notes. Task T1's unconditional re-broadcast is throttled
// to once per visit of a ring position (a legal scheduling of the
// paper's loop: one broadcast per position suffices for every process to
// consume a move and advance). Task T2's deferred matching rule — a move
// message is consumed only when the local pair equals the message's pair
// — is implemented by buffering per-position counts.
type LowerWheel struct {
	env  *sim.Env
	rb   *rbcast.Layer
	susp fd.Suspector
	hint fd.ChangeHinted // susp's, resolved once

	ring          *ids.XRing
	buffered      moveBuffer[ids.XPos]
	sentThisVisit bool
	moves         int // consumed moves (diagnostics)

	pos  ids.XPos
	repr ids.ProcID

	// quiet is the tick before which Poll provably does nothing while no
	// move is pending (0: none yet). Poll reads only the position, the
	// pending moves and the suspector's output, and a full Poll leaves
	// nothing to do for the same three, so the next one can act only
	// once a move is pending or, if the wheel may still send at this
	// position, once the suspector's output can change: quiet is then
	// the end of the suspector's change window, else sim.Never.
	quiet sim.Time
	// wake caches windowEnd: the end of the suspector's change window
	// at the last tick the hint was read.
	wake sim.Time
}

var _ node.Layer = (*LowerWheel)(nil)

// NewLowerWheel builds the lower-wheel layer of one process. x must be
// in 1..n.
func NewLowerWheel(env *sim.Env, rb *rbcast.Layer, susp fd.Suspector, x int) *LowerWheel {
	if x < 1 || x > env.N() {
		panic(fmt.Sprintf("reduction: lower wheel x=%d out of range 1..%d", x, env.N()))
	}
	w := &LowerWheel{
		env:  env,
		rb:   rb,
		susp: susp,
		hint: fd.HintOf(susp),
		ring: ids.NewXRing(env.N(), x),
		repr: env.ID(),
	}
	w.pos = w.ring.Current()
	return w
}

// Repr returns this process's current representative repr_i. Like all
// protocol state it is run-token owned (see the internal/sim
// concurrency contract): read it from protocol code, samplers or stop
// predicates, or after Run returns.
func (w *LowerWheel) Repr() ids.ProcID {
	return w.repr
}

// Pos returns the current ring position (diagnostics, tests).
func (w *LowerWheel) Pos() ids.XPos {
	return w.pos
}

// Moves returns how many x_move messages this process has consumed.
func (w *LowerWheel) Moves() int {
	return w.moves
}

// NextWake implements node.Layer: with no message in play, the
// wheel only needs to act when the suspector's output can change (the
// suspicious-poll in task T1), and only while it may still send at its
// position: once a Poll has left quiet at sim.Never, only a move, which
// arrives as a message, gives it work, so it makes no timed wake.
// Buffered moves are consumed on the message wake that delivered them.
func (w *LowerWheel) NextWake(now sim.Time) sim.Time {
	if w.quiet == sim.Never {
		return sim.Never
	}
	return w.windowEnd(now)
}

// windowEnd returns the end of the suspector's change window holding
// now, reading the hint only once now has left the cached window. Poll
// reads the window through it, not through NextWake, which is
// sim.Never whenever the last Poll found nothing to send.
func (w *LowerWheel) windowEnd(now sim.Time) sim.Time {
	if now >= w.wake {
		w.wake = w.hint.NextChange(now)
	}
	return w.wake
}

// Handle implements node.Layer: it buffers x_move messages (already
// R-delivered by the rbcast layer below) for deferred consumption.
func (w *LowerWheel) Handle(m *sim.Message) bool {
	if m.Tag != tagXMove {
		return true
	}
	mv, ok := m.Payload.(xMoveMsg)
	if !ok {
		panic(fmt.Sprintf("reduction: x_move payload %T", m.Payload))
	}
	w.buffered.add(mv.Pos, w.pos)
	return false
}

// moveBuffer holds a wheel's R-delivered move messages until their
// position comes up (task T2's deferred matching rule): a count for the
// wheel's current position, and per-position counts for the others. A
// move for the current position, and a Poll with none pending, hash
// nothing; the map is touched only when a move arrives for another
// position or the wheel moves.
type moveBuffer[P comparable] struct {
	here   int       // moves pending at the current position
	others map[P]int // moves pending elsewhere; no zero counts
}

// add buffers one move for position p, the wheel being at at.
func (b *moveBuffer[P]) add(p, at P) {
	if p == at {
		b.here++
	} else {
		b.stash(p, 1)
	}
}

// stash buffers c moves for position p, which is not the current one.
func (b *moveBuffer[P]) stash(p P, c int) {
	if b.others == nil {
		b.others = make(map[P]int)
	}
	b.others[p] += c
}

// take consumes one move pending at the current position, reporting
// whether there was one.
func (b *moveBuffer[P]) take() bool {
	if b.here == 0 {
		return false
	}
	b.here--
	return true
}

// moved follows the wheel from position from to position to: the moves
// still pending at from wait there for the ring to come round again, and
// those buffered for to become pending.
func (b *moveBuffer[P]) moved(from, to P) {
	if b.here > 0 {
		b.stash(from, b.here)
	}
	b.here = 0
	if c, ok := b.others[to]; ok {
		b.here = c
		delete(b.others, to)
	}
}

// Poll implements node.Layer: consume matching buffered moves (task T2),
// then run one iteration of task T1. Before the quiet tick, with no move
// pending, it returns at once.
func (w *LowerWheel) Poll() {
	if w.buffered.here == 0 && w.quiet == sim.Never {
		return
	}
	now := w.env.Now()
	if w.buffered.here == 0 && now < w.quiet {
		return
	}
	moved := false
	for w.buffered.take() {
		from := w.pos
		w.ring.Next()
		w.pos = w.ring.Current()
		w.buffered.moved(from, w.pos)
		w.sentThisVisit = false
		w.moves++
		moved = true
	}
	if moved {
		w.env.Trace().Wheel(int64(now), int(w.env.ID()), "lower",
			int64(w.pos.Leader), w.pos.X, w.moves)
	}
	pos := w.pos
	me := w.env.ID()
	if pos.X.Contains(me) {
		w.repr = pos.Leader
	} else {
		w.repr = me
	}
	if !pos.X.Contains(me) || w.sentThisVisit {
		w.quiet = sim.Never // nothing to send before the next move
		return
	}
	w.quiet = w.windowEnd(now)
	if w.susp.Suspected(me).Contains(pos.Leader) {
		w.sentThisVisit = true
		w.quiet = sim.Never
		w.rb.Broadcast(tagXMove, xMoveMsg{Pos: pos})
	}
}
