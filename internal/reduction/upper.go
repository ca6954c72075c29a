package reduction

import (
	"fmt"

	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/node"
	"fdgrid/internal/rbcast"
	"fdgrid/internal/sim"
)

// Message tags of the upper wheel, interned once at package load.
var (
	tagInquiry  = sim.Intern("wheel.inquiry")
	tagResponse = sim.Intern("wheel.response")
	tagLMove    = sim.Intern("wheel.lmove")
)

type inquiryMsg struct {
	Seq int
}

type responseMsg struct {
	Seq  int
	Repr ids.ProcID
}

type lMoveMsg struct {
	Pos ids.LYPos
}

// UpperWheel is the paper's Fig. 6 component. Combined with the lower
// wheel's representatives and a ◇φ_y querier, all processes scan the
// common ring of (L, Y) pairs — Y over the (t−y+1)-subsets of Π, L over
// the z-subsets of Y, z = t+2−x−y — until they rest on a pair where
// every response from a live member of Y carries an identity inside L
// (Fig. 7), or where query(Y) establishes that Y has entirely crashed.
// The exposed trusted set then satisfies Ω_z (Theorem 7).
//
// Task T1's forever loop (inquire → wait → maybe l_move) runs as a state
// machine inside Poll; inquiry rounds are paced so the network keeps up
// (a legal scheduling choice — inquiries still happen infinitely often).
type UpperWheel struct {
	env   *sim.Env
	rb    *rbcast.Layer
	q     fd.Querier
	hint  fd.ChangeHinted // q's, resolved once
	lower *LowerWheel

	ring        *ids.LYRing
	buffered    moveBuffer[ids.LYPos]
	seq         int
	responses   []ids.ProcID // index by responder; ids.None = none this round
	waiting     bool
	lastInquiry sim.Time
	gap         sim.Time
	lmoves      int

	pos ids.LYPos

	// The querier's view of the current position, kept until the
	// querier's next change or the wheel's next move (viewTill 0: none
	// yet): query(Y_i) and the T4 output derived from it. Both read only
	// the position and the querier's answers at the current tick, which
	// are constant on the querier's change window.
	yCrashed bool
	trusted  ids.Set
	viewTill sim.Time
}

var _ node.Layer = (*UpperWheel)(nil)

// NewUpperWheel builds the upper-wheel layer of one process. x, y are
// the scope parameters of the underlying ◇S_x and ◇φ_y oracles; the
// produced leader-set size is z = t+2−x−y. Constraints (paper §4):
// 1 ≤ x, 0 ≤ y ≤ t, x+y ≤ t+1.
func NewUpperWheel(env *sim.Env, rb *rbcast.Layer, q fd.Querier, lower *LowerWheel, x, y int) *UpperWheel {
	n, t := env.N(), env.T()
	z := t + 2 - x - y
	if x < 1 || x > n || y < 0 || y > t || z < 1 {
		panic(fmt.Sprintf("reduction: upper wheel invalid parameters n=%d t=%d x=%d y=%d (z=%d)", n, t, x, y, z))
	}
	ySize := t - y + 1
	w := &UpperWheel{
		env:         env,
		rb:          rb,
		q:           q,
		hint:        fd.HintOf(q),
		lower:       lower,
		ring:        ids.NewLYRing(n, ySize, z),
		responses:   make([]ids.ProcID, n+1),
		gap:         sim.Time(4 * n),
		lastInquiry: -1 << 30,
	}
	for i := range w.responses {
		w.responses[i] = ids.None
	}
	w.pos = w.ring.Current()
	return w
}

// Z returns the produced leader-set size z = t+2−x−y.
func (w *UpperWheel) Z() int { return w.ring.Current().L.Size() }

// Pos returns the current ring position (diagnostics, tests).
func (w *UpperWheel) Pos() ids.LYPos {
	return w.pos
}

// LMoves returns how many l_move messages this process has consumed.
func (w *UpperWheel) LMoves() int {
	return w.lmoves
}

// Trusted returns the Ω_z output (task T4): if query(Y_i) says the
// whole candidate region crashed, the smallest provably-live process
// outside Y_i; otherwise the current leader-set candidate L_i. Run-token
// owned, like all emulated outputs.
func (w *UpperWheel) Trusted() ids.Set {
	w.view()
	return w.trusted
}

// queryY returns query(Y_i) at the current tick.
func (w *UpperWheel) queryY() bool {
	w.view()
	return w.yCrashed
}

// view brings yCrashed and trusted up to date with the current tick.
func (w *UpperWheel) view() {
	now := w.env.Now()
	if now < w.viewTill {
		return
	}
	w.viewTill = w.hint.NextChange(now)
	pos := w.pos
	me := w.env.ID()
	w.yCrashed = w.q.Query(me, pos.Y)
	w.trusted = pos.L
	if !w.yCrashed {
		return
	}
	// All of Y_i crashed: at most t−y+1 of the ≤ t crashes are inside
	// Y_i, so querying Y_i ∪ {j} stays within the informative region and
	// returns false exactly when j is alive.
	w.trusted = ids.EmptySet() // unreachable while crashes ≤ t
	for j := 1; j <= w.env.N(); j++ {
		id := ids.ProcID(j)
		if pos.Y.Contains(id) {
			continue
		}
		if !w.q.Query(me, pos.Y.Add(id)) {
			w.trusted = ids.NewSet(id)
			return
		}
	}
}

// NextWake implements node.WakeHinter: between inquiry rounds the wheel
// sleeps until the pacing gap elapses; while waiting for responses it
// only needs a pure time wake when the querier's answer to query(Y_i)
// can change (responses themselves arrive as messages).
func (w *UpperWheel) NextWake(now sim.Time) sim.Time {
	if !w.waiting {
		return w.lastInquiry + w.gap
	}
	return w.hint.NextChange(now)
}

// Handle implements node.Layer.
func (w *UpperWheel) Handle(m *sim.Message) bool {
	switch m.Tag {
	case tagInquiry:
		iq, ok := m.Payload.(inquiryMsg)
		if !ok {
			panic(fmt.Sprintf("reduction: inquiry payload %T", m.Payload))
		}
		// Task T3: answer with the lower wheel's current representative.
		w.env.Send(m.From, tagResponse, responseMsg{Seq: iq.Seq, Repr: w.lower.Repr()})
		return false
	case tagResponse:
		rp, ok := m.Payload.(responseMsg)
		if !ok {
			panic(fmt.Sprintf("reduction: response payload %T", m.Payload))
		}
		if rp.Seq == w.seq {
			w.responses[m.From] = rp.Repr
		}
		return false
	case tagLMove:
		mv, ok := m.Payload.(lMoveMsg)
		if !ok {
			panic(fmt.Sprintf("reduction: l_move payload %T", m.Payload))
		}
		w.buffered.add(mv.Pos, w.pos)
		return false
	default:
		return true
	}
}

// Poll implements node.Layer: consume matching l_moves (task T2), then
// advance task T1's inquire/wait state machine.
func (w *UpperWheel) Poll() {
	moved := false
	for w.buffered.take() {
		from := w.pos
		w.ring.Next()
		w.pos = w.ring.Current()
		w.buffered.moved(from, w.pos)
		w.lmoves++
		moved = true
	}
	if moved {
		w.viewTill = 0
		// The upper wheel's position has no single leader; trace the
		// candidate leader set L and leave the leader slot 0.
		w.env.Trace().Wheel(int64(w.env.Now()), int(w.env.ID()), "upper",
			0, w.pos.L, w.lmoves)
	}
	pos := w.pos

	if !w.waiting {
		now := w.env.Now()
		if now-w.lastInquiry < w.gap {
			return
		}
		w.seq++
		for i := range w.responses {
			w.responses[i] = ids.None
		}
		w.waiting = true
		w.lastInquiry = now
		w.env.Broadcast(tagInquiry, inquiryMsg{Seq: w.seq})
		return
	}

	// Waiting (line 03): exit on a response from a member of the current
	// Y_i, or on query(Y_i) = true. Y_i may have changed during the wait.
	var recFrom ids.Set
	gotResponder := false
	for from := 1; from < len(w.responses); from++ {
		repr := w.responses[from]
		if repr != ids.None && pos.Y.Contains(ids.ProcID(from)) {
			gotResponder = true
			recFrom = recFrom.Add(repr)
		}
	}
	if !gotResponder && !w.queryY() {
		return // keep waiting
	}
	// Lines 04-06: move on if responses arrived and none exhibits a
	// representative inside L_i.
	if !recFrom.IsEmpty() && !recFrom.Intersects(pos.L) {
		w.rb.Broadcast(tagLMove, lMoveMsg{Pos: pos})
	}
	w.waiting = false
}
