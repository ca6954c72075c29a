package reduction

import (
	"fmt"

	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/node"
	"fdgrid/internal/rbcast"
	"fdgrid/internal/sim"
)

// SingleWheelOmega is the quiescent, reliable-broadcast-based ◇S → Ω
// transformation the paper cites as its companion report [17]
// ("From ◇W to Ω: a simple bounded quiescent reliable-broadcast-based
// transformation"). It is the degenerate lower wheel with X = Π fixed:
// the ring reduces to the candidate sequence 1, 2, …, n, 1, …, and all
// processes advance together past suspected candidates until they rest
// on the eventually-never-suspected correct process — whose singleton is
// exactly an Ω (= Ω_1) output.
//
// It requires the full accuracy scope (◇S = ◇S_n): with a smaller
// scope, processes outside the protected set may push the wheel past
// the good candidate forever. Compare with the two-wheels construction,
// which buys Ω_1 from ◇S_{t+1} at the cost of a second, non-quiescent
// component — an ablation the benchmarks measure.
type SingleWheelOmega struct {
	env  *sim.Env
	rb   *rbcast.Layer
	susp fd.Suspector

	buffered      moveBuffer[ids.ProcID]
	sentThisVisit bool

	candidate ids.ProcID
	moves     int
}

var _ node.Layer = (*SingleWheelOmega)(nil)

// tagCMove is the single wheel's R-broadcast move message.
var tagCMove = sim.Intern("wheel.cmove")

type cMoveMsg struct {
	Candidate ids.ProcID
}

// NewSingleWheelOmega builds the layer for one process.
func NewSingleWheelOmega(env *sim.Env, rb *rbcast.Layer, susp fd.Suspector) *SingleWheelOmega {
	return &SingleWheelOmega{
		env:       env,
		rb:        rb,
		susp:      susp,
		candidate: 1,
	}
}

// Trusted returns the emulated Ω output: the current candidate leader
// as a singleton. Run-token owned, like all emulated outputs.
func (w *SingleWheelOmega) Trusted() ids.Set {
	return ids.NewSet(w.candidate)
}

// Moves returns how many c_move messages this process consumed.
func (w *SingleWheelOmega) Moves() int {
	return w.moves
}

// Handle implements node.Layer.
func (w *SingleWheelOmega) Handle(m *sim.Message) bool {
	if m.Tag != tagCMove {
		return true
	}
	mv, ok := m.Payload.(cMoveMsg)
	if !ok {
		panic(fmt.Sprintf("reduction: c_move payload %T", m.Payload))
	}
	w.buffered.add(mv.Candidate, w.candidate)
	return false
}

// Poll implements node.Layer: consume matching moves, then suspect-check
// the current candidate (one broadcast per visit).
func (w *SingleWheelOmega) Poll() {
	n := ids.ProcID(w.env.N())
	for w.buffered.take() {
		from := w.candidate
		w.candidate++
		if w.candidate > n {
			w.candidate = 1
		}
		w.buffered.moved(from, w.candidate)
		w.sentThisVisit = false
		w.moves++
	}
	cand := w.candidate
	shouldSend := !w.sentThisVisit && w.susp.Suspected(w.env.ID()).Contains(cand)
	if shouldSend {
		w.sentThisVisit = true
	}

	if shouldSend {
		w.rb.Broadcast(tagCMove, cMoveMsg{Candidate: cand})
	}
}

// SingleWheelEmulation aggregates per-process single wheels into an
// fd.Leader of class Ω (= Ω_1).
type SingleWheelEmulation struct {
	wheels procTable[*SingleWheelOmega]
}

var _ fd.Leader = (*SingleWheelEmulation)(nil)

// NewSingleWheelEmulation returns an empty aggregator.
func NewSingleWheelEmulation() *SingleWheelEmulation {
	return &SingleWheelEmulation{}
}

// Register binds process p's wheel.
func (e *SingleWheelEmulation) Register(p ids.ProcID, w *SingleWheelOmega) {
	e.wheels.set(p, w)
}

// Trusted implements fd.Leader.
func (e *SingleWheelEmulation) Trusted(p ids.ProcID) ids.Set {
	w := e.wheels.get(p)
	if w == nil {
		return ids.EmptySet()
	}
	return w.Trusted()
}

// SpawnSingleWheel runs the transformation alone on every process,
// returning the emulated Ω.
func SpawnSingleWheel(sys *sim.System, susp fd.Suspector) *SingleWheelEmulation {
	emu := NewSingleWheelEmulation()
	sys.SpawnAll(func(env *sim.Env) {
		rb := rbcast.New(env)
		w := NewSingleWheelOmega(env, rb, susp)
		emu.Register(env.ID(), w)
		node.New(env, rb, w).RunForever()
	})
	return emu
}
