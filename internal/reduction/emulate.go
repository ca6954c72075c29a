package reduction

import (
	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/node"
	"fdgrid/internal/rbcast"
	"fdgrid/internal/sim"
)

// OmegaEmulation aggregates per-process upper wheels into a failure
// detector of class Ω_z readable through the fd.Leader interface — the
// "output" of the two-wheels transformation. Wheels register as their
// processes start; an unregistered process reads the empty set (it has
// taken no step yet). A process's output changes with its wheel's
// position, which the change marks record (registration and every
// move), and with the querier's answers, on the querier's hint ticks.
type OmegaEmulation struct {
	hint   fd.ChangeHinted // the querier's, resolved once
	wheels procTable[*UpperWheel]
	marks  fd.Marks
}

var (
	_ fd.Leader       = (*OmegaEmulation)(nil)
	_ fd.ChangeMarked = (*OmegaEmulation)(nil)
)

// NewOmegaEmulation returns an empty aggregator for upper wheels that
// consult querier q.
func NewOmegaEmulation(q fd.Querier) *OmegaEmulation {
	return &OmegaEmulation{hint: fd.HintOf(q)}
}

// Register binds process p's upper wheel.
func (e *OmegaEmulation) Register(p ids.ProcID, w *UpperWheel) {
	e.wheels.set(p, w)
	w.marks = &e.marks
	e.marks.Mark(p)
}

// ChangeMarks implements fd.ChangeMarked.
func (e *OmegaEmulation) ChangeMarks() *fd.Marks { return &e.marks }

// NextChange implements fd.ChangeHinted: wheel positions change only when
// a host process takes a step, and the exposed Trusted value otherwise
// changes only with the querier's answers, which it consults live — so
// the querier's hint is the emulation's.
func (e *OmegaEmulation) NextChange(now sim.Time) sim.Time {
	return e.hint.NextChange(now)
}

// Trusted implements fd.Leader.
func (e *OmegaEmulation) Trusted(p ids.ProcID) ids.Set {
	w := e.wheels.get(p)
	if w == nil {
		return ids.EmptySet()
	}
	return w.Trusted()
}

// ReprView aggregates per-process lower wheels, exposing the emulated
// representatives of Theorem 6. At x = n every process is in X, so each
// representative is the position's leader, and the view read as an
// fd.Leader, {Repr(p)}, is the Ω (= Ω_1) output of the companion
// quiescent ◇S → Ω transformation the paper cites [17] ("From ◇W to Ω:
// a simple bounded quiescent reliable-broadcast-based transformation"):
// the ring reduces to the candidates 1, 2, …, n, and all processes
// advance together past suspected candidates until they rest on the
// eventually-never-suspected correct process. It needs the full
// accuracy scope ◇S = ◇S_n; compare the two-wheels construction, which
// buys Ω_1 from ◇S_{t+1} with a second, non-quiescent wheel.
type ReprView struct {
	wheels procTable[*LowerWheel]
}

var (
	_ fd.Leader       = (*ReprView)(nil)
	_ fd.ChangeHinted = (*ReprView)(nil)
)

// NewReprView returns an empty aggregator.
func NewReprView() *ReprView {
	return &ReprView{}
}

// Register binds process p's lower wheel.
func (v *ReprView) Register(p ids.ProcID, w *LowerWheel) {
	v.wheels.set(p, w)
}

// Repr returns process p's current representative (p itself before the
// process registered).
func (v *ReprView) Repr(p ids.ProcID) ids.ProcID {
	w := v.wheels.get(p)
	if w == nil {
		return p
	}
	return w.Repr()
}

// Trusted implements fd.Leader: process p's representative as a
// singleton, the Ω output of the wheel at x = n.
func (v *ReprView) Trusted(p ids.ProcID) ids.Set {
	return ids.NewSet(v.Repr(p))
}

// NextChange implements fd.ChangeHinted: a representative changes only
// when its host process takes a step, never from time passing alone, so
// it schedules no tick.
func (v *ReprView) NextChange(sim.Time) sim.Time { return sim.Never }

// Pos returns process p's current lower-ring position and whether p has
// registered.
func (v *ReprView) Pos(p ids.ProcID) (ids.XPos, bool) {
	w := v.wheels.get(p)
	if w == nil {
		return ids.XPos{}, false
	}
	return w.Pos(), true
}

// procTable is a per-process table indexed by process id, as the
// emulations register their processes' layers: it grows on set, and get
// reads the zero value for a process that never registered.
type procTable[T any] []T

func (t *procTable[T]) set(p ids.ProcID, v T) {
	if int(p) >= len(*t) {
		*t = append(*t, make([]T, int(p)+1-len(*t))...)
	}
	(*t)[p] = v
}

func (t procTable[T]) get(p ids.ProcID) (v T) {
	if p >= 0 && int(p) < len(t) {
		v = t[p]
	}
	return v
}

// InstallTwoWheels builds the full ◇S_x + ◇φ_y → Ω_z stack for one
// process on top of an existing rbcast layer, registering the outputs
// with the given aggregators (either may be nil). It returns the layers
// to be pushed onto the process's node, bottom-up.
func InstallTwoWheels(env *sim.Env, rb *rbcast.Layer, susp fd.Suspector, q fd.Querier,
	x, y int, emu *OmegaEmulation, reprs *ReprView) (*LowerWheel, *UpperWheel) {
	lower := NewLowerWheel(env, rb, susp, x)
	upper := NewUpperWheel(env, rb, q, lower, x, y)
	if reprs != nil {
		reprs.Register(env.ID(), lower)
	}
	if emu != nil {
		emu.Register(env.ID(), upper)
	}
	return lower, upper
}

// SpawnTwoWheels registers transformation-only mains (no upper-layer
// protocol) on every process of sys, returning the emulated Ω_z and the
// representatives view. Call before sys.Run.
func SpawnTwoWheels(sys *sim.System, susp fd.Suspector, q fd.Querier, x, y int) (*OmegaEmulation, *ReprView) {
	emu := NewOmegaEmulation(q)
	reprs := NewReprView()
	sys.SpawnAll(func(env *sim.Env) {
		rb := rbcast.New(env)
		lower, upper := InstallTwoWheels(env, rb, susp, q, x, y, emu, reprs)
		node.New(env, rb, lower, upper).RunForever()
	})
	return emu, reprs
}

// SpawnLowerWheel registers lower-wheel-only mains on every process
// (for the Fig. 5 experiments, and at x = n for the companion ◇S → Ω
// transformation), returning the representatives view.
func SpawnLowerWheel(sys *sim.System, susp fd.Suspector, x int) *ReprView {
	reprs := NewReprView()
	sys.SpawnAll(func(env *sim.Env) {
		rb := rbcast.New(env)
		lower := NewLowerWheel(env, rb, susp, x)
		reprs.Register(env.ID(), lower)
		node.New(env, rb, lower).RunForever()
	})
	return reprs
}
