package fd

import (
	"fmt"

	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

// Phi is a ground-truth oracle of class φ_y (perpetual safety) or ◇φ_y
// (eventual safety). query(X) asks whether the whole region X has
// crashed:
//
//   - Triviality (perpetual in both classes): |X| ≤ t−y ⇒ true,
//     |X| > t ⇒ false.
//   - Safety: in the informative region t−y < |X| ≤ t, true only if every
//     process of X has crashed — from the start for φ_y, eventually for
//     ◇φ_y (before stabilization a ◇φ_y answers arbitrarily).
//   - Liveness: once all of X crashed, queries eventually return true
//     forever (after the configured detection lag).
type Phi struct {
	sys       *sim.System
	y         int
	perpetual bool
	opt       options
	stab      sim.Time

	// win memoizes the change-hint window, whose crashed set turns the
	// post-stabilization AllCrashed scan into one subset test (run-token
	// owned; answers unchanged).
	win window
}

var _ Querier = (*Phi)(nil)

// NewEvtPhi returns a ◇φ_y oracle. It panics if y ∉ 0..n; oracle
// parameters are test/bench inputs.
func NewEvtPhi(sys *sim.System, y int, opts ...Option) *Phi {
	return newPhi(sys, y, false, opts)
}

// NewPhi returns a φ_y oracle (perpetual safety).
func NewPhi(sys *sim.System, y int, opts ...Option) *Phi {
	return newPhi(sys, y, true, opts)
}

// NewP returns a perfect failure detector: the paper notes φ_t ≡ P in
// any system where at most t processes crash.
func NewP(sys *sim.System, opts ...Option) *Phi {
	return NewPhi(sys, sys.Config().T, opts...)
}

// NewEvtP returns an eventually perfect failure detector (◇φ_t ≡ ◇P).
func NewEvtP(sys *sim.System, opts ...Option) *Phi {
	return NewEvtPhi(sys, sys.Config().T, opts...)
}

func newPhi(sys *sim.System, y int, perpetual bool, opts []Option) *Phi {
	n := sys.Config().N
	if y < 0 || y > n {
		panic(fmt.Sprintf("fd: φ_y with y=%d out of range 0..%d", y, n))
	}
	o := defaultOptions(sys)
	for _, fn := range opts {
		fn(&o)
	}
	return &Phi{sys: sys, y: y, perpetual: perpetual, opt: o, stab: o.stab(sys)}
}

// Y returns the scope parameter y.
func (f *Phi) Y() int { return f.y }

// Query implements Querier.
func (f *Phi) Query(p ids.ProcID, x ids.Set) bool {
	t := f.sys.Config().T
	size := x.Size()
	// Triviality holds at all times in both classes.
	if size <= t-f.y {
		return true
	}
	if size > t {
		return false
	}
	now := f.sys.Now()
	if !f.perpetual && now < f.stab {
		// Anarchy: arbitrary answer, stable within an epoch.
		return chance(0.5, uint64(f.sys.Config().Seed), 0x71, uint64(p),
			setKey(x), epochOf(now, f.opt.epoch))
	}
	return x.SubsetOf(f.window(now).crashed)
}
