package fd

import (
	"fmt"

	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

// Omega is a ground-truth oracle of class Ω_z (eventual multiple
// leadership): after stabilization every correct process reads the same
// trusted set of at most z processes, containing at least one correct
// process. Before stabilization each process reads an arbitrary
// pseudo-random set of at most z processes, changing every epoch.
//
// Hostile detail: the final set may contain up to z−1 crashed processes —
// the class allows it, and the k-set agreement algorithm must cope.
type Omega struct {
	sys   *sim.System
	z     int
	opt   options
	stab  sim.Time
	final ids.Set

	// win and out memoize the change-hint window and each reader's
	// output within it, as in Suspect.
	win window
	out []output
}

var _ Leader = (*Omega)(nil)

// NewOmega returns an Ω_z oracle. It panics if z ∉ 1..n or a pinned
// trusted set is inconsistent; oracle parameters are test/bench inputs.
func NewOmega(sys *sim.System, z int, opts ...Option) *Omega {
	n := sys.Config().N
	if z < 1 || z > n {
		panic(fmt.Sprintf("fd: Ω_z with z=%d out of range 1..%d", z, n))
	}
	o := defaultOptions(sys)
	for _, fn := range opts {
		fn(&o)
	}
	w := &Omega{sys: sys, z: z, opt: o, stab: o.stab(sys), out: make([]output, n+1)}
	w.final = drawTrusted(sys, z, o)
	return w
}

func drawTrusted(sys *sim.System, z int, o options) ids.Set {
	correct := sys.Pattern().Correct()
	if correct.IsEmpty() {
		panic("fd: no correct process in the failure pattern")
	}
	if !o.trustedHint.IsEmpty() {
		if o.trustedHint.Size() > z {
			panic(fmt.Sprintf("fd: pinned trusted set %v exceeds z=%d", o.trustedHint, z))
		}
		if !o.trustedHint.Intersects(correct) {
			panic(fmt.Sprintf("fd: pinned trusted set %v has no correct process", o.trustedHint))
		}
		return o.trustedHint
	}
	leader := o.leaderHint
	if leader == ids.None {
		members := correct.Members()
		leader = members[boundedDraw(len(members), uint64(sys.Config().Seed), o.leaderSalt, 0x61)]
	} else if sys.Pattern().CrashTime(leader) != sim.Never {
		panic(fmt.Sprintf("fd: pinned leader %v is faulty in this pattern", leader))
	}
	salt := mix(uint64(sys.Config().Seed), o.leaderSalt, 0x62)
	return pickDistinct(ids.NewSet(leader), ids.FullSet(sys.Config().N), z-1, salt)
}

// Z returns the size bound z.
func (w *Omega) Z() int { return w.z }

// Final returns the post-stabilization trusted set.
func (w *Omega) Final() ids.Set { return w.final }

// Trusted returns trusted_p at the current time.
func (w *Omega) Trusted(p ids.ProcID) ids.Set {
	now := w.sys.Now()
	win := w.window(now)
	o := &w.out[p]
	if !o.in(win) {
		*o = output{from: win.from, till: win.till, set: w.trusted(p, now)}
	}
	return o.set
}

// trusted computes trusted_p at now.
func (w *Omega) trusted(p ids.ProcID, now sim.Time) ids.Set {
	if w.sys.Pattern().Crashed(p, now) {
		return ids.EmptySet()
	}
	if now >= w.stab {
		return w.final
	}
	// Anarchy: an arbitrary set of at most z processes, per process and
	// per epoch.
	epoch := epochOf(now, w.opt.epoch)
	n := w.sys.Config().N
	seed := uint64(w.sys.Config().Seed)
	size := boundedDraw(w.z+1, seed, 0x63, uint64(p), epoch, w.opt.leaderSalt)
	return pickDistinct(ids.EmptySet(), ids.FullSet(n), size,
		mix(seed, 0x64, uint64(p), epoch, w.opt.leaderSalt))
}
