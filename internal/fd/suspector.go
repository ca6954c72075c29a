package fd

import (
	"fmt"

	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

// Suspect is a ground-truth oracle of class S_x (perpetual limited-scope
// weak accuracy) or ◇S_x (eventual limited-scope weak accuracy), both
// with strong completeness.
//
// The oracle draws a protected pair (leader ℓ, scope Q): ℓ is a correct
// process, |Q| = x, ℓ ∈ Q, and the members of Q never suspect ℓ — from
// the start for S_x, from the stabilization time for ◇S_x. Everything
// else is adversarial: crashed processes are suspected (strong
// completeness), and spurious suspicions of correct processes are drawn
// pseudo-randomly, forever if the oracle is hostile.
type Suspect struct {
	sys       *sim.System
	x         int
	perpetual bool
	opt       options
	stab      sim.Time
	leader    ids.ProcID
	scope     ids.Set

	// win is the change-hint window of the last read, and out each
	// reader's output within it, index by reader id (run-token owned,
	// like all oracle reads — see the internal/sim concurrency
	// contract). By the window invariant (ChangeHinted) an output is
	// constant on its window, so a reader's first read in a window
	// computes it and every later read returns it.
	win window
	out []output
}

var _ Suspector = (*Suspect)(nil)

// NewEvtS returns a ◇S_x oracle. It panics if x ∉ 1..n or if pinned
// hints are inconsistent; oracle parameters are test/bench inputs.
func NewEvtS(sys *sim.System, x int, opts ...Option) *Suspect {
	return newSuspect(sys, x, false, opts)
}

// NewS returns an S_x oracle (perpetual accuracy).
func NewS(sys *sim.System, x int, opts ...Option) *Suspect {
	return newSuspect(sys, x, true, opts)
}

func newSuspect(sys *sim.System, x int, perpetual bool, opts []Option) *Suspect {
	n := sys.Config().N
	if x < 1 || x > n {
		panic(fmt.Sprintf("fd: S_x with x=%d out of range 1..%d", x, n))
	}
	o := defaultOptions(sys)
	for _, fn := range opts {
		fn(&o)
	}
	s := &Suspect{sys: sys, x: x, perpetual: perpetual, opt: o, stab: o.stab(sys),
		out: make([]output, n+1)}
	s.leader, s.scope = drawScope(sys, x, o)
	return s
}

// drawScope picks the protected leader and scope from hints or seed.
func drawScope(sys *sim.System, x int, o options) (ids.ProcID, ids.Set) {
	correct := sys.Pattern().Correct()
	if correct.IsEmpty() {
		panic("fd: no correct process in the failure pattern")
	}
	leader := o.leaderHint
	if leader == ids.None {
		members := correct.Members()
		leader = members[boundedDraw(len(members), uint64(sys.Config().Seed), o.leaderSalt, 0x51)]
	} else if sys.Pattern().CrashTime(leader) != sim.Never {
		panic(fmt.Sprintf("fd: pinned leader %v is faulty in this pattern", leader))
	}
	scope := o.scopeHint
	if scope.IsEmpty() {
		salt := mix(uint64(sys.Config().Seed), o.leaderSalt, 0x52)
		scope = pickDistinct(ids.NewSet(leader), ids.FullSet(sys.Config().N), x-1, salt)
	} else {
		if scope.Size() != x {
			panic(fmt.Sprintf("fd: pinned scope %v has size %d, want x=%d", scope, scope.Size(), x))
		}
		if !scope.Contains(leader) {
			panic(fmt.Sprintf("fd: pinned scope %v does not contain leader %v", scope, leader))
		}
	}
	return leader, scope
}

// Leader returns the correct process the accuracy property protects.
func (s *Suspect) Leader() ids.ProcID { return s.leader }

// Scope returns the protected set Q (|Q| = x, Leader ∈ Q).
func (s *Suspect) Scope() ids.Set { return s.scope }

// X returns the accuracy scope parameter x.
func (s *Suspect) X() int { return s.x }

// Suspected returns suspected_p at the current time: the crashed
// processes (strong completeness, shifted by the detection lag) plus
// the reader's per-epoch spurious draw while anarchy is active, minus
// the reader itself (this oracle never self-suspects — a legal choice)
// and, under the accuracy scope, the protected leader.
func (s *Suspect) Suspected(p ids.ProcID) ids.Set {
	now := s.sys.Now()
	w := s.window(now)
	o := &s.out[p]
	if !o.in(w) {
		*o = output{from: w.from, till: w.till, set: s.suspected(p, now, w)}
	}
	return o.set
}

// suspected computes suspected_p at now, inside window w.
func (s *Suspect) suspected(p ids.ProcID, now sim.Time, w *window) ids.Set {
	if s.sys.Pattern().Crashed(p, now) {
		return ids.EmptySet() // a crashed process suspects no process
	}
	out := w.crashed
	if now < s.stab || s.opt.hostile {
		out = out.Union(s.anarchyDraw(p, epochOf(now, s.opt.epoch)))
	}
	out = out.Remove(p)
	// Limited-scope accuracy: members of Q do not suspect the leader —
	// always for S_x, after stabilization for ◇S_x.
	if s.scope.Contains(p) && (s.perpetual || now >= s.stab) {
		out = out.Remove(s.leader)
	}
	return out
}

// anarchyDraw returns reader p's spurious-suspicion set for an epoch:
// one splitmix chain per process pair.
func (s *Suspect) anarchyDraw(p ids.ProcID, epoch uint64) ids.Set {
	n := s.sys.Config().N
	seed := uint64(s.sys.Config().Seed)
	var set ids.Set
	for q := 1; q <= n; q++ {
		if ids.ProcID(q) == p {
			continue
		}
		if chance(s.opt.anarchyRate, seed, 0xa1, uint64(p), uint64(q), epoch, s.opt.leaderSalt) {
			set = set.Add(ids.ProcID(q))
		}
	}
	return set
}
