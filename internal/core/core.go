// Package core is the repository's top-level model of the paper's
// contribution: the grid of failure detector classes (paper Fig. 1), the
// reducibility / irreducibility / additivity relations among them
// (Theorems 5–14), and executable constructions wiring any grid class to
// the k-set agreement algorithm through the transformations of
// internal/reduction.
package core

import (
	"fmt"

	"fdgrid/internal/agreement"
	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/node"
	"fdgrid/internal/rbcast"
	"fdgrid/internal/reduction"
	"fdgrid/internal/sim"
)

// Family enumerates the failure detector families the paper studies.
type Family int

// The families. Perpetual classes (S_x, φ_y, Ψ_y) constrain behaviour
// from the start; eventual classes (◇S_x, Ω_z, ◇φ_y) only after an
// unknown finite time.
const (
	FamS      Family = iota + 1 // S_x: perpetual limited-scope accuracy
	FamEvtS                     // ◇S_x
	FamOmega                    // Ω_z: eventual multiple leadership
	FamPhi                      // φ_y: perpetual-safety crash queries
	FamEvtPhi                   // ◇φ_y
	FamPsi                      // Ψ_y: φ_y under the containment contract
)

// String implements fmt.Stringer.
func (f Family) String() string {
	switch f {
	case FamS:
		return "S"
	case FamEvtS:
		return "<>S"
	case FamOmega:
		return "Omega"
	case FamPhi:
		return "phi"
	case FamEvtPhi:
		return "<>phi"
	case FamPsi:
		return "Psi"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Class is one failure detector class: a family and its scope parameter
// (x for S-families, y for φ-families, z for Ω).
type Class struct {
	Fam   Family
	Param int
}

// String renders the class in the paper's notation, ASCII-ized.
func (c Class) String() string {
	return fmt.Sprintf("%s_%d", c.Fam, c.Param)
}

// KSetPower returns the smallest k for which the class solves k-set
// agreement in AS[n,t] with t < n/2 — the class's line in the paper's
// Fig. 1 grid (clamped at 1 = consensus, and at t+1, which asynchronous
// systems reach with no oracle at all).
func KSetPower(c Class, t int) int {
	var k int
	switch c.Fam {
	case FamS, FamEvtS:
		k = t - c.Param + 2 // line z holds S_{t−z+2} (Herlihy & Penso bound)
	case FamOmega:
		k = c.Param // Theorem 5: z ≤ k necessary and sufficient
	case FamPhi, FamEvtPhi, FamPsi:
		k = t - c.Param + 1 // line z holds φ_{t−z+1}
	default:
		panic(fmt.Sprintf("core: unknown family %v", c.Fam))
	}
	if k < 1 {
		k = 1
	}
	if k > t+1 {
		k = t + 1
	}
	return k
}

// GridLine returns the classes on line z of the paper's Fig. 1 grid for
// resilience t: {S_{t−z+2}, ◇S_{t−z+2}, Ω_z, φ_{t−z+1}, ◇φ_{t−z+1},
// Ψ_{t−z+1}}, all of which solve z-set agreement; Ω_z is the weakest.
func GridLine(z, t int) []Class {
	if z < 1 || z > t+1 {
		panic(fmt.Sprintf("core: grid line z=%d out of range 1..%d", z, t+1))
	}
	return []Class{
		{Fam: FamS, Param: t - z + 2},
		{Fam: FamEvtS, Param: t - z + 2},
		{Fam: FamOmega, Param: z},
		{Fam: FamPhi, Param: t - z + 1},
		{Fam: FamEvtPhi, Param: t - z + 1},
		{Fam: FamPsi, Param: t - z + 1},
	}
}

// Verdict is the answer of CanTransform: whether a transformation
// algorithm exists, and which result of the paper decides it.
type Verdict struct {
	OK     bool
	Reason string
}

// CanTransform reports whether a failure detector of class `to` can be
// built in AS[n,t] from failure detectors of the classes `from`
// (one or two sources), per the paper's results. Combinations outside
// the paper's coverage return OK=false with an explanatory reason.
func CanTransform(from []Class, to Class, t int) Verdict {
	switch len(from) {
	case 1:
		return canTransform1(from[0], to, t)
	case 2:
		return canAdd(from[0], from[1], to, t)
	default:
		return Verdict{false, "only 1- and 2-source transformations are modeled"}
	}
}

func canTransform1(a, to Class, t int) Verdict {
	// Intra-family weakenings.
	if a.Fam == to.Fam {
		switch a.Fam {
		case FamOmega:
			if to.Param >= a.Param {
				return Verdict{true, "Omega_z implies Omega_z' for z' >= z"}
			}
			return Verdict{false, "cannot shrink an Omega leader set"}
		default:
			if to.Param <= a.Param {
				return Verdict{true, "scope weakening within a family"}
			}
			return Verdict{false, "cannot enlarge a scope parameter"}
		}
	}
	// Perpetual → eventual counterpart, and the Ψ/φ relations.
	if a.Fam == FamS && to.Fam == FamEvtS && to.Param <= a.Param {
		return Verdict{true, "S_x is a subclass of <>S_x"}
	}
	if a.Fam == FamPhi && to.Fam == FamEvtPhi && to.Param <= a.Param {
		return Verdict{true, "phi_y is a subclass of <>phi_y"}
	}
	if a.Fam == FamPhi && to.Fam == FamPsi && to.Param <= a.Param {
		return Verdict{true, "restricting queries to a chain uses phi_y as Psi_y"}
	}

	switch {
	case to.Fam == FamOmega && (a.Fam == FamS || a.Fam == FamEvtS):
		// Corollary 7: possible iff x+z > t+1.
		if a.Param+to.Param > t+1 {
			return Verdict{true, "Corollary 7: x+z > t+1 (two wheels, y=0)"}
		}
		return Verdict{false, "Corollary 7: requires x+z > t+1"}
	case to.Fam == FamOmega && (a.Fam == FamPhi || a.Fam == FamEvtPhi || a.Fam == FamPsi):
		// Corollary 6 / Theorem 13: possible iff y+z > t.
		if a.Param+to.Param > t {
			return Verdict{true, "Corollary 6: y+z > t (two wheels x=1, or Fig. 8 for Psi)"}
		}
		return Verdict{false, "Corollary 6: requires y+z > t"}
	case (to.Fam == FamPhi || to.Fam == FamEvtPhi || to.Fam == FamPsi) && (a.Fam == FamS || a.Fam == FamEvtS):
		if to.Param == 0 {
			return Verdict{true, "phi_0 carries no information"}
		}
		return Verdict{false, "Theorem 9: no S_x/<>S_x yields (even eventual) region safety"}
	case (to.Fam == FamS || to.Fam == FamEvtS) && (a.Fam == FamPhi || a.Fam == FamEvtPhi || a.Fam == FamPsi):
		if to.Param <= 1 {
			return Verdict{true, "S_1/<>S_1 carries no information"}
		}
		return Verdict{false, "Theorem 10: query oracles cannot provide scoped accuracy"}
	case (to.Fam == FamPhi || to.Fam == FamEvtPhi || to.Fam == FamPsi) && a.Fam == FamOmega:
		if to.Param == 0 {
			return Verdict{true, "phi_0 carries no information"}
		}
		return Verdict{false, "Theorem 11: Omega_z gives no (eventual) region safety"}
	case (to.Fam == FamS || to.Fam == FamEvtS) && a.Fam == FamOmega:
		if to.Param <= 1 {
			return Verdict{true, "S_1/<>S_1 carries no information"}
		}
		return Verdict{false, "Theorem 12: Omega_z gives no scoped accuracy"}
	}
	return Verdict{false, "combination not covered by the paper"}
}

// canAdd decides two-source additions.
func canAdd(a, b, to Class, t int) Verdict {
	// Normalize: suspector first, querier second.
	if a.Fam == FamPhi || a.Fam == FamEvtPhi || a.Fam == FamPsi {
		a, b = b, a
	}
	sIsS := a.Fam == FamS || a.Fam == FamEvtS
	qIsPhi := b.Fam == FamPhi || b.Fam == FamEvtPhi || b.Fam == FamPsi
	if !sIsS || !qIsPhi {
		// Not the paper's addition shape: either source alone may do.
		if v := canTransform1(a, to, t); v.OK {
			return v
		}
		return canTransform1(b, to, t)
	}
	x, y := a.Param, b.Param
	switch to.Fam {
	case FamOmega:
		// Theorem 8: ◇S_x + ◇φ_y ⇝ Ω_z iff x+y+z > t+1.
		if x+y+to.Param > t+1 {
			return Verdict{true, "Theorem 8: x+y+z >= t+2 (the two-wheels addition)"}
		}
		return Verdict{false, "Theorem 8: requires x+y+z >= t+2"}
	case FamS, FamEvtS:
		// Appendix B: S_x + φ_y → S_n iff x+y > t; the perpetual output
		// needs perpetual inputs.
		perpetualIn := a.Fam == FamS && (b.Fam == FamPhi || b.Fam == FamPsi)
		if to.Fam == FamS && !perpetualIn {
			return Verdict{false, "perpetual S_n cannot come from eventual inputs"}
		}
		if x+y > t {
			return Verdict{true, "Appendix B: x+y > t (Fig. 9 addition)"}
		}
		return Verdict{false, "Appendix B: requires x+y > t"}
	}
	return Verdict{false, "combination not covered by the paper"}
}

// SpawnKSetWith wires a complete k-set agreement run in which every
// process consults a ground-truth oracle of class c, routed through the
// transformations the paper prescribes for c's grid line:
//
//	Ω_z        → the Fig. 3 algorithm directly;
//	S_x, ◇S_x  → two wheels with y=0 (Corollary 7), then Fig. 3;
//	φ_y, ◇φ_y  → two wheels with x=1 (Corollary 6), then Fig. 3;
//	Ψ_y        → the Fig. 8 chain construction, then Fig. 3.
//
// proposals[p] is process p's proposal (default: p's id). The returned
// Outcome collects decisions; drive sys.Run(out.AllDecided(...)) and
// Check against k = KSetPower(c, t).
func SpawnKSetWith(sys *sim.System, c Class, proposals map[ids.ProcID]agreement.Value) (*agreement.Outcome, error) {
	n, t := sys.Config().N, sys.Config().T
	if 2*t >= n {
		return nil, fmt.Errorf("core: k-set agreement requires t < n/2, got n=%d t=%d", n, t)
	}
	out := agreement.NewOutcome()
	valueOf := func(p ids.ProcID) agreement.Value {
		if v, ok := proposals[p]; ok {
			return v
		}
		return agreement.Value(int(p))
	}

	switch c.Fam {
	case FamOmega:
		if c.Param < 1 || c.Param > n {
			return nil, fmt.Errorf("core: %v parameter out of range", c)
		}
		oracle := fd.NewOmega(sys, c.Param)
		for p := 1; p <= n; p++ {
			id := ids.ProcID(p)
			sys.Spawn(id, agreement.KSetMain(oracle, valueOf(id), out))
		}
	case FamS, FamEvtS:
		if c.Param < 1 || c.Param > n {
			return nil, fmt.Errorf("core: %v parameter out of range", c)
		}
		// Effective scope: x > t+1 adds nothing over x = t+1 (z stays 1).
		x := c.Param
		if x > t+1 {
			x = t + 1
		}
		var susp fd.Suspector
		if c.Fam == FamS {
			susp = fd.NewS(sys, c.Param)
		} else {
			susp = fd.NewEvtS(sys, c.Param)
		}
		quer := fd.NewPhi(sys, 0) // φ_0: no information, trivial answers
		spawnStacked(sys, susp, quer, x, 0, valueOf, out)
	case FamPhi, FamEvtPhi:
		if c.Param < 0 || c.Param > t {
			return nil, fmt.Errorf("core: %v parameter out of range 0..t for stacking", c)
		}
		var quer fd.Querier
		if c.Fam == FamPhi {
			quer = fd.NewPhi(sys, c.Param)
		} else {
			quer = fd.NewEvtPhi(sys, c.Param)
		}
		susp := fd.NewEvtS(sys, 1) // ◇S_1: no information
		spawnStacked(sys, susp, quer, 1, c.Param, valueOf, out)
	case FamPsi:
		if c.Param < 0 || c.Param > t {
			return nil, fmt.Errorf("core: %v parameter out of range 0..t", c)
		}
		z := t + 1 - c.Param
		if z < 1 {
			z = 1
		}
		psi := fd.WrapPsi(fd.NewPhi(sys, c.Param))
		leader := reduction.NewPsiOmega(n, t, c.Param, z, psi)
		for p := 1; p <= n; p++ {
			id := ids.ProcID(p)
			sys.Spawn(id, agreement.KSetMain(leader, valueOf(id), out))
		}
	default:
		return nil, fmt.Errorf("core: unknown family %v", c.Fam)
	}
	return out, nil
}

// spawnStacked wires the two-wheels transformation under the k-set
// algorithm on every process.
func spawnStacked(sys *sim.System, susp fd.Suspector, quer fd.Querier, x, y int,
	valueOf func(ids.ProcID) agreement.Value, out *agreement.Outcome) {
	emu := reduction.NewOmegaEmulation(quer)
	n := sys.Config().N
	for p := 1; p <= n; p++ {
		id := ids.ProcID(p)
		sys.Spawn(id, func(env *sim.Env) {
			rb := rbcast.New(env)
			lower, upper := reduction.InstallTwoWheels(env, rb, susp, quer, x, y, emu, nil)
			nd := node.New(env, rb, lower, upper)
			agreement.KSet(nd, rb, emu, valueOf(env.ID()), out)
			nd.RunForever()
		})
	}
}
