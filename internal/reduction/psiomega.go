package reduction

import (
	"fmt"

	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

// PsiOmega is the paper's Appendix A construction (Fig. 8): a failure
// detector of class Ω_z built from one of class Ψ_y, provided y+z > t.
//
// All processes share a fixed chain Y[1] ⊂ Y[2] ⊂ … with |Y[1]| = z and
// |Y[m+1]| = |Y[m]|+1 up to Π, so all queries satisfy Ψ's containment
// contract. trusted is Y[k] ∖ Y[k−1] for the first k whose query returns
// false: the sets below k have entirely crashed, and the first surviving
// difference — eventually a single live process, or Y[1] itself —
// stabilizes to a set of at most z processes containing a correct one
// (Theorem 13).
//
// No messages are exchanged: the transformation is local to each process.
type PsiOmega struct {
	q     fd.Querier
	chain []ids.Set
	z     int
}

var (
	_ fd.Leader       = (*PsiOmega)(nil)
	_ fd.ChangeHinted = (*PsiOmega)(nil)
)

// NewPsiOmega builds the transformation for a system of n processes with
// resilience t. It panics unless 1 ≤ z ≤ n and y+z > t (the paper's
// requirement: the first chain set must already be informative).
func NewPsiOmega(n, t, y, z int, q fd.Querier) *PsiOmega {
	if z < 1 || z > n {
		panic(fmt.Sprintf("reduction: PsiOmega z=%d out of range 1..%d", z, n))
	}
	if y+z <= t {
		panic(fmt.Sprintf("reduction: PsiOmega requires y+z > t, got y=%d z=%d t=%d", y, z, t))
	}
	chain := make([]ids.Set, 0, n-z+1)
	for m := z; m <= n; m++ {
		chain = append(chain, ids.FullSet(m))
	}
	return &PsiOmega{q: q, chain: chain, z: z}
}

// Z returns the produced leader-set size bound.
func (po *PsiOmega) Z() int { return po.z }

// NextChange implements fd.ChangeHinted: Trusted is a pure function of
// the querier's answers at the current tick, so it can change only when
// they can.
func (po *PsiOmega) NextChange(now sim.Time) sim.Time {
	return fd.NextChangeOf(po.q, now)
}

// Trusted implements fd.Leader.
func (po *PsiOmega) Trusted(p ids.ProcID) ids.Set {
	for m, y := range po.chain {
		if po.q.Query(p, y) {
			continue
		}
		if m == 0 {
			return y
		}
		return y.Minus(po.chain[m-1])
	}
	// Unreachable in a legal run: the last chain set is Π with |Π| = n > t,
	// whose query is trivially false.
	return ids.EmptySet()
}
