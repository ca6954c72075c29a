// Package agreement implements the paper's Ω_z-based k-set agreement
// algorithm (Fig. 3), its ◇S-based consensus ancestor [18] as a
// baseline, and checkers for the agreement problem's three properties:
//
//   - Validity: every decided value was proposed.
//   - k-Agreement: at most k distinct values are decided.
//   - Termination: every correct process decides.
package agreement

import (
	"fmt"
	"sort"

	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

// Value is a proposal / decision value.
type Value int

// Decision records one process's decision.
type Decision struct {
	Value Value
	Round int // the round the process was in when it learned the decision
	At    sim.Time
}

// Outcome collects proposals and decisions of one agreement run. It is
// run-token state, like everything a run touches: processes decide on
// their own coroutines but only while holding the run token, stop
// predicates read it inside tick phases, and checkers run after
// sim.Run has stopped every coroutine — so the coroutine switches
// provide every needed happens-before edge and no lock is involved
// (verified, like the rest of the ownership contract, by the -race CI
// job).
type Outcome struct {
	proposals map[ids.ProcID]Value
	decisions map[ids.ProcID]Decision
	arena     *RoundArena // lent to the run's k-set processes
}

// NewOutcome returns an empty outcome recorder.
func NewOutcome() *Outcome {
	return &Outcome{
		proposals: make(map[ids.ProcID]Value),
		decisions: make(map[ids.ProcID]Decision),
	}
}

// UseArena lends a to the run's k-set processes (see RoundArena). With
// none lent, the run's processes share a fresh one made when the first
// of them starts. Call it before the run.
func (o *Outcome) UseArena(a *RoundArena) {
	o.arena = a
}

// Propose records p's proposal. Each process proposes exactly once.
func (o *Outcome) Propose(p ids.ProcID, v Value) {
	if old, dup := o.proposals[p]; dup {
		panic(fmt.Sprintf("agreement: %v proposed twice (%d then %d)", p, old, v))
	}
	o.proposals[p] = v
}

// Decide records p's decision. A second, different decision by the same
// process panics: it would be an integrity bug in the protocol.
func (o *Outcome) Decide(p ids.ProcID, d Decision) {
	if old, dup := o.decisions[p]; dup {
		if old.Value != d.Value {
			panic(fmt.Sprintf("agreement: %v decided twice with different values (%d then %d)", p, old.Value, d.Value))
		}
		return
	}
	o.decisions[p] = d
}

// Decisions returns a copy of the recorded decisions.
func (o *Outcome) Decisions() map[ids.ProcID]Decision {
	out := make(map[ids.ProcID]Decision, len(o.decisions))
	for k, v := range o.decisions {
		out[k] = v
	}
	return out
}

// DistinctValues returns the set of distinct decided values, sorted.
func (o *Outcome) DistinctValues() []Value {
	seen := make(map[Value]bool)
	for _, d := range o.decisions {
		seen[d.Value] = true
	}
	vals := make([]Value, 0, len(seen))
	for v := range seen {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

// MaxRound returns the largest decision round (0 if none).
func (o *Outcome) MaxRound() int {
	max := 0
	for _, d := range o.decisions {
		if d.Round > max {
			max = d.Round
		}
	}
	return max
}

// AllDecided returns a stop predicate that fires once every process of
// correct has decided.
func (o *Outcome) AllDecided(correct ids.Set) func() bool {
	return func() bool {
		done := true
		correct.ForEach(func(p ids.ProcID) bool {
			if _, ok := o.decisions[p]; !ok {
				done = false
				return false
			}
			return true
		})
		return done
	}
}

// Check verifies Validity, k-Agreement and Termination against the run's
// failure pattern.
func (o *Outcome) Check(pat *sim.Pattern, k int) error {
	proposed := make(map[Value]bool, len(o.proposals))
	for _, v := range o.proposals {
		proposed[v] = true
	}
	distinct := make(map[Value]bool)
	for p, d := range o.decisions {
		if !proposed[d.Value] {
			return fmt.Errorf("agreement: validity violated: %v decided %d, never proposed", p, d.Value)
		}
		distinct[d.Value] = true
	}
	if len(distinct) > k {
		return fmt.Errorf("agreement: %d distinct values decided, k=%d", len(distinct), k)
	}
	var missing []ids.ProcID
	pat.Correct().ForEach(func(p ids.ProcID) bool {
		if _, ok := o.decisions[p]; !ok {
			missing = append(missing, p)
		}
		return true
	})
	if len(missing) > 0 {
		return fmt.Errorf("agreement: termination violated: correct processes %v never decided", missing)
	}
	return nil
}
