package fd

import (
	"sort"

	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

// LeaderStep is one segment of a scripted Ω timeline: from At onwards
// (until the next step), every process reads Common unless PerProc
// overrides it.
type LeaderStep struct {
	At      sim.Time
	Common  ids.Set
	PerProc map[ids.ProcID]ids.Set
}

// leaderStepAt returns the index of the step in effect at now, or -1
// before the first step. Steps must be sorted by At (the constructors
// guarantee it), so the lookup is a binary search, not a scan.
func leaderStepAt(steps []LeaderStep, now sim.Time) int {
	return sort.Search(len(steps), func(i int) bool { return steps[i].At > now }) - 1
}

// leaderValueAt evaluates a sorted timeline for reader p at time now.
func leaderValueAt(steps []LeaderStep, p ids.ProcID, now sim.Time) ids.Set {
	return leaderValue(steps, leaderStepAt(steps, now), p)
}

// leaderValue reads step i of a timeline for reader p (the empty set
// before the first step, i < 0).
func leaderValue(steps []LeaderStep, i int, p ids.ProcID) ids.Set {
	if i < 0 {
		return ids.EmptySet()
	}
	if v, ok := steps[i].PerProc[p]; ok {
		return v
	}
	return steps[i].Common
}

// ScriptedLeader is a deterministic fd.Leader driven by an explicit
// timeline — the tool for steering a protocol into a specific execution
// path (e.g. the Fig. 3 wait "L_i ≠ trusted_i"). Whether a given script
// belongs to Ω_z is the test author's responsibility; the class checkers
// can verify it (CheckLeaderScript).
type ScriptedLeader struct {
	sys   *sim.System
	steps []LeaderStep
	win   window // change-hint window of the last read, with its step
}

var _ Leader = (*ScriptedLeader)(nil)

// NewScriptedLeader builds a scripted oracle; steps are sorted by At.
// The sort is stable, so equal-At steps keep their authored order (the
// later-listed one wins, as it would if its At were one tick larger).
// There must be a step at time 0 (or earlier outputs read the empty set).
func NewScriptedLeader(sys *sim.System, steps []LeaderStep) *ScriptedLeader {
	sorted := append([]LeaderStep(nil), steps...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	return &ScriptedLeader{sys: sys, steps: sorted}
}

// Trusted implements Leader.
func (s *ScriptedLeader) Trusted(p ids.ProcID) ids.Set {
	return leaderValue(s.steps, s.window(s.sys.Now()).step, p)
}

// SuspectStep is one segment of a scripted suspector timeline.
type SuspectStep struct {
	At      sim.Time
	Common  ids.Set
	PerProc map[ids.ProcID]ids.Set
}

// suspectStepAt is leaderStepAt for suspector timelines.
func suspectStepAt(steps []SuspectStep, now sim.Time) int {
	return sort.Search(len(steps), func(i int) bool { return steps[i].At > now }) - 1
}

// suspectValueAt evaluates a sorted timeline for reader p at time now
// (ignoring the crashed-reader rule, which depends on the pattern).
func suspectValueAt(steps []SuspectStep, p ids.ProcID, now sim.Time) ids.Set {
	return suspectValue(steps, suspectStepAt(steps, now), p)
}

// suspectValue is leaderValue for suspector timelines.
func suspectValue(steps []SuspectStep, i int, p ids.ProcID) ids.Set {
	if i < 0 {
		return ids.EmptySet()
	}
	if v, ok := steps[i].PerProc[p]; ok {
		return v
	}
	return steps[i].Common
}

// ScriptedSuspector is the Suspector twin of ScriptedLeader: a
// deterministic ◇S_x/S_x driver fed by an explicit SUSPECTED timeline.
// CheckSuspectScript verifies whether a script stays inside a declared
// class for a given failure pattern.
type ScriptedSuspector struct {
	sys   *sim.System
	steps []SuspectStep
	win   window // change-hint window of the last read, with its step
}

var _ Suspector = (*ScriptedSuspector)(nil)

// NewScriptedSuspector builds a scripted suspector; steps are stably
// sorted by At (equal-At steps keep their authored order).
func NewScriptedSuspector(sys *sim.System, steps []SuspectStep) *ScriptedSuspector {
	sorted := append([]SuspectStep(nil), steps...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	return &ScriptedSuspector{sys: sys, steps: sorted}
}

// Suspected implements Suspector. Crashed processes suspect nobody.
func (s *ScriptedSuspector) Suspected(p ids.ProcID) ids.Set {
	w := s.window(s.sys.Now())
	if w.crashed.Contains(p) {
		return ids.EmptySet()
	}
	return suspectValue(s.steps, w.step, p)
}
