package fd

import (
	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

// SetSample is one change point of a process's set-valued oracle output:
// the output equals Value from At until the next sample's At.
type SetSample struct {
	At    sim.Time
	Value ids.Set
}

// SetTrace records the set-valued outputs (suspected_i or trusted_i) of
// an oracle over a run, change-compressed per process. Build one with
// WatchLeader or WatchSuspector before System.Run; inspect it afterwards
// with the Check* methods in check.go.
type SetTrace struct {
	sys     *sim.System
	n       int
	byProc  [][]SetSample // index 1..n
	last    []ids.Set
	started []bool
	horizon sim.Time
	// exact marks a trace that samples every change tick (WatchLeader,
	// WatchSuspector): its last sample holds through the tick before the
	// clock's current one, so Horizon reads the clock (see watchSets).
	exact bool
}

func newSetTrace(sys *sim.System) *SetTrace {
	n := sys.Config().N
	return &SetTrace{
		sys:     sys,
		n:       n,
		byProc:  make([][]SetSample, n+1),
		last:    make([]ids.Set, n+1),
		started: make([]bool, n+1),
	}
}

// watchSets installs a sampler for a per-process set-valued output src.
// The sampler rule:
//
//   - A source with a change hint (ChangeHinted) is sampled at every
//     scheduled tick, and the sampler schedules a tick at each change
//     the hint announces. The clock jumps between changes, yet no change
//     goes unseen.
//   - A source without a hint is sampled on every tick when exact is set
//     (this forces the clock dense), else on every scheduled tick only,
//     which suffices for emulated outputs because those change only when
//     a process takes a step.
//
// With exact set, a hinted trace equals the dense one, horizon included:
// the dense horizon is the tick before the clock's final one, and a
// hinted exact trace reads it off the clock instead of sampling every
// tick to get there.
func watchSets(sys *sim.System, src any, exact bool, read func(ids.ProcID) ids.Set) *SetTrace {
	tr := newSetTrace(sys)
	tr.exact = exact
	h, hinted := src.(ChangeHinted)
	sample := func(now sim.Time) {
		// One crashed-set lookup per tick, then a masked sweep over the
		// alive processes — membership and ascending order are exactly
		// those of a 1..n loop with a per-process Crashed check.
		alive := ids.FullSet(tr.n).Minus(sys.Pattern().CrashedSet(now))
		alive.ForEachIn(tr.n, func(id ids.ProcID) bool {
			tr.observe(id, now, read(id))
			return true
		})
		tr.tick(now)
	}
	switch {
	case hinted:
		sys.OnAdvance(func(now sim.Time) {
			sample(now)
			if next := h.NextChange(now); next < sim.Never {
				sys.WakeAt(next)
			}
		})
	case exact:
		sys.OnTick(sample)
	default:
		sys.OnAdvance(sample)
	}
	return tr
}

// WatchLeader records l.Trusted(p) for every process, exactly: a hinted
// leader is sampled at its change ticks (and every scheduled tick), any
// other leader on every tick. Either way the trace holds the output's
// exact change timeline, time-driven oracle churn included.
func WatchLeader(sys *sim.System, l Leader) *SetTrace {
	return watchSets(sys, l, true, l.Trusted)
}

// WatchLeaderDense samples l.Trusted(p) for every process on every
// tick, ignoring any change hint. It is the reference a hinted trace is
// checked against; runs use WatchLeader.
func WatchLeaderDense(sys *sim.System, l Leader) *SetTrace {
	return watchSets(sys, nil, true, l.Trusted)
}

// WatchSuspector records s.Suspected(p) for every process, exactly, by
// WatchLeader's rule.
func WatchSuspector(sys *sim.System, s Suspector) *SetTrace {
	return watchSets(sys, s, true, s.Suspected)
}

// WatchLeaderSparse samples l.Trusted(p) at every scheduled tick (plus,
// for a hinted leader, its change ticks), letting the scheduler skip
// idle virtual time. Its horizon is the last scheduled tick, so a stop
// predicate on it sees only what the run's processes have seen. Use it
// for emulated outputs, whose value changes when a process takes a step
// or when an oracle they consult live changes (the emulation's hint).
func WatchLeaderSparse(sys *sim.System, l Leader) *SetTrace {
	return watchSets(sys, l, false, l.Trusted)
}

// WatchSuspectorSparse is WatchLeaderSparse for suspectors.
func WatchSuspectorSparse(sys *sim.System, s Suspector) *SetTrace {
	return watchSets(sys, s, false, s.Suspected)
}

func (tr *SetTrace) observe(p ids.ProcID, now sim.Time, v ids.Set) {
	if tr.started[p] && tr.last[p].Equal(v) {
		return
	}
	tr.started[p] = true
	tr.last[p] = v
	tr.byProc[p] = append(tr.byProc[p], SetSample{At: now, Value: v})
}

func (tr *SetTrace) tick(now sim.Time) {
	tr.horizon = now
}

// StableFor returns a stop predicate for System.Run: it fires once every
// process of procs has been sampled at least once and no sampled output
// has changed during the last margin ticks. Pick margin larger than the
// run's GST and last crash time so the observed stability covers a
// genuinely post-stabilization window.
func (tr *SetTrace) StableFor(procs ids.Set, margin sim.Time) func() bool {
	return func() bool {
		horizon := tr.Horizon()
		stable := true
		var lastChange sim.Time = -1
		procs.ForEach(func(p ids.ProcID) bool {
			if !tr.started[p] {
				stable = false
				return false
			}
			ss := tr.byProc[p]
			if len(ss) > 0 {
				at := ss[len(ss)-1].At
				if at > lastChange {
					lastChange = at
				}
				if horizon-at < margin {
					stable = false
				}
			}
			return true
		})
		if !stable && lastChange >= 0 {
			// Tell the scheduler when this predicate can next flip, so
			// clock jumps do not pass the earliest stopping tick. An
			// exact trace's horizon trails the clock by a tick, so the
			// wake one tick after the margin-th tick past the change
			// stops the run there. A sparse trace's horizon is its last
			// sample, and a tick checks the stop predicate before its
			// samplers run: at this wake (the margin-th tick after the
			// change) the predicate still reads the previous horizon, so
			// the wake cannot end the run, which stops at the next
			// scheduled tick instead. Waking sparse traces one tick
			// later is left open: it moves suite report bytes.
			wake := lastChange + margin
			if tr.exact {
				wake++
			}
			tr.sys.WakeAt(wake)
		}
		return stable
	}
}

// Horizon returns the last tick the trace covers: the last sampled
// tick, or for an exact trace the tick before the clock's current one
// (the last sample holds until then), as a dense trace reads.
func (tr *SetTrace) Horizon() sim.Time {
	if tr.exact {
		if h := tr.sys.Now() - 1; h > tr.horizon {
			return h
		}
	}
	return tr.horizon
}

// inRange reports whether p is a process of the watched system (the
// accessors tolerate unknown ids, reporting "never sampled").
func (tr *SetTrace) inRange(p ids.ProcID) bool {
	return p >= 1 && int(p) <= tr.n
}

// Samples returns the recorded change points of process p.
func (tr *SetTrace) Samples(p ids.ProcID) []SetSample {
	if !tr.inRange(p) {
		return nil
	}
	return append([]SetSample(nil), tr.byProc[p]...)
}

// FinalValue returns the last recorded output of p and whether p was ever
// sampled.
func (tr *SetTrace) FinalValue(p ids.ProcID) (ids.Set, bool) {
	if !tr.inRange(p) {
		return ids.EmptySet(), false
	}
	return tr.last[p], tr.started[p]
}

// LastChange returns the time of p's last output change (0 if never
// sampled).
func (tr *SetTrace) LastChange(p ids.ProcID) sim.Time {
	if !tr.inRange(p) {
		return 0
	}
	ss := tr.byProc[p]
	if len(ss) == 0 {
		return 0
	}
	return ss[len(ss)-1].At
}

// lastTimeContaining returns the last tick at which p's output contained
// q, or -1 if it never did. If the final output contains q it returns the
// horizon.
func (tr *SetTrace) lastTimeContaining(p, q ids.ProcID) sim.Time {
	if !tr.inRange(p) {
		return -1
	}
	ss := tr.byProc[p]
	last := sim.Time(-1)
	for i, s := range ss {
		if !s.Value.Contains(q) {
			continue
		}
		if i+1 < len(ss) {
			last = ss[i+1].At
		} else {
			last = tr.Horizon()
		}
	}
	return last
}

// everContained reports whether p's output ever contained q.
func (tr *SetTrace) everContained(p, q ids.ProcID) bool {
	return tr.lastTimeContaining(p, q) >= 0
}

// stableSuffixStart returns the earliest time τ such that for every
// process in procs, all samples at or after τ satisfy pred... kept
// simple: it returns the latest "last violation end" over procs for the
// given per-sample predicate.
func (tr *SetTrace) lastViolation(procs ids.Set, ok func(p ids.ProcID, v ids.Set) bool) sim.Time {
	horizon := tr.Horizon()
	worst := sim.Time(-1)
	procs.ForEach(func(p ids.ProcID) bool {
		ss := tr.byProc[p]
		for i, s := range ss {
			if ok(p, s.Value) {
				continue
			}
			end := horizon
			if i+1 < len(ss) {
				end = ss[i+1].At
			}
			if end > worst {
				worst = end
			}
		}
		return true
	})
	return worst
}
