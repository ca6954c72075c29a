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
	// recorded counts the samples recorded so far: StableFor works its
	// aggregate out again only when it has moved.
	recorded int
	horizon  sim.Time
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
//   - At a scheduled tick, a source with change marks (ChangeMarked) has
//     only its marked processes read, except on the first tick and on
//     the first scheduled tick at or after each tick its hint announced,
//     where every alive process is read (see readPlan).
//
// With exact set, a hinted trace equals the dense one, horizon included:
// the dense horizon is the tick before the clock's final one, and a
// hinted exact trace reads it off the clock instead of sampling every
// tick to get there.
func watchSets(sys *sim.System, src any, exact bool, read func(ids.ProcID) ids.Set) *SetTrace {
	tr := newSetTrace(sys)
	tr.exact = exact
	h, hinted := src.(ChangeHinted)
	plan := newReadPlan(sys, src)
	sample := func(now sim.Time) {
		plan.procs(now).ForEachIn(tr.n, func(id ids.ProcID) bool {
			tr.observe(id, now, read(id))
			return true
		})
		tr.tick(now)
	}
	switch {
	case hinted:
		// A wake already asked for is still pending, or has passed and
		// would be dropped again: asking twice changes nothing.
		var woken sim.Time = -1
		sys.OnAdvance(func(now sim.Time) {
			sample(now)
			if next := h.NextChange(now); next < sim.Never && next != woken {
				sys.WakeAt(next)
				woken = next
			}
		})
	case exact:
		sys.OnTick(sample)
	default:
		sys.OnAdvance(sample)
	}
	return tr
}

// readPlan chooses the processes a sampler of src reads at each tick it
// runs: every alive process, or, for a source with change marks, only
// the alive processes marked since the sampler's last tick. Every alive
// process is read on the first tick and on the first tick at or after
// the hint's next change, which covers the changes no mark records.
// Each sampler keeps its own plan, so samplers of one source (a trace
// beside a watcher) each see every mark.
type readPlan struct {
	sys   *sim.System
	all   ids.Set // 1..n
	marks *Marks  // nil: read every alive process on every tick
	hint  ChangeHinted
	seen  uint64   // marks version at the last tick
	due   sim.Time // read every alive process at or after this tick
	begun bool
}

func newReadPlan(sys *sim.System, src any) *readPlan {
	plan := &readPlan{sys: sys, all: ids.FullSet(sys.Config().N), hint: HintOf(src)}
	if m, ok := src.(ChangeMarked); ok {
		plan.marks = m.ChangeMarks()
	}
	return plan
}

// procs returns the processes to read at tick now: a set the sampler
// sweeps in ascending order, with the crashed set looked up at most once
// per tick, so membership and order are exactly those of a 1..n loop
// with a per-process Crashed check.
func (r *readPlan) procs(now sim.Time) ids.Set {
	read := r.all
	if r.marks != nil {
		changed, ver := r.marks.Since(r.seen)
		r.seen = ver
		if !r.begun || now >= r.due {
			r.begun = true
			r.due = r.hint.NextChange(now)
		} else if read = changed; read.IsEmpty() {
			return read
		}
	}
	return read.Minus(r.sys.Pattern().CrashedSet(now))
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
	tr.recorded++
}

func (tr *SetTrace) tick(now sim.Time) {
	tr.horizon = now
}

// StableFor returns a stop predicate for System.Run: it fires once every
// process of procs has been sampled at least once and no sampled output
// has changed during the last margin ticks. Pick margin larger than the
// run's GST and last crash time so the observed stability covers a
// genuinely post-stabilization window.
//
// The predicate keeps its aggregate over procs, whether all have
// started and their last change, and works it out again only when the
// trace has recorded a sample since.
func (tr *SetTrace) StableFor(procs ids.Set, margin sim.Time) func() bool {
	agg := stableAgg{recorded: -1}
	var woken sim.Time = -1
	return func() bool {
		if agg.recorded != tr.recorded {
			agg = tr.stableAgg(procs)
		}
		stable := agg.started && (agg.lastChange < 0 || tr.Horizon()-agg.lastChange >= margin)
		if !stable && agg.lastChange >= 0 {
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
			wake := agg.lastChange + margin
			if tr.exact {
				wake++
			}
			// A wake already asked for is still pending, or has passed
			// and would be dropped again: asking twice changes nothing.
			if wake != woken {
				tr.sys.WakeAt(wake)
				woken = wake
			}
		}
		return stable
	}
}

// stableAgg is StableFor's aggregate over its processes at the moment
// the trace had recorded recorded samples: started reports that every
// process had been sampled, and lastChange is the latest last change
// (−1: none) among the processes up to the first one never sampled, in
// ascending order, or among all of them when started.
type stableAgg struct {
	recorded   int
	started    bool
	lastChange sim.Time
}

func (tr *SetTrace) stableAgg(procs ids.Set) stableAgg {
	agg := stableAgg{recorded: tr.recorded, started: true, lastChange: -1}
	procs.ForEach(func(p ids.ProcID) bool {
		if !tr.started[p] {
			agg.started = false
			return false
		}
		if at := tr.byProc[p][len(tr.byProc[p])-1].At; at > agg.lastChange {
			agg.lastChange = at
		}
		return true
	})
	return agg
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
