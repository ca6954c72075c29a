package fd

import (
	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
	"fdgrid/internal/trace"
)

// TraceLeader feeds changes of l.Trusted(p) into the system's decision
// trace, one event per (process, change), labeled src ("oracle",
// "emu", …). A no-op when the run is untraced or the trace level is
// below Decisions. Like the Watch* samplers it observes every alive
// process (between hint ticks, for an output with change marks, the
// marked ones); unlike them it installs sparsely (OnAdvance), so it never
// forces the clock dense — a traced run schedules exactly the ticks an
// untraced one does, which is what keeps traced and untraced reports
// byte-identical. The cost is that time-driven churn between scheduled
// ticks is invisible; it is also unobservable by any process, so the
// decision trace loses nothing decision-relevant. Must be called
// before System.Run.
func TraceLeader(sys *sim.System, l Leader, src string) {
	traceSets(sys, l, trace.KindLeader, src, l.Trusted)
}

// TraceSuspector is TraceLeader for suspect-set outputs.
func TraceSuspector(sys *sim.System, s Suspector, src string) {
	traceSets(sys, s, trace.KindSuspect, src, s.Suspected)
}

// traceSets installs a change-compressed sparse sampler of o (the
// watchSets shape, with its own read plan) that records into the trace
// recorder instead of a SetTrace.
func traceSets(sys *sim.System, o any, kind trace.Kind, src string, read func(ids.ProcID) ids.Set) {
	rec := sys.Recorder()
	if !rec.On(trace.Decisions) {
		return
	}
	n := sys.Config().N
	last := make([]ids.Set, n+1)
	started := make([]bool, n+1)
	plan := newReadPlan(sys, o)
	sys.OnAdvance(func(now sim.Time) {
		plan.procs(now).ForEachIn(n, func(p ids.ProcID) bool {
			v := read(p)
			if !started[p] || !last[p].Equal(v) {
				started[p] = true
				last[p] = v
				rec.SetChange(kind, int64(now), int(p), src, v)
			}
			return true
		})
	})
}
