package fd

import (
	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

// ChangeHinted is an optional oracle extension: NextChange returns the
// earliest future tick at which the oracle's outputs may differ from
// their value at now (sim.Never if they are settled). Ground-truth
// oracles change at epoch boundaries (anarchy drawings), at their
// stabilization time and at crash times (plus detection lag); emulated
// oracles change only when their host processes take steps, so they
// return sim.Never — a consumer woken by the triggering message re-reads
// them anyway.
//
// The window invariant: on [now, NextChange(now)) both the hint and
// every output are constant. The oracles of this package rely on it to
// work out each hint, and the outputs that depend only on the reader,
// once per window (TestOracleWindowsExact checks it tick by tick).
//
// Hints feed the scheduler's wake conditions (sim.Env.Await): a layer
// polling an oracle sleeps until the oracle can change instead of waking
// every tick. A conservative consumer treats a missing hint as "may
// change next tick" (see HintOf).
type ChangeHinted interface {
	NextChange(now sim.Time) sim.Time
}

// HintOf resolves o's change hint once, for consumers that read it on
// every step: o itself when it is ChangeHinted, otherwise the
// conservative hint that o may change on every tick.
func HintOf(o any) ChangeHinted {
	if h, ok := o.(ChangeHinted); ok {
		return h
	}
	return everyTick{}
}

// everyTick is the hint of an oracle that declares none.
type everyTick struct{}

func (everyTick) NextChange(now sim.Time) sim.Time { return now + 1 }

// ChangeMarked is an optional extension of an emulated output that is
// also ChangeHinted: its Marks record the processes whose output may
// have changed through a step of their host process (a wheel moved, an
// output was recomputed). Every other change falls on the hint's ticks.
// So between two hint ticks, a process whose output nobody marked reads
// what it read last, and a sampler reads only the marked processes (see
// watchSets).
type ChangeMarked interface {
	ChangeMarks() *Marks
}

// Marks is a change log for any number of readers: a version counter,
// bumped by each mark, and the version of each process's last mark. A
// reader keeps the version it last read at and asks for the processes
// marked since, so no reader consumes a mark another one still needs.
// The zero value is ready to use; marking through a nil *Marks does
// nothing.
type Marks struct {
	ver uint64
	at  []uint64 // index 1..n: version of the process's last mark
}

// Mark records that p's output may have changed.
func (m *Marks) Mark(p ids.ProcID) {
	if m == nil {
		return
	}
	if int(p) >= len(m.at) {
		m.at = append(m.at, make([]uint64, int(p)+1-len(m.at))...)
	}
	m.ver++
	m.at[p] = m.ver
}

// Since returns the processes marked after version v, and the current
// version for the reader's next call.
func (m *Marks) Since(v uint64) (ids.Set, uint64) {
	var changed ids.Set
	if m.ver != v {
		for p := 1; p < len(m.at); p++ {
			if m.at[p] > v {
				changed = changed.Add(ids.ProcID(p))
			}
		}
	}
	return changed, m.ver
}

// window is the span [from, till) of ticks over which an oracle's change
// hint is till, so that by the window invariant nothing the oracle
// outputs changes inside it. Each oracle keeps the window of the last
// tick it was read at and works it out afresh only when the clock leaves
// it. crashed is the crashed-by set at from − lag (the oracle's
// strong-completeness view) and step the scripted step in effect at from
// (−1 before the first): both are constant on the window too.
type window struct {
	from, till sim.Time
	crashed    ids.Set
	step       int
}

// covers reports whether the window holds at t. The zero window covers
// no tick.
func (w *window) covers(t sim.Time) bool {
	return w.from <= t && t < w.till
}

// crashWindow opens a window at now that ends at the first crash, or
// lag-shifted crash, after now: two O(log) lookups on the pattern's
// precomputed crash times instead of a process scan.
func crashWindow(pat *sim.Pattern, now, lag sim.Time) window {
	set, _, till := pat.CrashedWindow(now - lag)
	if till != sim.Never {
		till += lag
	}
	if lag != 0 {
		till = min(till, pat.NextCrashAfter(now))
	}
	return window{from: now, till: till, crashed: set}
}

// nextEpoch returns the first epoch boundary after now.
func nextEpoch(now, epoch sim.Time) sim.Time {
	if now < 0 {
		return 0
	}
	return (now/epoch + 1) * epoch
}

// output is one reader's memoized output over the window that opened at
// from and closes at till (till 0: none yet, since a window closes after
// it opens).
type output struct {
	from, till sim.Time
	set        ids.Set
}

// in reports whether the memo was taken in window w.
func (o *output) in(w *window) bool {
	return o.till == w.till && o.from == w.from
}

// NextChange implements ChangeHinted: a suspector's output can change at
// anarchy epoch boundaries (before stabilization, or forever when
// hostile), at the stabilization time, and when a crash (or its detection
// after the configured lag) occurs.
func (s *Suspect) NextChange(now sim.Time) sim.Time {
	return s.window(now).till
}

// window returns the window holding at now, opening a new one when the
// clock has left the last.
func (s *Suspect) window(now sim.Time) *window {
	if s.win.covers(now) {
		return &s.win
	}
	w := crashWindow(s.sys.Pattern(), now, s.opt.lag)
	if now < s.stab {
		// Outputs flip at stab when accuracy kicks in there (eventual
		// class) or when a non-hostile oracle's anarchy dies there —
		// i.e. always, except for a hostile perpetual oracle, whose
		// pre- and post-stab behaviour is identical.
		if !s.perpetual || !s.opt.hostile {
			w.till = min(w.till, s.stab)
		}
		w.till = min(w.till, nextEpoch(now, s.opt.epoch))
	} else if s.opt.hostile {
		w.till = min(w.till, nextEpoch(now, s.opt.epoch))
	}
	s.win = w
	return &s.win
}

// NextChange implements ChangeHinted: query answers can change at anarchy
// epoch boundaries before a ◇φ's stabilization, at the stabilization time
// itself, and when a crash completes a queried region (after lag).
func (f *Phi) NextChange(now sim.Time) sim.Time {
	return f.window(now).till
}

// window is Suspect.window for queriers.
func (f *Phi) window(now sim.Time) *window {
	if f.win.covers(now) {
		return &f.win
	}
	w := crashWindow(f.sys.Pattern(), now, f.opt.lag)
	if !f.perpetual && now < f.stab {
		w.till = min(w.till, f.stab, nextEpoch(now, f.opt.epoch))
	}
	f.win = w
	return &f.win
}

// NextChange implements ChangeHinted: trusted sets can change at anarchy
// epoch boundaries before stabilization, at the stabilization time, and
// at crash times (a crashed reader's output becomes empty).
func (w *Omega) NextChange(now sim.Time) sim.Time {
	return w.window(now).till
}

// window is Suspect.window for leaders.
func (w *Omega) window(now sim.Time) *window {
	if w.win.covers(now) {
		return &w.win
	}
	win := crashWindow(w.sys.Pattern(), now, 0)
	if now < w.stab {
		win.till = min(win.till, w.stab, nextEpoch(now, w.opt.epoch))
	}
	w.win = win
	return &w.win
}

// NextChange implements ChangeHinted for scripted leaders: the next
// scripted step boundary.
func (s *ScriptedLeader) NextChange(now sim.Time) sim.Time {
	return s.window(now).till
}

// window opens at now and closes at the next scripted step boundary.
func (s *ScriptedLeader) window(now sim.Time) *window {
	if s.win.covers(now) {
		return &s.win
	}
	i := leaderStepAt(s.steps, now)
	w := window{from: now, till: sim.Never, step: i}
	if i+1 < len(s.steps) {
		w.till = s.steps[i+1].At
	}
	s.win = w
	return &s.win
}

// NextChange implements ChangeHinted for scripted suspectors: the next
// scripted step boundary, or the next crash (a crashed reader's output
// becomes empty regardless of the script).
func (s *ScriptedSuspector) NextChange(now sim.Time) sim.Time {
	return s.window(now).till
}

// window opens at now and closes at the next scripted step boundary or
// crash, whichever comes first.
func (s *ScriptedSuspector) window(now sim.Time) *window {
	if s.win.covers(now) {
		return &s.win
	}
	w := crashWindow(s.sys.Pattern(), now, 0)
	w.step = suspectStepAt(s.steps, now)
	if i := w.step + 1; i < len(s.steps) {
		w.till = min(w.till, s.steps[i].At)
	}
	s.win = w
	return &s.win
}
