// Package sim implements the asynchronous message-passing system model
// AS[n,t] of the paper: n processes that communicate over reliable but
// arbitrarily slow channels, of which at most t may crash.
//
// Each process main runs as a coroutine (iter.Pull), but execution is
// lockstep and sequential: a central scheduler (the "adversary") advances
// a virtual clock; on each tick it applies scheduled crashes, delivers up
// to Bandwidth in-flight messages chosen uniformly at random (seeded),
// and then wakes — one at a time, in identity order — exactly the
// processes whose wait condition is due (a new message, or a declared
// wake time reached; see Env.StepUntil and Env.Await). The scheduler
// only proceeds once the woken process has parked again, so a run is a
// deterministic
// function of its Config: same seed, same delivery order, same process
// steps, same result. Arbitrary-but-finite message delays and arbitrary
// crash patterns — exactly the adversary the asynchronous model
// quantifies over — are thus sampled reproducibly.
//
// # Concurrency contract
//
// Exactly one coroutine runs at any instant: whoever holds the run
// token, which is either Run's loop or one process main. A parking
// process publishes its wake condition and, while nothing is due, runs
// the next tick's scheduler phases (crashes, deliveries, samplers,
// clock advance) on its own stack. When a process is due:
//
//   - if it is the parker itself, it keeps running, with no switch;
//   - if it waits in Env.Await, the token holder (the parker, or Run's
//     loop) runs its step — the wait's done, next and on callbacks, in
//     the order of the loop Await stands for — on its own stack, and
//     the waiter's coroutine stays suspended. When done holds, the
//     waiter needs its stack back: a parker puts it in the one-entry
//     ready slot and yields to Run's loop, which resumes ready before
//     anything else runs (two switches per completed wait);
//   - otherwise (a raw StepUntil) the parker yields to Run's loop,
//     which resumes the process (two switches per wake).
//
// Steps must not block: an Await step may be running on another
// process's stack, so Step, StepUntil or Await called from inside one
// panics. Killing a parked process stops its coroutine, which unwinds
// it before the tick proceeds; a process killed at a tick
// it is running itself is only marked, and unwinds, taking no further
// step, when next due or at teardown. Report.Switches counts the
// switches, Report.Wakes the due processes stepped or resumed.
//
// No mutexes, no channels, no goroutine beside the coroutines iter.Pull
// creates. All simulation state (network queues, inboxes, park bits,
// deadlines, metrics counters) is owned by the run token and accessed
// without locks; the coroutine switches provide the happens-before
// edges, and -race verifies the claim.
//
// The thin surface that IS safe to touch from other goroutines while a
// run is in progress: Now (atomic), WakeAt (locked), InFlight (atomic).
// Everything else — including Metrics reads and Env.Crashed — must be
// called with the run token (process mains, stop predicates, OnTick /
// OnAdvance samplers) or after Run has returned, which has stopped every
// process coroutine. Stop predicates and samplers execute on whichever
// coroutine holds the token at that tick; they must not assume a fixed
// goroutine identity. A panic in any of them, or in a process main,
// re-raises from Run after every coroutine has been stopped.
//
// Undeliverable stretches of virtual time are skipped: when no message is
// eligible, no process wake is due and no crash or hold release falls in
// between, the clock jumps directly to the next relevant tick. Dense
// per-tick samplers (OnTick) disable skipping; sparse samplers
// (OnAdvance) observe every scheduled tick, which is every tick at which
// anything can happen.
//
// Crash semantics: once a process is crashed, its next interaction with
// the environment unwinds its coroutine (an internal sentinel panic that
// never escapes the package). A crashed process therefore takes no
// further observable step, as in the model.
package sim

import (
	"fmt"
	"iter"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"fdgrid/internal/ids"
	"fdgrid/internal/trace"
)

// Time is the virtual clock, counted in scheduler ticks.
type Time int64

// Never is a crash time meaning "the process is correct".
const Never Time = 1<<62 - 1

// Hold delays matching messages: a message sent from a process in From to
// a process in To at or after Since is not deliverable before Until.
// Since is the window start (zero means "from the beginning of the
// run"); the window closes at Until, so a message sent at Until or later
// passes unhindered, and a message already in flight when the window
// opens is not retroactively held. Holds are the scripted half of the
// adversary, used by the irreducibility experiments ("delay every
// message from E until the horizon") and the generated partition-style
// adversaries (per-(from,to) windows).
type Hold struct {
	From  ids.Set
	To    ids.Set
	Since Time `json:"Since,omitempty"`
	Until Time
}

// Config parameterizes a run of the system.
type Config struct {
	// N is the number of processes (ids 1..N); T the resilience bound.
	N, T int
	// Seed drives the scheduler's random choices.
	Seed int64
	// MaxSteps bounds the run; the run stops when the clock reaches it.
	MaxSteps Time
	// Crashes maps a process to its crash time. Absent means correct.
	// A crash time of 0 is an initial crash.
	Crashes map[ids.ProcID]Time
	// GST is the global stabilization time: eventual failure detector
	// classes may misbehave before it and must behave after it.
	GST Time
	// Holds optionally script message delays (see Hold).
	Holds []Hold
	// Bandwidth is how many messages the scheduler delivers per tick
	// (default 1). Higher values speed up message-heavy transformations
	// without changing the adversary's power: delivery order stays
	// random and delays stay arbitrary.
	Bandwidth int
}

func (c Config) validate() error {
	if c.N < 1 || c.N > ids.MaxProcs {
		return fmt.Errorf("sim: N=%d out of range 1..%d", c.N, ids.MaxProcs)
	}
	if c.T < 0 || c.T >= c.N {
		return fmt.Errorf("sim: T=%d out of range 0..%d", c.T, c.N-1)
	}
	if len(c.Crashes) > c.T {
		return fmt.Errorf("sim: %d crashes scheduled but T=%d", len(c.Crashes), c.T)
	}
	for p, at := range c.Crashes {
		if p < 1 || int(p) > c.N {
			return fmt.Errorf("sim: crash scheduled for unknown process %d", p)
		}
		if at < 0 {
			return fmt.Errorf("sim: negative crash time for %v", p)
		}
	}
	if c.MaxSteps <= 0 {
		return fmt.Errorf("sim: MaxSteps=%d must be positive", c.MaxSteps)
	}
	if c.Bandwidth < 0 {
		return fmt.Errorf("sim: Bandwidth=%d must be non-negative", c.Bandwidth)
	}
	for _, h := range c.Holds {
		if h.Since < 0 {
			return fmt.Errorf("sim: hold window starts at negative time %d", h.Since)
		}
		if h.Since > 0 && h.Since >= h.Until {
			return fmt.Errorf("sim: hold window [%d,%d) is empty", h.Since, h.Until)
		}
	}
	return nil
}

func (c Config) bandwidth() int {
	if c.Bandwidth == 0 {
		return 1
	}
	return c.Bandwidth
}

// Pattern is the failure pattern of a run: which processes crash and when.
// It is derived from Config.Crashes and is the ground truth failure
// detector oracles consult. The crashed-by set is a step function of
// time with at most t steps, so the pattern precomputes one (time, set)
// window per distinct crash tick at construction; every query after that
// is a binary search over immutable data — one shared ground truth for
// all oracles and samplers instead of a per-oracle O(n) pattern scan,
// and safe from any goroutine.
type Pattern struct {
	n       int
	crashAt []Time // index 1..n; Never for correct processes

	// winTimes holds the sorted distinct crash ticks; winSets[i] is the
	// set of processes crashed at or before any t in
	// [winTimes[i], winTimes[i+1]). Before winTimes[0] nothing has
	// crashed; the last set is the pattern's faulty set.
	winTimes []Time
	winSets  []ids.Set
}

func newPattern(cfg Config) *Pattern {
	fp := &Pattern{n: cfg.N, crashAt: make([]Time, cfg.N+1)}
	for i := range fp.crashAt {
		fp.crashAt[i] = Never
	}
	for p, at := range cfg.Crashes {
		fp.crashAt[p] = at
	}
	for p := 1; p <= fp.n; p++ {
		if fp.crashAt[p] != Never {
			fp.winTimes = append(fp.winTimes, fp.crashAt[p])
		}
	}
	sort.Slice(fp.winTimes, func(i, j int) bool { return fp.winTimes[i] < fp.winTimes[j] })
	fp.winTimes = dedupTimes(fp.winTimes)
	fp.winSets = make([]ids.Set, len(fp.winTimes))
	var acc ids.Set
	for i, t := range fp.winTimes {
		for p := 1; p <= fp.n; p++ {
			if fp.crashAt[p] == t {
				acc = acc.Add(ids.ProcID(p))
			}
		}
		fp.winSets[i] = acc
	}
	return fp
}

// dedupTimes collapses equal neighbours of a sorted time slice in place.
func dedupTimes(ts []Time) []Time {
	out := ts[:0]
	for _, t := range ts {
		if len(out) == 0 || out[len(out)-1] != t {
			out = append(out, t)
		}
	}
	return out
}

// N returns the number of processes.
func (fp *Pattern) N() int { return fp.n }

// CrashTime returns when p crashes (Never if correct).
func (fp *Pattern) CrashTime(p ids.ProcID) Time { return fp.crashAt[p] }

// Crashed reports whether p has crashed at or before time at.
func (fp *Pattern) Crashed(p ids.ProcID, at Time) bool { return fp.crashAt[p] <= at }

// CrashedSet returns the set of processes crashed at or before time at:
// a binary search over the precomputed crash windows.
func (fp *Pattern) CrashedSet(at Time) ids.Set {
	i := sort.Search(len(fp.winTimes), func(i int) bool { return fp.winTimes[i] > at })
	if i == 0 {
		return ids.Set{}
	}
	return fp.winSets[i-1]
}

// CrashedWindow returns the crashed-by set at time at together with the
// half-open window [from, till) of times sharing it, for callers that
// memoize across queries. from underflows to a far-negative sentinel
// before the first crash (lag-shifted queries probe negative times);
// till is Never after the last one.
func (fp *Pattern) CrashedWindow(at Time) (set ids.Set, from, till Time) {
	i := sort.Search(len(fp.winTimes), func(i int) bool { return fp.winTimes[i] > at })
	from, till = Time(-1<<62), Never
	if i < len(fp.winTimes) {
		till = fp.winTimes[i]
	}
	if i == 0 {
		return ids.Set{}, from, till
	}
	return fp.winSets[i-1], fp.winTimes[i-1], till
}

// NextCrashAfter returns the earliest crash tick strictly after t, or
// Never when no further crash is scheduled.
func (fp *Pattern) NextCrashAfter(t Time) Time {
	i := sort.Search(len(fp.winTimes), func(i int) bool { return fp.winTimes[i] > t })
	if i == len(fp.winTimes) {
		return Never
	}
	return fp.winTimes[i]
}

// AllCrashed reports whether every process of s has crashed by time at.
// The empty set is vacuously all-crashed.
func (fp *Pattern) AllCrashed(s ids.Set, at Time) bool {
	return s.SubsetOf(fp.CrashedSet(at))
}

// Correct returns the set of processes that never crash in the run.
func (fp *Pattern) Correct() ids.Set {
	return ids.FullSet(fp.n).Minus(fp.Faulty())
}

// Faulty returns the complement of Correct within {1..n}.
func (fp *Pattern) Faulty() ids.Set {
	if len(fp.winSets) == 0 {
		return ids.Set{}
	}
	return fp.winSets[len(fp.winSets)-1]
}

// System is one simulated asynchronous system instance. Create it with
// New, register process mains with Spawn, then call Run exactly once.
//
// Field ownership follows the package's concurrency contract: unless a
// field is explicitly marked atomic or locked below, it is run-token
// state — accessed only by whichever of Run's loop and the process
// coroutines holds the token, which the coroutine switches serialize.
type System struct {
	cfg     Config
	pattern *Pattern
	src     rand.Source64 // the delivery draw stream (see System.intn)
	//detlint:allow runtoken -- System.Now is documented cross-thread surface: any goroutine may sample the clock
	now     atomic.Int64
	procs   []*Proc // index 1..N
	metrics *Metrics

	// rec, when non-nil, records the run's decision trace (crashes here
	// in the scheduler; oracle flips and protocol events at their
	// sources). Owned by the run token like the rest of the simulation
	// state; nil is the common no-tracing case and costs one predictable
	// branch per instrumented site.
	rec *trace.Recorder

	// Token-protocol state. running is false during launch (parks yield
	// to Run without running ticks) and true while the token circulates.
	// due is the set of processes selected to wake this tick and not yet
	// woken; stoppedEarly / ended record how the run finished.
	running      bool
	due          pset
	stop         func() bool
	stoppedEarly bool
	ended        bool

	// Await state. stepping is set while some process's Await step runs
	// (on any stack), so a blocking call made from inside one panics.
	// ready is a waiting process whose wait completed on another
	// process's stack: that process yields to Run's loop, which resumes
	// ready before anything else runs.
	stepping bool
	ready    *Proc

	// wakes counts process wakes (self-dispatches included); switches
	// counts coroutine switches. Non-canonical: reported by Run, never
	// part of a sweep report.
	wakes    int64
	switches int64

	// Network state. Every accepted send opens one record in recs (its
	// sender, tag, payload, send time and count of live copies; see
	// sendRec), and each of its copies travels as an 8-byte entry naming
	// the record and the destination: deliverable copies in eligible,
	// held ones in the bucket of the tick their scripted hold releases
	// them (held, keys sorted in heldTimes). Sends are routed into one or
	// the other as they are accepted (see queueHeld). A record is zeroed
	// onto recFree when its last copy is delivered or dropped, and
	// bucketPool recycles drained hold buckets. recs, recFree, eligible
	// and bucketPool are borrowed from buf for the length of Run (see
	// Buffers).
	buf        *Buffers
	recs       []sendRec
	recFree    []int32
	eligible   []entry
	held       map[Time][]entry
	heldTimes  []Time
	bucketPool [][]entry

	// Delivery batching state: the delivery phase appends this tick's
	// selected messages straight onto their destination inboxes, marking
	// the touched destinations in batched and each destination's
	// pre-tick inbox length in batchStart. The flush pass then pays the
	// per-destination costs once per batch: the crash check (dropping the
	// whole tail, zeroed so no payload outlives the drop), the wake-hint
	// and the per-(destination, tag) counter bumps. Owned by the run
	// token like the rest of the network state.
	batched    pset
	batchStart []int

	// holdUntil is the per-(from,to) release matrix precomputed from the
	// Since=0 entries of Config.Holds at New time, flattened to
	// (N+1)*(N+1); nil when the run scripts no such holds, which is the
	// send fast path. holdWins carries the windowed (Since>0) holds per
	// (from,to) pair, consulted against the send time; nil when no hold
	// is windowed.
	holdUntil []Time
	holdWins  [][]holdWin

	// Wake accounting: parkedSet marks parked processes (bit id-1), set
	// by the parking process and cleared by the scheduler on wake;
	// deadlines mirrors each parked process's declared wake time; and
	// inboxDue marks parked processes the delivery phase enqueued
	// messages for.
	parkedSet pset
	inboxDue  pset
	pw        int    // live pset words for this run's N (scan bound)
	deadlines []Time // index 1..N; valid while the proc's parkedSet bit is set

	// inflight counts accepted-but-undelivered messages. Atomic: it is
	// the one network figure exposed to other goroutines (InFlight).
	//detlint:allow runtoken -- System.InFlight is documented cross-thread surface
	inflight atomic.Int64

	// External wake hints (WakeAt), kept sorted ascending. Locked: the
	// one mutable input other goroutines may feed a running scheduler.
	//detlint:allow runtoken -- System.WakeAt is documented cross-thread surface; the hint list is its locked inbox
	hintMu sync.Mutex
	hints  []Time

	crashTimes []Time // sorted crash ticks, for clock jumps
	crashIdx   int    // first entry of crashTimes not yet applied

	// hintLen mirrors len(hints) so the per-tick nextTime can skip the
	// hint lock entirely when no hints exist (the common case).
	//detlint:allow runtoken -- mirrors the WakeAt hint list's length across threads
	hintLen atomic.Int32

	ran       bool
	onTick    []func(Time)
	onAdvance []func(Time)
}

// OnTick registers fn to run with the run token once per tick,
// after deliveries, before processes observe the tick. Registering any
// OnTick callback makes the clock dense: no tick is ever skipped, so
// samplers may match exact tick values. Must be called before Run.
func (s *System) OnTick(fn func(Time)) {
	if s.ran {
		panic("sim: OnTick after Run")
	}
	s.onTick = append(s.onTick, fn)
}

// OnAdvance registers fn to run once per *scheduled* tick — every tick at
// which a delivery, crash, hold release or process wake can happen.
// Unlike OnTick it does not force the clock dense: provably idle
// stretches may still be skipped. Since processes only take steps at
// scheduled ticks, an OnAdvance sampler still observes every state
// change. Must be called before Run.
func (s *System) OnAdvance(fn func(Time)) {
	if s.ran {
		panic("sim: OnAdvance after Run")
	}
	s.onAdvance = append(s.onAdvance, fn)
}

// TraceTo attaches a decision-trace recorder: the scheduler records
// crash events (and, at trace.Full, delivery and hold-release volume)
// into it, and instrumented components reach it via Recorder /
// Env.Trace. Tracing never alters the run: recording consumes no
// random draws and schedules no ticks, so a traced run is
// byte-identical to an untraced one in every report field. Must be
// called before Run.
func (s *System) TraceTo(rec *trace.Recorder) {
	if s.ran {
		panic("sim: TraceTo after Run")
	}
	s.rec = rec
}

// Recorder returns the attached decision-trace recorder, nil when the
// run is untraced. All recorder methods are nil-safe, so callers may
// record unconditionally.
func (s *System) Recorder() *trace.Recorder { return s.rec }

// WakeAt asks the scheduler to schedule a tick at time t even if nothing
// else is due then. Stop predicates whose truth flips at a known future
// time (e.g. "stable for d ticks") register it here so clock jumps do not
// overshoot the earliest stopping point. Safe to call from stop
// predicates and OnTick/OnAdvance callbacks — and, alone among the
// scheduler's inputs, from other goroutines; stale times are ignored.
func (s *System) WakeAt(t Time) {
	s.hintMu.Lock()
	defer s.hintMu.Unlock()
	i := sort.Search(len(s.hints), func(i int) bool { return s.hints[i] >= t })
	if i < len(s.hints) && s.hints[i] == t {
		return
	}
	s.hints = append(s.hints, 0)
	copy(s.hints[i+1:], s.hints[i:])
	s.hints[i] = t
	s.hintLen.Store(int32(len(s.hints)))
}

// New builds a system from cfg. It returns an error if cfg is invalid.
func New(cfg Config) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:     cfg,
		pattern: newPattern(cfg),
		src:     rand.NewSource(cfg.Seed).(rand.Source64),
		metrics: newMetrics(),
		held:    make(map[Time][]entry),
	}
	s.pw = pwords(cfg.N)
	s.deadlines = make([]Time, cfg.N+1)
	s.batchStart = make([]int, cfg.N+1)
	for _, at := range cfg.Crashes {
		s.crashTimes = append(s.crashTimes, at)
	}
	sort.Slice(s.crashTimes, func(i, j int) bool { return s.crashTimes[i] < s.crashTimes[j] })
	s.procs = make([]*Proc, cfg.N+1)
	for i := 1; i <= cfg.N; i++ {
		s.procs[i] = &Proc{id: ids.ProcID(i), sys: s}
	}
	if len(cfg.Holds) > 0 {
		// Precompute the release structures so the send path is one
		// array index (run-from-start holds) plus, only when windows are
		// scripted, a short per-pair window scan — instead of an
		// O(|Holds|) set scan per message.
		windowed := false
		for _, h := range cfg.Holds {
			if h.Since > 0 {
				windowed = true
				break
			}
		}
		s.holdUntil = make([]Time, (cfg.N+1)*(cfg.N+1))
		if windowed {
			s.holdWins = make([][]holdWin, (cfg.N+1)*(cfg.N+1))
		}
		for from := 1; from <= cfg.N; from++ {
			for to := 1; to <= cfg.N; to++ {
				idx := from*(cfg.N+1) + to
				var nb Time
				for _, h := range cfg.Holds {
					if !h.From.Contains(ids.ProcID(from)) || !h.To.Contains(ids.ProcID(to)) {
						continue
					}
					if h.Since == 0 {
						if h.Until > nb {
							nb = h.Until
						}
					} else {
						s.holdWins[idx] = append(s.holdWins[idx], holdWin{since: h.Since, until: h.Until})
					}
				}
				s.holdUntil[idx] = nb
			}
		}
	}
	return s, nil
}

// holdWin is one precompiled windowed hold for a (from,to) pair: a
// message sent at τ ∈ [since, until) is not deliverable before until.
type holdWin struct {
	since, until Time
}

// MustNew is New for configurations known statically valid (tests, benches).
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the run configuration.
func (s *System) Config() Config { return s.cfg }

// Pattern returns the run's failure pattern (oracle ground truth).
func (s *System) Pattern() *Pattern { return s.pattern }

// Now returns the current virtual time.
func (s *System) Now() Time { return Time(s.now.Load()) }

// GST returns the configured global stabilization time.
func (s *System) GST() Time { return s.cfg.GST }

// Metrics returns the live metrics collector (see Metrics for the
// ownership contract on its readers).
func (s *System) Metrics() *Metrics { return s.metrics }

// Env returns the environment handle of process p (for oracle adapters
// and tests; protocol mains receive theirs via Spawn).
func (s *System) Env(p ids.ProcID) *Env { return &Env{p: s.procs[p]} }

// Spawn registers main as the protocol code of process p. It must be
// called before Run. The main runs as its own coroutine; it is unwound
// when p crashes or the run stops, and may also return on its own.
//
// Mains must block through Env to let the scheduler advance: through
// Await (the node waits are Await calls), or the raw Step and StepUntil
// that tests and micro-benchmarks use. The system is lockstep, so a
// main that spins without a blocking Env call stalls virtual time.
func (s *System) Spawn(p ids.ProcID, main func(*Env)) {
	if p < 1 || int(p) > s.cfg.N {
		panic(fmt.Sprintf("sim: Spawn(%d) unknown process", p))
	}
	if s.procs[p].main != nil {
		panic(fmt.Sprintf("sim: Spawn(%d) called twice", p))
	}
	s.procs[p].main = main
}

// SpawnAll registers the same main on every process.
func (s *System) SpawnAll(main func(*Env)) {
	for i := 1; i <= s.cfg.N; i++ {
		s.Spawn(ids.ProcID(i), main)
	}
}

// Report summarizes a finished run.
type Report struct {
	// Steps is the virtual time at which the run ended.
	Steps Time
	// StoppedEarly is true if the stop predicate fired before MaxSteps.
	StoppedEarly bool
	// Messages is a snapshot of the message metrics.
	Messages MetricsSnapshot
	// Wakes counts process wakes: each time a parked process was due
	// and took its next step, whether its coroutine resumed or (inside
	// Env.Await) the step ran on the token holder's stack. Switches
	// counts coroutine switches: two per resume by the run loop (a
	// completed Await whose last step ran elsewhere included), per
	// launch and per stop of a suspended process; none per
	// self-dispatch and none per Await step. Both are exact but
	// non-canonical scheduler diagnostics, never written into sweep
	// reports.
	Wakes, Switches int64
}

// launch starts process p's coroutine and runs it to its first park (or
// exit). Only used before running is set, so the park yields straight
// back here without running any tick phases.
func (s *System) launch(p *Proc) {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(procKilled); !ok {
					panic(r) // a protocol bug: surfaces from next/stop, then Run
				}
			}
		}()
		p.main(&Env{p: p})
	})
	s.switches += 2
	p.next()
}

// wake clears process id's due, park and inbox bits as it resumes.
func (s *System) wake(id ids.ProcID) {
	s.due.clear(id)
	s.parkedSet.clear(id)
	s.inboxDue.clear(id)
	s.wakes++
}

// park runs the tick phases on the parking process's own stack while no
// process is due, and the steps of due processes waiting in Env.Await.
// It returns true when self is the first process due: self has been
// woken and keeps running, with no coroutine switch. On false, self
// must yield to Run's loop, which resumes ready if set, else the first
// due process (or finds the run ended).
func (s *System) park(self *Proc) bool {
	for {
		if id := s.due.first(s.pw); id != ids.None {
			if id == self.id {
				s.wake(id)
				return true
			}
			p := s.procs[id]
			if !p.awaiting {
				return false
			}
			s.wake(id)
			if p.dead || s.awaitSteps(p, true) {
				s.ready = p
				return false
			}
			continue
		}
		if s.tick(self) {
			s.ended = true
			return false
		}
	}
}

// awaitSteps runs process p's Env.Await loop on the calling stack until
// the wait completes (true: done holds) or p parks again (false: its
// park bit and deadline are published). woken says p has just been
// woken from a park; otherwise the wait is starting, so done is
// evaluated first. The wait's clamped wake time is kept in deadlines[p],
// which nothing reads unless p's park bit is set.
//
// Each statement mirrors the Await loop it implements — done, next, and
// StepUntil's inbox drain and wake check — so the callbacks run in
// exactly that loop's order. Only p's own stack may find p dead: the
// other token holders check before stepping it, and nothing kills a
// process during a step.
func (s *System) awaitSteps(p *Proc, woken bool) bool {
	s.stepping = true
	for {
		if !woken {
			if p.waitDone != nil && p.waitDone() {
				s.stepping = false
				return true
			}
			now := s.Now()
			wake := p.waitNext(now)
			if wake <= now {
				wake = now + 1
			}
			s.deadlines[p.id] = wake
		}
		woken = false
		if p.dead {
			s.stepping = false
			panic(procKilled{})
		}
		if m := p.receive(); m != nil {
			p.waitOn(m)
			continue
		}
		if s.Now() >= s.deadlines[p.id] {
			p.waitOn(nil)
			continue
		}
		s.parkedSet.set(p.id)
		s.stepping = false
		return false
	}
}

// killAt applies an in-run crash: the process is marked dead and, if it
// was parked (in StepUntil or Await), its coroutine is stopped, which
// unwinds it before the tick proceeds. A process crashing at the very
// tick it is running the phases for (p == self) is only marked: it
// unwinds when next due or stopped at teardown, before taking any
// protocol step.
func (s *System) killAt(p, self *Proc) {
	p.dead = true
	if p != self && s.parkedSet.has(p.id) {
		s.reap(p)
	}
}

// reap unwinds one suspended process synchronously: its yield returns
// false, StepUntil or Await panics procKilled and the coroutine returns.
func (s *System) reap(p *Proc) {
	s.parkedSet.clear(p.id)
	s.inboxDue.clear(p.id)
	s.switches += 2
	p.stop()
}

// Run executes the system: it starts every registered main, then drives
// the scheduler until stop() returns true or MaxSteps elapse, and finally
// tears everything down, stopping every process coroutine. stop may be
// nil (run to MaxSteps); it runs on whichever coroutine holds the token.
func (s *System) Run(stop func() bool) Report {
	if s.ran {
		panic("sim: Run called twice")
	}
	s.ran = true
	if s.buf == nil {
		s.buf = new(Buffers)
	}
	s.borrow()
	defer s.giveBack()
	s.drive(stop)
	return Report{
		Steps:        s.Now(),
		StoppedEarly: s.stoppedEarly,
		Messages:     s.metrics.Snapshot(),
		Wakes:        s.wakes,
		Switches:     s.switches,
	}
}

// drive launches the processes and runs Run's loop: it first resumes a
// ready process (one whose Await completed on a parker's stack), then
// wakes the first due process — stepping it here if it waits in Await,
// resuming it otherwise — and runs ticks itself while no process is
// due. A resumed process holds the token until it yields back: parking
// behind another due process, exiting, or finding the run over.
func (s *System) drive(stop func() bool) {
	defer s.teardown()
	for i := 1; i <= s.cfg.N; i++ {
		p := s.procs[i]
		if s.pattern.CrashTime(p.id) <= 0 {
			p.dead = true // initial crash: never takes a step
			continue
		}
		if p.main == nil {
			continue
		}
		s.launch(p)
	}
	s.stop = stop
	s.running = true
	for !s.ended {
		if p := s.ready; p != nil {
			s.ready = nil
			s.switches += 2
			p.next()
			continue
		}
		if id := s.due.first(s.pw); id != ids.None {
			s.wake(id)
			p := s.procs[id]
			if p.awaiting && !p.dead && !s.awaitSteps(p, true) {
				continue
			}
			s.switches += 2
			p.next()
			continue
		}
		if s.tick(nil) {
			s.ended = true
		}
	}
}

// teardown stops every suspended process coroutine, in identity order.
// It runs deferred, so a panic leaving drive still leaves no coroutine
// behind; each reap is deferred in turn, so a panic while one process
// unwinds does not skip the rest. A suspended coroutine is parked, or
// awaiting with its park bit already cleared: woken for a step that a
// panic cut off on another stack. Any other coroutine has already
// returned or panicked.
func (s *System) teardown() {
	s.stepping = false // a panic may have cut a step off mid-way
	for i := s.cfg.N; i >= 1; i-- {
		p := s.procs[i]
		p.dead = true
		if s.parkedSet.has(p.id) || p.awaiting {
			defer s.reap(p)
		}
	}
}

// tick runs one scheduled tick's phases — stop checks, crashes,
// deliveries, samplers, clock advance, due-set computation — on the
// token holder's stack (self is the calling process, nil from Run's
// loop). It returns true when the run is over.
func (s *System) tick(self *Proc) bool {
	now := s.Now()
	if now >= s.cfg.MaxSteps {
		return true
	}
	if s.stop != nil && s.stop() {
		s.stoppedEarly = true
		return true
	}

	// Apply crashes scheduled at this tick (skipped in O(1) while no
	// crash is pending — crashTimes is sorted and crashIdx tracks how
	// far the run has come).
	if s.crashIdx < len(s.crashTimes) && s.crashTimes[s.crashIdx] <= now {
		for s.crashIdx < len(s.crashTimes) && s.crashTimes[s.crashIdx] <= now {
			s.crashIdx++
		}
		for i := 1; i <= s.cfg.N; i++ {
			p := s.procs[i]
			if s.pattern.CrashTime(p.id) == now {
				s.killAt(p, self)
				if s.rec != nil {
					s.rec.Crash(int64(now), i)
				}
			}
		}
	}

	if len(s.eligible) > 0 || len(s.heldTimes) > 0 {
		s.deliverPhase(now)
	}

	// Samplers observe the system at time `now` (the clock has not
	// advanced yet, so oracles read the same instant).
	for _, fn := range s.onTick {
		fn(now)
	}
	for _, fn := range s.onAdvance {
		fn(now)
	}

	// Advance the clock — by one tick, or past a provably idle stretch —
	// and select, in identity order, every process whose wait condition
	// is due. They are woken one after another, each by the parking
	// process before it (self-dispatch) or by the run loop.
	next := s.nextTime(now)
	s.now.Store(int64(next))
	var due pset
	for w := 0; w < s.pw; w++ {
		due[w] = s.parkedSet[w] & s.inboxDue[w]
		base := w << 6
		for word := s.parkedSet[w]; word != 0; word &= word - 1 {
			if s.deadlines[base+bits.TrailingZeros64(word)+1] <= next {
				due[w] |= word & -word
			}
		}
	}
	s.due = due
	return false
}

// intn returns a uniform draw in [0, n), consuming the source exactly as
// rand.New(source).Intn(n) would: the same power-of-two mask and
// rejection-sampling steps over the same Int63 stream (math/rand's
// generator and Int31n algorithm are frozen by the Go 1 compatibility
// promise, and the suite golden pins the claim byte-for-byte).
// Inlining the draw skips three nested method calls per delivered
// message — the irreducible floor of the delivery loop.
func (s *System) intn(n int) int {
	if n&(n-1) == 0 { // n is a power of two, including n == 1
		return int(int32(s.src.Int63()>>32) & int32(n-1))
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := int32(s.src.Int63() >> 32)
	for v > max {
		v = int32(s.src.Int63() >> 32)
	}
	return int(v % int32(n))
}

// sendRec is one accepted send: the fields all its copies share, and
// live, the number of its copies still in flight. A broadcast to n
// processes is one record and n entries, so the delivery queue moves
// 8-byte entries and a payload is stored once per send, not per copy.
type sendRec struct {
	from    ids.ProcID
	tag     Tag
	live    int32
	payload any
	sentAt  Time
}

// entry is one in-flight copy: the index of its send record in recs and
// its destination. Entries are what the delivery draws shuffle, small
// enough that an n = 256 all-to-all backlog stays cache-resident.
type entry struct{ rec, to int32 }

// deliverPhase releases due hold buckets into eligible and delivers up
// to Bandwidth eligible messages, chosen uniformly at random among all
// eligible ones. Deliveries land in inboxes silently; recipients are
// woken by the subsequent wake phase.
//
// Selection is the per-message swap-remove whose draw sequence defines
// the run: draw j = Intn(len(eligible)), take eligible[j], move the last
// entry into its place, Bandwidth times (or until eligible is empty).
// Each chosen copy is built from its record, stamped, straight onto its
// destination inbox, so selection order is inbox order, and its record
// is released; flushBatches then pays the per-destination costs (crash
// check, wake-hint, counter bumps) once per (destination, tag) batch
// instead of once per message.
func (s *System) deliverPhase(now Time) {
	s.route(now)
	n := len(s.eligible)
	if n == 0 {
		return
	}
	k := min(s.cfg.bandwidth(), n)
	elig, recs, procs := s.eligible, s.recs, s.procs
	for sz := n; sz > n-k; sz-- {
		j := s.intn(sz)
		e := elig[j]
		elig[j] = elig[sz-1]
		r := &recs[e.rec]
		to := ids.ProcID(e.to)
		p := procs[to]
		if !s.batched.has(to) {
			s.batched.set(to)
			s.batchStart[to] = len(p.inbox)
		}
		p.inbox = append(p.inbox, Message{
			From: r.from, To: to, Tag: r.tag, Payload: r.payload,
			SentAt: r.sentAt, DeliveredAt: now,
		})
		if r.live--; r.live == 0 {
			*r = sendRec{}
			s.recFree = append(s.recFree, e.rec)
		}
	}
	s.eligible = elig[:n-k]
	s.inflight.Add(-int64(k))
	s.flushBatches(now)
	if s.rec != nil {
		s.rec.Deliver(int64(now), k)
	}
}

// flushBatches lands the inbox tails the selection placed this tick.
// Batches to crashed destinations are dropped whole: the tail is cut
// back off the inbox and zeroed, so no payload reference outlives the
// drop and the inbox state matches per-message delivery exactly (which
// never appended to a crashed destination at all). Counters stay
// per-message-exact — equal-tag runs are counted with one bump of the
// run's length.
func (s *System) flushBatches(now Time) {
	for w := 0; w < s.pw; w++ {
		base := w << 6
		for word := s.batched[w]; word != 0; word &= word - 1 {
			to := ids.ProcID(base + bits.TrailingZeros64(word) + 1)
			p := s.procs[to]
			batch := p.inbox[s.batchStart[to]:]
			if s.pattern.Crashed(to, now) {
				s.countByTag(batch, s.metrics.countDroppedN)
				p.inbox = p.inbox[:s.batchStart[to]]
				clear(batch)
				continue
			}
			s.countByTag(batch, s.metrics.countDeliveredN)
			s.inboxDue.set(to)
		}
		s.batched[w] = 0
	}
}

// countByTag bumps a per-tag counter for every message of the batch,
// coalescing runs of equal tags (the common case: a protocol round
// lands as one same-tag batch per destination) into one bump.
func (s *System) countByTag(batch []Message, count func(Tag, int64)) {
	for i := 0; i < len(batch); {
		tag := batch[i].Tag
		j := i + 1
		for j < len(batch) && batch[j].Tag == tag {
			j++
		}
		count(tag, int64(j-i))
		i = j
	}
}

// route promotes every hold bucket whose release time has come onto
// eligible, in release order, each bucket in send order.
func (s *System) route(now Time) {
	if s.holdUntil == nil {
		// No scripted holds: no bucket can exist.
		return
	}
	released := 0
	for len(s.heldTimes) > 0 && s.heldTimes[0] <= now {
		t := s.heldTimes[0]
		s.heldTimes = s.heldTimes[1:]
		b := s.held[t]
		s.eligible = append(s.eligible, b...)
		released += len(b)
		delete(s.held, t)
		s.bucketPool = append(s.bucketPool, b[:0])
	}
	if s.rec != nil {
		s.rec.HoldRelease(int64(now), released)
	}
}

// nextTime picks the next scheduled tick: now+1 when anything is pending
// for it, otherwise the earliest future tick at which something can
// happen (a hold release, a crash, a declared process wake, an external
// hint) — capping at MaxSteps. Dense mode (OnTick) never skips.
func (s *System) nextTime(now Time) Time {
	if len(s.onTick) > 0 {
		return now + 1
	}
	if len(s.eligible) > 0 {
		return now + 1
	}

	next := s.cfg.MaxSteps
	if len(s.heldTimes) > 0 && s.heldTimes[0] < next {
		next = s.heldTimes[0]
	}
	if s.crashIdx < len(s.crashTimes) {
		if ct := s.crashTimes[s.crashIdx]; ct > now && ct < next {
			next = ct
		}
	}
	if s.parkedSet.intersects(&s.inboxDue, s.pw) {
		return now + 1
	}
	for w := 0; w < s.pw; w++ {
		base := w << 6
		for word := s.parkedSet[w]; word != 0; word &= word - 1 {
			if d := s.deadlines[base+bits.TrailingZeros64(word)+1]; d < next {
				next = d
			}
		}
	}
	if s.hintLen.Load() > 0 {
		s.hintMu.Lock()
		for len(s.hints) > 0 && s.hints[0] <= now {
			s.hints = s.hints[1:]
		}
		if len(s.hints) > 0 && s.hints[0] < next {
			next = s.hints[0]
		}
		s.hintLen.Store(int32(len(s.hints)))
		s.hintMu.Unlock()
	}
	if next <= now {
		return now + 1
	}
	return next
}

// accept opens the record of a send of copies copies from from, or
// refuses it (ok false) when from has crashed. Called from process
// coroutines, which hold the run token — so the queues need no lock.
// accept owns the SentAt stamp: it is set here, at acceptance time, and
// nowhere else, so every accepted message satisfies SentAt < crash time
// of its sender. A multi-copy send pays the liveness check, clock read
// and stamp once: the caller holds the run token for the whole fan-out,
// so the clock and the crash predicate cannot change mid-loop, and
// every copy matches an individual send exactly.
func (s *System) accept(from ids.ProcID, tag Tag, payload any, copies int) (rec int32, now Time, ok bool) {
	now = s.Now()
	if s.pattern.Crashed(from, now) {
		return 0, now, false
	}
	r := sendRec{from: from, tag: tag, live: int32(copies), payload: payload, sentAt: now}
	if k := len(s.recFree); k > 0 {
		rec = s.recFree[k-1]
		s.recFree = s.recFree[:k-1]
		s.recs[rec] = r
	} else {
		rec = int32(len(s.recs))
		s.recs = append(s.recs, r)
	}
	s.inflight.Add(int64(copies))
	s.metrics.countSentN(tag, int64(copies))
	return rec, now, true
}

// send is the one-copy send behind Env.Send.
func (s *System) send(from, to ids.ProcID, tag Tag, payload any) {
	if rec, now, ok := s.accept(from, tag, payload, 1); ok {
		s.queue(entry{rec: rec, to: int32(to)}, from, now)
	}
}

// broadcast is the fan-out fast path behind Env.Broadcast: one record,
// and copies to 1..N in destination order.
func (s *System) broadcast(from ids.ProcID, tag Tag, payload any) {
	n := s.cfg.N
	rec, now, ok := s.accept(from, tag, payload, n)
	if !ok {
		return
	}
	if s.holdUntil == nil {
		// Grow once, then write the copies by index: the per-copy cost is
		// one 8-byte store, with no per-append bounds/grow bookkeeping.
		base := len(s.eligible)
		s.eligible = slices.Grow(s.eligible, n)[:base+n]
		dst := s.eligible[base:]
		for q := range dst {
			dst[q] = entry{rec: rec, to: int32(q + 1)}
		}
		return
	}
	for q := 1; q <= n; q++ {
		s.queueHeld(entry{rec: rec, to: int32(q)}, from, now)
	}
}

// multicast fans one payload out to every member of dests (ascending),
// with the same single-record fast path as broadcast.
func (s *System) multicast(from ids.ProcID, dests ids.Set, tag Tag, payload any) {
	count := dests.CountIn(s.cfg.N)
	if count == 0 {
		return
	}
	rec, now, ok := s.accept(from, tag, payload, count)
	if !ok {
		return
	}
	dests.ForEachIn(s.cfg.N, func(q ids.ProcID) bool {
		s.queue(entry{rec: rec, to: int32(q)}, from, now)
		return true
	})
}

// queue routes one copy accepted at now: straight onto eligible when
// the run scripts no holds, else through queueHeld.
func (s *System) queue(e entry, from ids.ProcID, now Time) {
	if s.holdUntil == nil {
		s.eligible = append(s.eligible, e)
		return
	}
	s.queueHeld(e, from, now)
}

// queueHeld routes a copy from from, accepted at now under scripted
// holds: onto eligible if its hold has already passed, else into the
// bucket of the tick its hold releases it. Routing at send time builds
// exactly the eligible list and buckets that routing in the next
// delivery phase would, because every send is accepted at the tick
// whose delivery phase comes next: processes step at the clock value
// the next tick reads, and no OnTick/OnAdvance sampler sends (a send
// after a tick's delivery phase would be routed against the wrong clock
// value).
func (s *System) queueHeld(e entry, from ids.ProcID, now Time) {
	nb := s.holdFor(from, ids.ProcID(e.to), now)
	if nb <= now {
		s.eligible = append(s.eligible, e)
		return
	}
	b, ok := s.held[nb]
	if !ok {
		i := sort.Search(len(s.heldTimes), func(i int) bool { return s.heldTimes[i] >= nb })
		s.heldTimes = append(s.heldTimes, 0)
		copy(s.heldTimes[i+1:], s.heldTimes[i:])
		s.heldTimes[i] = nb
		if n := len(s.bucketPool); n > 0 {
			b = s.bucketPool[n-1]
			s.bucketPool = s.bucketPool[:n-1]
		}
	}
	s.held[nb] = append(b, e)
}

// holdFor computes the release time for a (from, to) copy accepted at
// now: the static hold matrix entry, raised by any active hold window.
func (s *System) holdFor(from, to ids.ProcID, now Time) Time {
	idx := int(from)*(s.cfg.N+1) + int(to)
	nb := s.holdUntil[idx]
	if s.holdWins != nil {
		for _, w := range s.holdWins[idx] {
			if w.since <= now && now < w.until && w.until > nb {
				nb = w.until
			}
		}
	}
	return nb
}

// InFlight returns the number of undelivered messages (diagnostics).
// Safe from any goroutine.
func (s *System) InFlight() int {
	return int(s.inflight.Load())
}
