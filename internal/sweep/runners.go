package sweep

import (
	"fmt"
	"sort"

	"fdgrid/internal/adversary"
	"fdgrid/internal/agreement"
	"fdgrid/internal/core"
	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/rbcast"
	"fdgrid/internal/reduction"
	"fdgrid/internal/sim"
)

// The built-in cell runners: every experiment family of DESIGN.md §5
// (the paper's figures and theorems) expressed as a protocol a Matrix
// can sweep. Registered under these names:
//
//	kset-grid      — grid class → prescribed transformation → Fig. 3 k-set
//	kset-omega     — Fig. 3 directly over a (possibly pinned) Ω_z oracle
//	kset-seq       — repeated Fig. 3 instances (zero-degradation)
//	consensus-ds   — the ◇S rotating-coordinator consensus ancestor
//	two-wheels     — ◇S_x + ◇φ_y → Ω_z (Figs. 5–6), trace-checked
//	single-wheel   — the companion quiescent ◇S → Ω transformation
//	lower-wheel    — Fig. 5 alone: representatives + quiescence
//	psi-omega      — Ψ_y → Ω_z (Fig. 8), message-free
//	add-s          — S_x + φ_y → S_n (Fig. 9) over a register substrate
//	phi-o1         — Observation O1: f ≤ t−y ⇒ informative queries false
//	irreducibility — Theorem 9 crash-vs-delay run pair, one claimed τ
func init() {
	Register("kset-grid", runKSetGrid)
	Register("kset-omega", runKSetOmega)
	Register("kset-seq", runKSetSeq)
	Register("consensus-ds", runConsensusDS)
	Register("two-wheels", runTwoWheels)
	Register("single-wheel", runSingleWheel)
	Register("lower-wheel", runLowerWheel)
	Register("psi-omega", runPsiOmega)
	Register("add-s", runAddS)
	Register("phi-o1", runPhiO1)
	Register("irreducibility", runIrreducibility)
}

// recordRun copies the run report into the result.
func recordRun(res *CellResult, rep sim.Report) {
	countRun(res, rep)
	res.Steps = rep.Steps
	res.StoppedEarly = rep.StoppedEarly
	res.Messages = rep.Messages.TotalSent
	if len(rep.Messages.Sent) > 0 {
		res.SentByTag = rep.Messages.Sent
	}
}

// countRun adds a run's scheduler diagnostics to the result, for cells
// that run several systems as well as those that record one.
func countRun(res *CellResult, rep sim.Report) {
	res.Wakes += rep.Wakes
	res.Switches += rep.Switches
}

// recordOutcome copies agreement results into the result.
func recordOutcome(res *CellResult, o *agreement.Outcome) {
	vals := o.DistinctValues()
	res.Decided = make([]int, len(vals))
	for i, v := range vals {
		res.Decided[i] = int(v)
	}
	res.Decisions = len(o.Decisions())
	res.MaxRound = o.MaxRound()
}

// checkRound1 fails the cell unless every decision happened in round 1.
func checkRound1(res *CellResult, o *agreement.Outcome) {
	for _, d := range o.Decisions() {
		if d.Round != 1 {
			res.fail(fmt.Sprintf("decision in round %d, want 1", d.Round))
			return
		}
	}
}

// runKSetGrid: one grid class solves its line's k-set agreement through
// the transformations the paper prescribes (EXP-F1, and EXP-F3 shapes).
func runKSetGrid(c *Cell, res *CellResult) {
	sys, err := c.System()
	if err != nil {
		panic(err)
	}
	if !requireNoOracle(c, res) {
		return
	}
	out, err := core.SpawnKSetWith(sys, c.Combo.Class(), nil)
	if err != nil {
		panic(err)
	}
	k := c.Combo.Z
	if k == 0 {
		k = core.KSetPower(c.Combo.Class(), c.Size.T)
	}
	rep := sys.Run(out.AllDecided(sys.Pattern().Correct()))
	recordRun(res, rep)
	recordOutcome(res, out)
	if !rep.StoppedEarly {
		res.fail("timed out before all correct processes decided")
	}
	if err := out.Check(sys.Pattern(), k); err != nil {
		res.fail(err.Error())
	}
}

// tagOracle records the cell's generated-oracle identity and its
// fd/check.go conformance verdict on the result. It returns false when
// the script leaves its declared class under this cell's failure
// pattern — the cell fails and the protocol run is skipped (running a
// protocol over an out-of-class oracle proves nothing and can block
// until the step cap).
func tagOracle(c *Cell, sys *sim.System, res *CellResult) bool {
	s := &c.Oracle
	if s.None() {
		return true
	}
	res.OracleClass = s.Class()
	if err := s.Conformance(sys.Pattern(), c.MaxSteps); err != nil {
		res.OracleConformance = "violates: " + err.Error()
		res.fail("generated oracle script leaves its declared class: " + err.Error())
		return false
	}
	res.OracleConformance = "conforms"
	return true
}

// failOracle marks a cell misconfigured over a script shape mismatch or
// a pinning conflict — matrix-author mistakes, reported as ConfigError
// rather than Fail so they never read as paper-claim counterexamples —
// recording the script's class first so every rejection path keeps the
// report row's class tag. Returns false for use in the resolvers'
// return statements.
func failOracle(res *CellResult, s *adversary.OracleScript, format string, args ...any) bool {
	res.OracleClass = s.Class()
	res.failConfig(fmt.Sprintf(format, args...))
	return false
}

// requireNoOracle fails cells that declare a generated oracle for a
// protocol that does not consume the oracle dimension — better a loud
// failure than a sweep silently ignoring one of its axes.
func requireNoOracle(c *Cell, res *CellResult) bool {
	if c.Oracle.None() {
		return true
	}
	return failOracle(res, &c.Oracle, "protocol %q does not consume the generated-oracle dimension (script %s)", c.Protocol, c.Oracle.Name)
}

// oracleLeader resolves the cell's oracle dimension for a leader-reading
// protocol: a leader timeline becomes a ScriptedLeader, a parameter
// script configures the ground-truth Ω_z, and the zero script falls back
// to the cell's default Ω oracle. ok=false means the cell already
// failed (nonconforming script or a script of the wrong shape).
func oracleLeader(c *Cell, sys *sim.System, res *CellResult, z int) (oracle fd.Leader, ok bool) {
	s := &c.Oracle
	if s.None() {
		return omegaOracle(c, sys, z), true
	}
	if s.IsPair() {
		return nil, failOracle(res, s, "oracle script %s is a pair; protocol %q reads a single leader oracle", s.Name, c.Protocol)
	}
	if len(s.Suspect) > 0 {
		return nil, failOracle(res, s, "oracle script %s is a suspector timeline; protocol %q reads a leader", s.Name, c.Protocol)
	}
	// The default path's oracle pinning must not be silently dropped:
	// stab0 contradicts any generated script (both fix the stabilization
	// time), and a pinned trusted set contradicts a timeline (the script
	// already fixes every output) but composes with a parameter script.
	if c.Param("stab0", 0) != 0 {
		return nil, failOracle(res, s, "param stab0 conflicts with generated oracle script %s (both pin the stabilization time)", s.Name)
	}
	if len(s.Leader) > 0 && len(c.Combo.Trusted) > 0 {
		return nil, failOracle(res, s, "combo pins a trusted set but oracle script %s already fixes the timeline", s.Name)
	}
	// Timelines always declare their bound; a parameter script declares
	// one optionally, and an undeclared bound composes with any combo.
	if s.Z != 0 && s.Z != z {
		return nil, failOracle(res, s, "oracle script %s declares z=%d, combo wants z=%d", s.Name, s.Z, z)
	}
	if !tagOracle(c, sys, res) {
		return nil, false
	}
	if len(s.Leader) > 0 {
		return fd.NewScriptedLeader(sys, s.Leader), true
	}
	opts := s.Options()
	if len(c.Combo.Trusted) > 0 {
		opts = append(opts, fd.WithTrusted(set(c.Combo.Trusted)))
	}
	return fd.NewOmega(sys, z, opts...), true
}

// oracleSuspector is oracleLeader for suspector-reading protocols: a
// suspect timeline becomes a ScriptedSuspector, a parameter script
// configures the ground-truth ◇S_x, and the zero script falls back to
// the plain ◇S_x.
func oracleSuspector(c *Cell, sys *sim.System, res *CellResult, x int) (susp fd.Suspector, ok bool) {
	s := &c.Oracle
	if s.None() {
		return fd.NewEvtS(sys, x), true
	}
	if s.IsPair() {
		return nil, failOracle(res, s, "oracle script %s is a pair; protocol %q reads a single suspector oracle", s.Name, c.Protocol)
	}
	if len(s.Leader) > 0 {
		return nil, failOracle(res, s, "oracle script %s is a leader timeline; protocol %q reads a suspector", s.Name, c.Protocol)
	}
	// Timelines always declare their scope; a parameter script declares
	// one optionally, and an undeclared scope composes with any combo.
	if s.X != 0 && s.X != x {
		return nil, failOracle(res, s, "oracle script %s declares x=%d, combo wants x=%d", s.Name, s.X, x)
	}
	if !tagOracle(c, sys, res) {
		return nil, false
	}
	if len(s.Suspect) > 0 {
		return fd.NewScriptedSuspector(sys, s.Suspect), true
	}
	return fd.NewEvtS(sys, x, s.Options()...), true
}

// oraclePhiOpts resolves the cell's oracle dimension for a
// querier-reading protocol, where only parameter scripts make sense:
// it returns the ground-truth options plus whether the oracle is the
// eventual flavor (a generated parameter script always is — its whole
// point is a misbehaving prefix).
func oraclePhiOpts(c *Cell, sys *sim.System, res *CellResult, y int) (opts []fd.Option, eventual, ok bool) {
	s := &c.Oracle
	if s.None() {
		return nil, false, true
	}
	if s.IsPair() {
		return nil, false, failOracle(res, s, "oracle script %s is a pair; protocol %q reads a single querier oracle", s.Name, c.Protocol)
	}
	if s.IsTimeline() {
		return nil, false, failOracle(res, s, "oracle script %s is a timeline; protocol %q reads a querier", s.Name, c.Protocol)
	}
	// A parameter script declares its querier scope optionally; an
	// undeclared scope composes with any combo.
	if s.Y != 0 && s.Y != y {
		return nil, false, failOracle(res, s, "oracle script %s declares y=%d, combo wants y=%d", s.Name, s.Y, y)
	}
	if !tagOracle(c, sys, res) {
		return nil, false, false
	}
	return s.Options(), true, true
}

// roleVerdict renders one role's conformance error as a report verdict.
func roleVerdict(err error) string {
	if err == nil {
		return "conforms"
	}
	return "violates: " + err.Error()
}

// jointViolation renders the combined reason of a pair's role failures.
func jointViolation(sErr, phiErr error) string {
	switch {
	case sErr != nil && phiErr != nil:
		return fmt.Sprintf("S role: %v; phi role: %v", sErr, phiErr)
	case sErr != nil:
		return fmt.Sprintf("S role: %v", sErr)
	default:
		return fmt.Sprintf("phi role: %v", phiErr)
	}
}

// tagOraclePair is tagOracle for paired scripts: each role is checked
// against its declared class — the perpetual flavors when the cell runs
// the perpetual addition — under this cell's failure pattern, the
// per-role verdicts land in OracleS/OraclePhi and the joint verdict in
// OracleConformance. false means the pair leaves its declared classes
// and the cell failed (the protocol run is skipped: running an addition
// over an out-of-class input pair proves nothing).
func tagOraclePair(c *Cell, sys *sim.System, res *CellResult, perpetual bool) bool {
	s := &c.Oracle
	res.OracleClass = s.Class()
	sErr := s.Pair.SConformance(sys.Pattern(), c.MaxSteps, perpetual)
	phiErr := s.Pair.PhiConformance(sys.Pattern(), c.MaxSteps, perpetual)
	res.OracleS = roleVerdict(sErr)
	res.OraclePhi = roleVerdict(phiErr)
	if sErr == nil && phiErr == nil {
		res.OracleConformance = "conforms"
		return true
	}
	why := jointViolation(sErr, phiErr)
	res.OracleConformance = "violates: " + why
	res.fail("generated oracle pair leaves its declared classes: " + why)
	return false
}

// oraclePair resolves a paired script into the two role oracles of an
// addition protocol: the S role becomes a scripted suspector (suspect
// timeline) or a parameterized ground-truth S_x/◇S_x, the φ role a
// parameterized ground-truth φ_y/◇φ_y. ok=false means the cell already
// failed — a role/scope mismatch (ConfigError) or a nonconforming pair
// (Fail).
func oraclePair(c *Cell, sys *sim.System, res *CellResult, x, y int, perpetual bool) (susp fd.Suspector, quer *fd.Phi, ok bool) {
	s := &c.Oracle
	p := s.Pair
	if p.S.X != x {
		failOracle(res, s, "oracle pair %s declares S-role x=%d, combo wants x=%d", s.Name, p.S.X, x)
		return nil, nil, false
	}
	if p.Phi.Y != y {
		failOracle(res, s, "oracle pair %s declares phi-role y=%d, combo wants y=%d", s.Name, p.Phi.Y, y)
		return nil, nil, false
	}
	if c.Param("stab0", 0) != 0 {
		failOracle(res, s, "param stab0 conflicts with generated oracle pair %s (both pin the stabilization time)", s.Name)
		return nil, nil, false
	}
	if len(c.Combo.Trusted) > 0 {
		failOracle(res, s, "combo pins a trusted set but oracle pair %s scripts the suspector role", s.Name)
		return nil, nil, false
	}
	if !tagOraclePair(c, sys, res, perpetual) {
		return nil, nil, false
	}
	switch {
	case len(p.S.Suspect) > 0:
		susp = fd.NewScriptedSuspector(sys, p.S.Suspect)
	case perpetual:
		susp = fd.NewS(sys, x, p.S.Options()...)
	default:
		susp = fd.NewEvtS(sys, x, p.S.Options()...)
	}
	if perpetual {
		quer = fd.NewPhi(sys, y, p.Phi.Options()...)
	} else {
		quer = fd.NewEvtPhi(sys, y, p.Phi.Options()...)
	}
	return susp, quer, true
}

// omegaOracle builds the cell's Ω oracle with optional pinning.
func omegaOracle(c *Cell, sys *sim.System, z int) *fd.Omega {
	var opts []fd.Option
	if c.Param("stab0", 0) != 0 {
		opts = append(opts, fd.WithStabilizeAt(0))
	}
	if len(c.Combo.Trusted) > 0 {
		opts = append(opts, fd.WithTrusted(set(c.Combo.Trusted)))
	}
	return fd.NewOmega(sys, z, opts...)
}

// runKSetOmega: the Fig. 3 algorithm over a ground-truth Ω_z oracle —
// covers EXP-F3 (scaling), EXP-F3a/b (oracle-efficiency and
// zero-degradation, via stab0/trusted pinning and require_round1) and
// the EXP-T5 z ≤ k tightness cells.
func runKSetOmega(c *Cell, res *CellResult) {
	sys, err := c.System()
	if err != nil {
		panic(err)
	}
	z := c.Combo.Z
	if z == 0 {
		z = 1
	}
	oracle, ok := oracleLeader(c, sys, res, z)
	if !ok {
		return
	}
	fd.TraceLeader(sys, oracle, "oracle")
	out := agreement.NewOutcome()
	for p := 1; p <= c.Size.N; p++ {
		id := ids.ProcID(p)
		sys.Spawn(id, agreement.KSetMain(oracle, agreement.Value(int(c.Param("value_base", 100))+p), out))
	}
	rep := sys.Run(out.AllDecided(sys.Pattern().Correct()))
	recordRun(res, rep)
	recordOutcome(res, out)
	if !rep.StoppedEarly {
		res.fail("timed out before all correct processes decided")
	}
	k := int(c.Param("k", int64(z)))
	if err := out.Check(sys.Pattern(), k); err != nil {
		res.fail(err.Error())
	}
	if c.Param("require_round1", 0) != 0 {
		checkRound1(res, out)
	}
}

// runKSetSeq: consecutive independent k-set instances under a perfect
// pinned oracle and initial crashes — zero-degradation in use (EXP-ZD).
func runKSetSeq(c *Cell, res *CellResult) {
	sys, err := c.System()
	if err != nil {
		panic(err)
	}
	z := c.Combo.Z
	if z == 0 {
		z = 1
	}
	oracle, ok := oracleLeader(c, sys, res, z)
	if !ok {
		return
	}
	fd.TraceLeader(sys, oracle, "oracle")
	instances := int(c.Param("instances", 4))
	outs := make([]*agreement.Outcome, instances)
	for j := range outs {
		outs[j] = agreement.NewOutcome()
	}
	for p := 1; p <= c.Size.N; p++ {
		id := ids.ProcID(p)
		vals := make([]agreement.Value, instances)
		for j := range vals {
			vals[j] = agreement.Value(100*(j+1) + p)
		}
		sys.Spawn(id, agreement.SequenceMain(oracle, vals, outs))
	}
	rep := sys.Run(agreement.AllInstancesDecided(outs, sys.Pattern().Correct()))
	recordRun(res, rep)
	res.measure("vticks_per_instance", int64(rep.Steps)/int64(instances))
	if !rep.StoppedEarly {
		res.fail("timed out before every instance decided")
	}
	for j, o := range outs {
		if err := o.Check(sys.Pattern(), z); err != nil {
			res.fail(fmt.Sprintf("instance %d: %v", j, err))
		}
		checkRound1(res, o)
	}
}

// runConsensusDS: the rotating-coordinator ◇S consensus of [18]
// (baseline for Fig. 3 at z = k = 1).
func runConsensusDS(c *Cell, res *CellResult) {
	sys, err := c.System()
	if err != nil {
		panic(err)
	}
	susp, ok := oracleSuspector(c, sys, res, c.Size.N)
	if !ok {
		return
	}
	fd.TraceSuspector(sys, susp, "oracle")
	out := agreement.NewOutcome()
	for p := 1; p <= c.Size.N; p++ {
		id := ids.ProcID(p)
		sys.Spawn(id, agreement.ConsensusDSMain(susp, agreement.Value(int(id)), out))
	}
	rep := sys.Run(out.AllDecided(sys.Pattern().Correct()))
	recordRun(res, rep)
	recordOutcome(res, out)
	if !rep.StoppedEarly {
		res.fail("timed out before all correct processes decided")
	}
	if err := out.Check(sys.Pattern(), 1); err != nil {
		res.fail(err.Error())
	}
}

// watchMark installs a sparse sampler recording the wire traffic of tag
// at the first scheduled tick at or after mark.
func watchMark(sys *sim.System, tag sim.Tag, mark sim.Time, res *CellResult, name string) {
	if mark <= 0 {
		return
	}
	sys.WakeAt(mark)
	done := false
	sys.OnAdvance(func(now sim.Time) {
		if done || now < mark {
			return
		}
		done = true
		res.measure(name, sys.Metrics().Sent(tag))
	})
}

// stabilizationOf returns the latest output change among correct
// processes.
func stabilizationOf(trace *fd.SetTrace, correct ids.Set) sim.Time {
	var last sim.Time
	correct.ForEach(func(q ids.ProcID) bool {
		if lc := trace.LastChange(q); lc > last {
			last = lc
		}
		return true
	})
	return last
}

// runTwoWheels: the addition ◇S_x + ◇φ_y → Ω_z (EXP-F2, EXP-F6, EXP-T8).
// Params: stable_for (early stop once outputs rested that long), margin
// (Ω check stable suffix), mark (inquiry traffic sample point),
// require_nonquiescent (inquiries must continue past mark),
// expect_tight (the Ω_{z−1} check must fail: the resting set has full
// size z).
func runTwoWheels(c *Cell, res *CellResult) {
	sys, err := c.System()
	if err != nil {
		panic(err)
	}
	x, y := c.Combo.X, c.Combo.Y
	z := c.Combo.Z
	if z == 0 {
		z = c.Size.T + 2 - x - y
	}
	var susp fd.Suspector
	var quer *fd.Phi
	if c.Oracle.IsPair() {
		// A paired script drives both roles independently: its own ◇S_x
		// script for the suspector, its own ◇φ_y parameters for the
		// querier, each conformance-checked against its declared class.
		var ok bool
		susp, quer, ok = oraclePair(c, sys, res, x, y, false)
		if !ok {
			return
		}
	} else {
		var ok bool
		susp, ok = oracleSuspector(c, sys, res, x)
		if !ok {
			return
		}
		// A single parameter script configures the whole oracle
		// environment, and two-wheels reads two oracles: the ◇φ_y gets the
		// same stabilization/anarchy configuration as the ◇S_x, or the
		// swept dimension would be silently half-applied. (Timeline
		// scripts name a single role — the suspector — and leave the
		// querier default.)
		if s := &c.Oracle; !s.None() && !s.IsTimeline() {
			quer = fd.NewEvtPhi(sys, y, s.Options()...)
		} else {
			quer = fd.NewEvtPhi(sys, y)
		}
	}
	fd.TraceSuspector(sys, susp, "oracle-s")
	emu, _ := reduction.SpawnTwoWheels(sys, susp, quer, x, y)
	fd.TraceLeader(sys, emu, "emu")
	// The emulated Trusted consults the querier live; the emulation's
	// change hint is the querier's, so the sparse watcher schedules every
	// tick the output can change at.
	trace := fd.WatchLeaderSparse(sys, emu)
	watchMark(sys, sim.Intern("wheel.inquiry"), sim.Time(c.Param("mark", 0)), res, "inquiries_at_mark")
	var stop func() bool
	if sf := sim.Time(c.Param("stable_for", 0)); sf > 0 {
		stop = trace.StableFor(sys.Pattern().Correct(), sf)
	}
	rep := sys.Run(stop)
	recordRun(res, rep)
	margin := sim.Time(c.Param("margin", 10_000))
	if err := trace.CheckOmega(sys.Pattern(), z, margin); err != nil {
		res.fail(err.Error())
	}
	res.measure("stabilization", int64(stabilizationOf(trace, sys.Pattern().Correct())))
	if z > 1 {
		tighter := trace.CheckOmega(sys.Pattern(), z-1, margin) == nil
		if tighter {
			res.measure("z_minus_1_passes", 1)
		} else {
			res.measure("z_minus_1_passes", 0)
		}
		if c.Param("expect_tight", 0) != 0 && tighter {
			res.fail(fmt.Sprintf("output rested on fewer than z=%d processes: x+y+z ≥ t+2 not tight here", z))
		}
	}
	if c.Param("mark", 0) > 0 {
		end := rep.Messages.Sent["wheel.inquiry"]
		res.measure("inquiries_end", end)
		if c.Param("require_nonquiescent", 0) != 0 {
			at := res.Measures["inquiries_at_mark"]
			if at <= 0 || end <= at {
				res.fail("inquiry traffic stopped: the upper wheel must keep inquiring forever")
			}
		}
	}
}

// runSingleWheel: the companion transformation [17] — quiescent, needs
// full-scope ◇S (the EXP-ABL counterpart of two-wheels with y=0).
func runSingleWheel(c *Cell, res *CellResult) {
	sys, err := c.System()
	if err != nil {
		panic(err)
	}
	susp, ok := oracleSuspector(c, sys, res, c.Size.N)
	if !ok {
		return
	}
	fd.TraceSuspector(sys, susp, "oracle")
	emu := reduction.SpawnSingleWheel(sys, susp)
	fd.TraceLeader(sys, emu, "emu")
	trace := fd.WatchLeaderSparse(sys, emu)
	var stop func() bool
	if sf := sim.Time(c.Param("stable_for", 0)); sf > 0 {
		stop = trace.StableFor(sys.Pattern().Correct(), sf)
	}
	rep := sys.Run(stop)
	recordRun(res, rep)
	if err := trace.CheckOmega(sys.Pattern(), 1, sim.Time(c.Param("margin", 10_000))); err != nil {
		res.fail(err.Error())
	}
	res.measure("stabilization", int64(stabilizationOf(trace, sys.Pattern().Correct())))
}

// runLowerWheel: Fig. 5 alone (EXP-F5) — every correct process rests on
// the same (ℓ, X) pair, and x_move traffic is quiescent: no sends after
// the mark.
func runLowerWheel(c *Cell, res *CellResult) {
	sys, err := c.System()
	if err != nil {
		panic(err)
	}
	x := c.Combo.X
	susp, ok := oracleSuspector(c, sys, res, x)
	if !ok {
		return
	}
	fd.TraceSuspector(sys, susp, "oracle")
	reprs := reduction.SpawnLowerWheel(sys, susp, x)
	wire := rbcast.WireTag(sim.Intern("wheel.xmove"))
	mark := sim.Time(c.Param("mark", 0))
	watchMark(sys, wire, mark, res, "xmove_at_mark")
	rep := sys.Run(nil)
	recordRun(res, rep)

	stable := true
	var pos ids.XPos
	first := true
	sys.Pattern().Correct().ForEach(func(p ids.ProcID) bool {
		pp, ok := reprs.Pos(p)
		if !ok {
			stable = false
			return false
		}
		if first {
			pos, first = pp, false
		} else if pp.Leader != pos.Leader || !pp.X.Equal(pos.X) {
			stable = false
		}
		return true
	})
	if !stable {
		res.fail("correct processes did not rest on a common (leader, X) pair")
	}
	end := rep.Messages.Sent[wire.String()]
	res.measure("xmove_end", end)
	if mark > 0 {
		at, ok := res.Measures["xmove_at_mark"]
		if !ok || end != at {
			res.fail(fmt.Sprintf("x_move traffic not quiescent: %d sends at mark, %d at end", at, end))
		}
	}
}

// runPsiOmega: Ψ_y → Ω_z for y+z > t (EXP-F8) — local chain queries,
// zero messages. The watched output is a pure oracle chain that churns
// with the clock before stabilization; its change hint is the querier's,
// so the watcher samples it at exactly the ticks it can change at and
// the clock jumps in between.
func runPsiOmega(c *Cell, res *CellResult) {
	sys, po, ok := psiOmegaSystem(c, res)
	if !ok {
		return
	}
	fd.TraceLeader(sys, po, "emu")
	trace := fd.WatchLeader(sys, po)
	rep := sys.Run(nil)
	recordRun(res, rep)
	if err := trace.CheckOmega(sys.Pattern(), c.Combo.Z, sim.Time(c.Param("margin", 1_000))); err != nil {
		res.fail(err.Error())
	}
	if rep.Messages.TotalSent != 0 {
		res.fail(fmt.Sprintf("sent %d messages, want 0", rep.Messages.TotalSent))
	}
}

// psiOmegaSystem builds a psi-omega cell's system and its Ψ_y → Ω_z
// chain; ok is false when the cell's oracle script was rejected (res
// then carries the verdict).
func psiOmegaSystem(c *Cell, res *CellResult) (*sim.System, *reduction.PsiOmega, bool) {
	sys, err := c.System()
	if err != nil {
		panic(err)
	}
	y, z := c.Combo.Y, c.Combo.Z
	opts, eventual, ok := oraclePhiOpts(c, sys, res, y)
	if !ok {
		return nil, nil, false
	}
	var phi *fd.Phi
	if eventual {
		phi = fd.NewEvtPhi(sys, y, opts...)
	} else {
		phi = fd.NewPhi(sys, y)
	}
	psi := fd.WrapPsi(phi)
	return sys, reduction.NewPsiOmega(c.Size.N, c.Size.T, y, z, psi), true
}

// PsiOmegaTrace runs psi-omega cell c's oracle chain with no stop
// predicate, recording its output with watch, and returns the trace:
// runPsiOmega's run without its checks. With watch = fd.WatchLeader it
// is the runner's hinted trace; with fd.WatchLeaderDense the same
// timeline sampled on every tick, the reference the hinted one must
// equal.
func PsiOmegaTrace(c Cell, watch func(*sim.System, fd.Leader) *fd.SetTrace) (*fd.SetTrace, error) {
	if c.Protocol != "psi-omega" {
		return nil, fmt.Errorf("sweep: PsiOmegaTrace on a %q cell", c.Protocol)
	}
	var res CellResult
	sys, po, ok := psiOmegaSystem(&c, &res)
	if !ok {
		return nil, fmt.Errorf("sweep: %s cell %d: %s", c.Matrix, c.Index, res.Detail)
	}
	trace := watch(sys, po)
	sys.Run(nil)
	return trace, nil
}

// runAddS: S_x + φ_y → S_n over a register substrate named by the combo
// (EXP-F9). Params: perpetual (inputs and output are the perpetual
// classes), margin (checker stable suffix), stop_slack (extra rest time
// past the margin before the early stop; default margin/5).
func runAddS(c *Cell, res *CellResult) {
	sys, err := c.System()
	if err != nil {
		panic(err)
	}
	x, y := c.Combo.X, c.Combo.Y
	perpetual := c.Param("perpetual", 1) != 0
	var susp fd.Suspector
	var quer fd.Querier
	if c.Oracle.IsPair() {
		// A paired script names one oracle per role — the only shape the
		// generated dimension can take here, since add-s consumes two
		// oracles and a single script would be ambiguous about which role
		// it drives.
		s, q, ok := oraclePair(c, sys, res, x, y, perpetual)
		if !ok {
			return
		}
		susp, quer = s, q
	} else {
		if !requireNoOracle(c, res) {
			return
		}
		if perpetual {
			susp, quer = fd.NewS(sys, x), fd.NewPhi(sys, y)
		} else {
			susp, quer = fd.NewEvtS(sys, x), fd.NewEvtPhi(sys, y)
		}
	}
	fd.TraceSuspector(sys, susp, "oracle-s")
	emu := reduction.SpawnAddS(sys, susp, quer, c.Combo.Name)
	fd.TraceSuspector(sys, emu, "emu")
	trace := fd.WatchSuspectorSparse(sys, emu)
	margin := sim.Time(c.Param("margin", 20_000))
	// Stop once every correct process's output has rested well past the
	// checker's stable-suffix margin: running further cannot change the
	// verdict, only burn virtual time. The rest slack scales with the
	// margin so large-margin cells don't stop inside the checker's
	// window.
	slack := sim.Time(c.Param("stop_slack", int64(margin/5)))
	rep := sys.Run(trace.StableFor(sys.Pattern().Correct(), margin+slack))
	recordRun(res, rep)
	if err := trace.CheckSuspector(sys.Pattern(), c.Size.N, perpetual, margin); err != nil {
		res.fail(err.Error())
	}
}

// runPhiO1: Observation O1 — with f ≤ t−y crashes, a φ_y answers every
// informative query false (it can only vouch by size). Sampled densely
// at the tick Params["at"].
func runPhiO1(c *Cell, res *CellResult) {
	sys, err := c.System()
	if err != nil {
		panic(err)
	}
	if !requireNoOracle(c, res) {
		return
	}
	y := c.Combo.Y
	phi := fd.NewPhi(sys, y)
	at := sim.Time(c.Param("at", 1_500))
	ringX := int(c.Param("ring_x", int64(c.Size.T)))
	informative := true
	sys.OnTick(func(now sim.Time) {
		if now != at {
			return
		}
		r := ids.NewRing(ids.FullSet(c.Size.N), ringX)
		for i := uint64(0); i < r.Len(); i++ {
			if phi.Query(ids.ProcID(1+int(i)%c.Size.N), r.Current()) {
				informative = false
			}
			r.Next()
		}
	})
	rep := sys.Run(nil)
	recordRun(res, rep)
	if !informative {
		res.fail("an informative region queried true with f ≤ t−y crashes")
	}
}

// runIrreducibility: one Theorem 9 crash-vs-delay cell — for the claimed
// stabilization time τ = Params["tau"], run R (region E crashes) makes
// the straw-man reducer S_x → φ_y answer true about E, and the
// indistinguishable run R′ (E alive, delayed past τ) makes the same
// reducer answer true about live processes after τ: a safety violation.
// The region E comes from Combo.Region; Params: crash_at, slack (extra
// horizon past τ).
func runIrreducibility(c *Cell, res *CellResult) {
	if !requireNoOracle(c, res) {
		return
	}
	tau := sim.Time(c.Param("tau", 500))
	slack := sim.Time(c.Param("slack", 2_000))
	e := set(c.Combo.Region)
	x, y := c.Combo.X, c.Combo.Y
	rp := adversary.RunPair{
		N: c.Size.N, T: c.Size.T, E: e,
		CrashAt: sim.Time(c.Param("crash_at", 100)),
		Horizon: tau + slack/2, Seed: c.Seed,
	}
	probe := func(cfg sim.Config, prime bool) sim.Time {
		sys := sim.MustNew(cfg)
		var susp fd.Suspector
		if prime {
			susp = rp.SuspectorForRPrime(sys, x, 1)
		} else {
			susp = rp.SuspectorForR(sys, x, 1)
		}
		red := adversary.NewPhiFromS(susp, c.Size.T, y)
		var at sim.Time = -1
		sys.OnTick(func(now sim.Time) {
			if at < 0 && now > tau && red.Query(1, e) {
				at = now
			}
		})
		countRun(res, sys.Run(func() bool { return at >= 0 }))
		return at
	}
	atR := probe(rp.ConfigR(tau+slack), false)
	atP := probe(rp.ConfigRPrime(tau+slack), true)
	res.measure("query_true_in_r", int64(atR))
	res.measure("violation_in_r_prime", int64(atP))
	if atR < 0 {
		res.fail("run R: the reducer never answered true about the crashed region")
	}
	if atP <= tau {
		res.fail(fmt.Sprintf("run R′: no safety violation after τ=%d", tau))
	}
}

// MaxDistinct returns the largest decided-value count across cells — the
// EXP-T5 aggregate (Ω_z runs must reach, but never exceed, z values).
func MaxDistinct(cells []CellResult) int {
	max := 0
	for i := range cells {
		if d := len(cells[i].Decided); d > max {
			max = d
		}
	}
	return max
}

// SortedTags returns the union of wire tags across cells, sorted
// (report rendering helper).
func SortedTags(cells []CellResult) []string {
	seen := map[string]bool{}
	for i := range cells {
		for tag := range cells[i].SentByTag {
			seen[tag] = true
		}
	}
	tags := make([]string, 0, len(seen))
	for tag := range seen {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	return tags
}
