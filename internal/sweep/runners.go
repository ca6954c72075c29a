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

// runners is the protocol table: every experiment family of the suite
// (cmd/experiments/suite.go; the paper's figures and theorems)
// expressed as a protocol a Matrix can sweep, by name:
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
var runners = map[string]Runner{
	"kset-grid":      runKSetGrid,
	"kset-omega":     runKSetOmega,
	"kset-seq":       runKSetSeq,
	"consensus-ds":   runConsensusDS,
	"two-wheels":     runTwoWheels,
	"single-wheel":   runSingleWheel,
	"lower-wheel":    runLowerWheel,
	"psi-omega":      runPsiOmega,
	"add-s":          runAddS,
	"phi-o1":         runPhiO1,
	"irreducibility": runIrreducibility,
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
	if _, ok := resolveOracles(c, sys, res, oracleUse{}); !ok {
		return
	}
	out, err := core.SpawnKSetWith(sys, c.Combo.Class(), nil)
	if err != nil {
		panic(err)
	}
	out.UseArena(c.arena)
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

// The oracle roles a runner can read from the cell's generated-oracle
// dimension, as an oracleUse.roles mask.
const (
	readsLeader    = 1 << iota // Ω_z, at scope z
	readsSuspector             // ◇S_x or S_x, at scope x
	readsQuerier               // ◇φ_y or φ_y, at scope y
)

// oracleUse is what a runner reads from Cell.Oracle: the roles it builds
// and each role's scope, whether its default and paired oracles are the
// perpetual classes, and whether only paired scripts may feed it. The
// zero value reads no oracle, so any script is a config error.
type oracleUse struct {
	roles      int
	z, x, y    int
	perpetual  bool
	pairedOnly bool
}

// reads names the roles u reads, for config errors.
func (u oracleUse) reads() string {
	switch u.roles {
	case readsLeader:
		return "leader"
	case readsSuspector:
		return "suspector"
	case readsQuerier:
		return "querier"
	}
	return "suspector and a querier"
}

// oracles are the role oracles resolveOracles built; the roles a runner
// does not read stay nil.
type oracles struct {
	leader fd.Leader
	susp   fd.Suspector
	quer   *fd.Phi
}

// resolveOracles turns the cell's generated-oracle dimension into the
// oracles use reads. A script feeds the roles its shape names — a
// leader timeline the leader, a suspect timeline the suspector, a
// parameter script every role read, a pair its S and φ roles — and
// every other role gets its default: Ω_z pinned by the stab0 param and
// the combo's trusted set, the suspector and the querier perpetual or
// eventual as use says. A single parameter script always builds the
// eventual flavour: its whole point is a misbehaving prefix. ok=false
// means the cell already failed and no oracle was built (see feeds).
func resolveOracles(c *Cell, sys *sim.System, res *CellResult, use oracleUse) (o oracles, ok bool) {
	lead, susp, quer, ok := use.feeds(c, sys, res)
	if !ok {
		return o, false
	}
	perpetual := func(r *adversary.OracleScript) bool { return use.perpetual && (r == nil || c.Oracle.IsPair()) }
	if use.roles&readsLeader != 0 {
		if lead != nil && len(lead.Leader) > 0 {
			o.leader = fd.NewScriptedLeader(sys, lead.Leader)
		} else {
			// feeds rejects stab0 beside a leader-role script, so it pins
			// only the default Ω here.
			opts := options(lead)
			if c.Param("stab0", 0) != 0 {
				opts = append(opts, fd.WithStabilizeAt(0))
			}
			if len(c.Combo.Trusted) > 0 {
				opts = append(opts, fd.WithTrusted(set(c.Combo.Trusted)))
			}
			o.leader = fd.NewOmega(sys, use.z, opts...)
		}
	}
	if use.roles&readsSuspector != 0 {
		switch {
		case susp != nil && len(susp.Suspect) > 0:
			o.susp = fd.NewScriptedSuspector(sys, susp.Suspect)
		case perpetual(susp):
			o.susp = fd.NewS(sys, use.x, options(susp)...)
		default:
			o.susp = fd.NewEvtS(sys, use.x, options(susp)...)
		}
	}
	if use.roles&readsQuerier != 0 {
		if perpetual(quer) {
			o.quer = fd.NewPhi(sys, use.y, options(quer)...)
		} else {
			o.quer = fd.NewEvtPhi(sys, use.y, options(quer)...)
		}
	}
	return o, true
}

// options renders a role's parameter script as ground-truth oracle
// options; a default role (nil) has none.
func options(s *adversary.OracleScript) []fd.Option {
	if s == nil {
		return nil
	}
	return s.Options()
}

// feeds checks the cell's script against u and returns the script that
// feeds each role read (nil: the role keeps its default). The checks
// run in one order for every protocol: pinning of a leader the protocol
// does not read (with or without a script), shape, pinning conflicts,
// declared scope, then conformance. The first four are matrix-author
// mistakes, reported as ConfigError rather than Fail so they never read
// as paper-claim counterexamples; a script that leaves its declared
// class fails the cell (see conforms). Either way ok=false, and the
// script's class, if there is a script, is on the result.
func (u oracleUse) feeds(c *Cell, sys *sim.System, res *CellResult) (lead, susp, quer *adversary.OracleScript, ok bool) {
	s := &c.Oracle
	reject := func(format string, args ...any) (_, _, _ *adversary.OracleScript, ok bool) {
		if !s.None() {
			res.OracleClass = s.Class()
		}
		res.failConfig(fmt.Sprintf(format, args...))
		return nil, nil, nil, false
	}
	// stab0 and a trusted set pin the default Ω: a protocol that reads
	// no leader would drop them silently, with or without a script.
	if u.roles&readsLeader == 0 {
		switch {
		case c.Param("stab0", 0) != 0:
			return reject("param stab0 pins the default leader, but protocol %q reads no leader", c.Protocol)
		case len(c.Combo.Trusted) > 0:
			return reject("combo pins a trusted set, but protocol %q reads no leader", c.Protocol)
		}
	}
	if s.None() {
		return nil, nil, nil, true
	}
	pair := s.IsPair()
	switch {
	case u.roles == 0:
		return reject("protocol %q does not consume the generated-oracle dimension (script %s)", c.Protocol, s.Name)
	case pair && u.roles != readsSuspector|readsQuerier:
		return reject("oracle script %s is a pair; protocol %q reads a single %s oracle", s.Name, c.Protocol, u.reads())
	case pair:
		susp, quer = &s.Pair.S, &s.Pair.Phi
	case u.pairedOnly:
		return reject("protocol %q does not consume single oracle scripts, only pairs (script %s)", c.Protocol, s.Name)
	case len(s.Leader) > 0 && u.roles&readsLeader == 0:
		return reject("oracle script %s is a leader timeline; protocol %q reads a %s", s.Name, c.Protocol, u.reads())
	case len(s.Suspect) > 0 && u.roles&readsSuspector == 0:
		return reject("oracle script %s is a suspector timeline; protocol %q reads a %s", s.Name, c.Protocol, u.reads())
	case len(s.Leader) > 0:
		lead = s
	case len(s.Suspect) > 0:
		susp = s
	default:
		// A parameter script configures the whole oracle environment:
		// two-wheels' querier gets the suspector's stabilization and
		// anarchy, or the swept dimension would be half-applied.
		if u.roles&readsLeader != 0 {
			lead = s
		}
		if u.roles&readsSuspector != 0 {
			susp = s
		}
		if u.roles&readsQuerier != 0 {
			quer = s
		}
	}
	// The default Ω's pinning must not be silently dropped either when a
	// script feeds the leader: stab0 contradicts any leader-role script
	// (each fixes its own stabilization time), and a trusted set composes
	// with a parameter script but contradicts a leader timeline, which
	// fixes every output.
	switch {
	case lead != nil && c.Param("stab0", 0) != 0:
		return reject("param stab0 conflicts with generated oracle script %s (both pin the stabilization time)", s.Name)
	case len(s.Leader) > 0 && len(c.Combo.Trusted) > 0:
		return reject("combo pins a trusted set but oracle script %s already fixes the timeline", s.Name)
	}
	noun, sRole, phiRole := "script", "", ""
	if pair {
		noun, sRole, phiRole = "pair", "S-role ", "phi-role "
	}
	// Timelines and pair roles always declare their scope; a parameter
	// script declares one optionally, and an undeclared scope composes
	// with any combo.
	switch {
	case lead != nil && lead.Z != 0 && lead.Z != u.z:
		return reject("oracle %s %s declares z=%d, combo wants z=%d", noun, s.Name, lead.Z, u.z)
	case susp != nil && susp.X != 0 && susp.X != u.x:
		return reject("oracle %s %s declares %sx=%d, combo wants x=%d", noun, s.Name, sRole, susp.X, u.x)
	case quer != nil && quer.Y != 0 && quer.Y != u.y:
		return reject("oracle %s %s declares %sy=%d, combo wants y=%d", noun, s.Name, phiRole, quer.Y, u.y)
	}
	if !conforms(c, sys, res, u.perpetual) {
		return nil, nil, nil, false
	}
	return lead, susp, quer, true
}

// conforms records the cell's script identity and its fd/check.go
// conformance verdict under this cell's failure pattern. A pair is
// checked role by role — against the perpetual classes when the
// runner's paired roles are perpetual — with the per-role verdicts in
// OracleS/OraclePhi and the joint one in OracleConformance. false means
// the script leaves its declared class and the cell failed: the
// protocol run is skipped, since running it over an out-of-class oracle
// proves nothing and can block until the step cap.
func conforms(c *Cell, sys *sim.System, res *CellResult, perpetual bool) bool {
	s := &c.Oracle
	res.OracleClass = s.Class()
	what := "script leaves its declared class"
	var err error
	if p := s.Pair; p != nil {
		what = "pair leaves its declared classes"
		sErr := p.SConformance(sys.Pattern(), c.MaxSteps, perpetual)
		phiErr := p.PhiConformance(sys.Pattern(), c.MaxSteps, perpetual)
		res.OracleS, res.OraclePhi = roleVerdict(sErr), roleVerdict(phiErr)
		err = jointViolation(sErr, phiErr)
	} else {
		err = s.Conformance(sys.Pattern(), c.MaxSteps)
	}
	res.OracleConformance = roleVerdict(err)
	if err != nil {
		res.fail("generated oracle " + what + ": " + err.Error())
		return false
	}
	return true
}

// roleVerdict renders one conformance error as a report verdict.
func roleVerdict(err error) string {
	if err == nil {
		return "conforms"
	}
	return "violates: " + err.Error()
}

// jointViolation combines a pair's role failures into one error, nil
// when both roles conform.
func jointViolation(sErr, phiErr error) error {
	switch {
	case sErr != nil && phiErr != nil:
		return fmt.Errorf("S role: %v; phi role: %v", sErr, phiErr)
	case sErr != nil:
		return fmt.Errorf("S role: %v", sErr)
	case phiErr != nil:
		return fmt.Errorf("phi role: %v", phiErr)
	}
	return nil
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
	o, ok := resolveOracles(c, sys, res, oracleUse{roles: readsLeader, z: z})
	if !ok {
		return
	}
	oracle := o.leader
	fd.TraceLeader(sys, oracle, "oracle")
	out := agreement.NewOutcome()
	out.UseArena(c.arena)
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
	o, ok := resolveOracles(c, sys, res, oracleUse{roles: readsLeader, z: z})
	if !ok {
		return
	}
	oracle := o.leader
	fd.TraceLeader(sys, oracle, "oracle")
	instances := int(c.Param("instances", 4))
	outs := make([]*agreement.Outcome, instances)
	for j := range outs {
		outs[j] = agreement.NewOutcome()
		outs[j].UseArena(c.arena)
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
	o, ok := resolveOracles(c, sys, res, oracleUse{roles: readsSuspector, x: c.Size.N})
	if !ok {
		return
	}
	susp := o.susp
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
	o, ok := resolveOracles(c, sys, res, oracleUse{roles: readsSuspector | readsQuerier, x: x, y: y})
	if !ok {
		return
	}
	susp, quer := o.susp, o.quer
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
	o, ok := resolveOracles(c, sys, res, oracleUse{roles: readsSuspector, x: c.Size.N})
	if !ok {
		return
	}
	susp := o.susp
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
	o, ok := resolveOracles(c, sys, res, oracleUse{roles: readsSuspector, x: x})
	if !ok {
		return
	}
	susp := o.susp
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
	o, ok := resolveOracles(c, sys, res, oracleUse{roles: readsQuerier, y: y, perpetual: true})
	if !ok {
		return nil, nil, false
	}
	psi := fd.WrapPsi(o.quer)
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
	// add-s reads two oracles, so a single script would be ambiguous
	// about which role it drives: only pairs feed it.
	o, ok := resolveOracles(c, sys, res, oracleUse{roles: readsSuspector | readsQuerier, x: x, y: y,
		perpetual: perpetual, pairedOnly: true})
	if !ok {
		return
	}
	susp, quer := o.susp, o.quer
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
	if _, ok := resolveOracles(c, sys, res, oracleUse{}); !ok {
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
	// The run pair builds its own systems and oracles.
	if _, ok := resolveOracles(c, nil, res, oracleUse{}); !ok {
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
