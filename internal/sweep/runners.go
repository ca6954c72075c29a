package sweep

import (
	"fmt"
	"maps"
	"slices"
	"strconv"

	"fdgrid/internal/adversary"
	"fdgrid/internal/agreement"
	"fdgrid/internal/core"
	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/rbcast"
	"fdgrid/internal/reduction"
	"fdgrid/internal/sim"
)

// protocols is the protocol table: every experiment family of the suite
// (cmd/experiments/suite.go; the paper's figures and theorems) as a row
// a Matrix names by its protocol. Each body's comment says what it runs.
var protocols = []protocol{
	{name: "kset-grid", uses: readsNone, body: runKSetGrid},
	{name: "kset-omega", uses: readsOmega, body: runKSetOmega, params: []param{
		{key: "value_base", def: 100, doc: "process p proposes value_base+p"},
		{key: "k", derive: func(c *Cell) int64 { return int64(omegaScope(c)) }, doc: "the k of the k-set agreement check"},
		{key: "require_round1", doc: "nonzero: every decision must happen in round 1"},
		stab0,
	}},
	{name: "kset-seq", uses: readsOmega, body: runKSetSeq, params: []param{
		{key: "instances", def: 4, doc: "consecutive k-set instances each process runs"},
		stab0,
	}},
	{name: "consensus-ds", uses: readsFullSuspector, body: runConsensusDS},
	{name: "two-wheels", uses: readsPair, body: runTwoWheels, params: []param{
		stableFor, omegaMargin,
		{key: "mark", doc: "tick that samples the inquiry traffic (0: none)"},
		{key: "require_nonquiescent", doc: "nonzero: inquiries must go on past mark"},
		{key: "expect_tight", doc: "nonzero: the Ω_{z−1} check must fail (the output rests on z processes)"},
	}},
	{name: "single-wheel", uses: readsFullSuspector, body: runSingleWheel, params: []param{stableFor, omegaMargin}},
	{name: "lower-wheel", body: runLowerWheel,
		uses:   func(c *Cell) oracleUse { return oracleUse{roles: readsSuspector, x: c.Combo.X} },
		params: []param{{key: "mark", doc: "tick that samples the x_move traffic; nonzero also requires no x_move send after it"}}},
	{name: "psi-omega", body: runPsiOmega,
		uses:   func(c *Cell) oracleUse { return oracleUse{roles: readsQuerier, y: c.Combo.Y, perpetual: true} },
		params: []param{{key: "margin", def: 1_000, doc: "stable suffix the Ω_z check requires"}}},
	{name: "add-s", body: runAddS,
		// add-s reads two oracles, so a single script would be ambiguous
		// about which role it drives: only pairs feed it.
		uses: func(c *Cell) oracleUse {
			u := readsPair(c)
			u.perpetual, u.pairedOnly = c.Param("perpetual") != 0, true
			return u
		},
		params: []param{
			{key: "perpetual", def: 1, doc: "nonzero: inputs and output are the perpetual S_x, φ_y and S_n; zero: the eventual classes"},
			{key: "margin", def: 20_000, doc: "stable suffix the S_n check requires"},
			{key: "stop_slack", derive: func(c *Cell) int64 { return c.Param("margin") / 5 }, doc: "rest past margin before the early stop"},
		}},
	{name: "phi-o1", uses: readsNone, body: runPhiO1, params: []param{
		{key: "at", def: 1_500, doc: "the tick whose queries are checked"},
		{key: "ring_x", derive: func(c *Cell) int64 { return int64(c.Size.T) }, doc: "size of the queried regions"},
	}},
	{name: "irreducibility", uses: readsNone, body: runIrreducibility, params: []param{
		{key: "tau", def: 500, doc: "the claimed stabilization time τ"},
		{key: "crash_at", def: 100, doc: "tick at which region E crashes in run R"},
		{key: "slack", def: 2_000, doc: "horizon past τ"},
	}},
}

// The params more than one row declares.
var (
	stab0       = param{key: "stab0", doc: "nonzero: the default Ω_z is perfect from tick 0"}
	stableFor   = param{key: "stable_for", doc: "stop once the Ω output rested this long (0: run to max_steps)"}
	omegaMargin = param{key: "margin", def: 10_000, doc: "stable suffix the Ω check requires"}
)

// protocol is one row of the protocol table: what a cell of it reads
// from the generated-oracle dimension, the params it reads, and the body
// that runs the cell over the system and oracles the driver (run) built.
type protocol struct {
	name   string
	uses   func(*Cell) oracleUse
	params []param
	body   func(c *Cell, sys *sim.System, o oracles, res *CellResult)
}

// param is one knob a row reads from Matrix.Params: its key, its
// default, and what it sets. derive, when set, draws the default from
// the cell in place of def.
type param struct {
	key    string
	def    int64
	derive func(*Cell) int64
	doc    string
}

// protocolNamed returns the table's row called name, nil when there is
// none.
func protocolNamed(name string) *protocol {
	if i := slices.IndexFunc(protocols, func(p protocol) bool { return p.name == name }); i >= 0 {
		return &protocols[i]
	}
	return nil
}

// param returns the row's param called key, nil when the row declares
// none.
func (p *protocol) param(key string) *param {
	if i := slices.IndexFunc(p.params, func(d param) bool { return d.key == key }); i >= 0 {
		return &p.params[i]
	}
	return nil
}

// setup is the driver's preamble: the cell's system and the oracles its
// row reads. ok=false means the cell already failed (res carries the
// verdict) and the body must not run.
func (p *protocol) setup(c *Cell, res *CellResult) (sys *sim.System, o oracles, ok bool) {
	sys, err := c.System()
	if err != nil {
		panic(err)
	}
	o, ok = resolveOracles(c, sys, res, p.uses(c))
	return sys, o, ok
}

// run is the cell driver every built-in protocol runs through.
func (p *protocol) run(c *Cell, res *CellResult) {
	if sys, o, ok := p.setup(c, res); ok {
		p.body(c, sys, o, res)
	}
}

// Lookup returns the runner of m's protocol: the driver of its row in
// the protocol table. An unknown protocol, or a param key the row does
// not declare, is an error, so a misspelled key never runs silently on
// the default. Run, Replay and sweepd's spec loading all check a matrix
// here.
func Lookup(m *Matrix) (Runner, error) {
	p := protocolNamed(m.Protocol)
	if p == nil {
		return nil, fmt.Errorf("sweep: matrix %q: no protocol %q (have %v)", m.Name, m.Protocol, Protocols())
	}
	for _, key := range slices.Sorted(maps.Keys(m.Params)) {
		if p.param(key) == nil {
			var declared []string
			for _, d := range p.params {
				declared = append(declared, d.key)
			}
			return nil, fmt.Errorf("sweep: matrix %q: protocol %q declares no param %q (its params: %v)", m.Name, m.Protocol, key, declared)
		}
	}
	return p.run, nil
}

// Protocols lists the built-in protocol names, sorted.
func Protocols() []string {
	out := make([]string, len(protocols))
	for i, p := range protocols {
		out[i] = p.name
	}
	slices.Sort(out)
	return out
}

// A DeclaredParam is one param a built-in protocol declares. Default is
// its default value, or "" when the cell derives it.
type DeclaredParam struct{ Protocol, Key, Default, Doc string }

// DeclaredParams lists every built-in protocol's params, in table order.
func DeclaredParams() (out []DeclaredParam) {
	for _, p := range protocols {
		for _, d := range p.params {
			def := strconv.FormatInt(d.def, 10)
			if d.derive != nil {
				def = ""
			}
			out = append(out, DeclaredParam{p.name, d.key, def, d.doc})
		}
	}
	return out
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

// decide is the agreement rows' tail: run until every correct process
// decided, record the run and its outcome, check k-set agreement.
func decide(sys *sim.System, out *agreement.Outcome, k int, res *CellResult) {
	rep := sys.Run(out.AllDecided(sys.Pattern().Correct()))
	recordRun(res, rep)
	for _, v := range out.DistinctValues() {
		res.Decided = append(res.Decided, int(v))
	}
	res.Decisions = len(out.Decisions())
	res.MaxRound = out.MaxRound()
	if !rep.StoppedEarly {
		res.fail("timed out before all correct processes decided")
	}
	if err := out.Check(sys.Pattern(), k); err != nil {
		res.fail(err.Error())
	}
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
func runKSetGrid(c *Cell, sys *sim.System, _ oracles, res *CellResult) {
	out, err := core.SpawnKSetWith(sys, c.Combo.Class(), nil)
	if err != nil {
		panic(err)
	}
	out.UseArena(c.arena)
	k := c.Combo.Z
	if k == 0 {
		k = core.KSetPower(c.Combo.Class(), c.Size.T)
	}
	decide(sys, out, k, res)
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

// omegaScope is the z of a leader row's Ω_z: the combo's, or 1.
func omegaScope(c *Cell) int {
	if c.Combo.Z == 0 {
		return 1
	}
	return c.Combo.Z
}

// readsNone is the use of the rows that build their own oracles.
func readsNone(*Cell) oracleUse { return oracleUse{} }

// readsOmega is the leader rows' oracle use.
func readsOmega(c *Cell) oracleUse { return oracleUse{roles: readsLeader, z: omegaScope(c)} }

// readsFullSuspector is the use of the rows that read ◇S_n.
func readsFullSuspector(c *Cell) oracleUse { return oracleUse{roles: readsSuspector, x: c.Size.N} }

// readsPair is the addition rows' use: a suspector at x, a querier at y.
func readsPair(c *Cell) oracleUse {
	return oracleUse{roles: readsSuspector | readsQuerier, x: c.Combo.X, y: c.Combo.Y}
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
			// only the default Ω here; every leader row declares stab0.
			opts := options(lead)
			if c.Param("stab0") != 0 {
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
// run in one order for every protocol: a trusted set on a protocol that
// reads no leader (with or without a script), shape, pinning conflicts,
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
	// A trusted set pins the default Ω: a protocol that reads no leader
	// would drop it silently, with or without a script. The other pin,
	// stab0, only the leader rows declare.
	if u.roles&readsLeader == 0 && len(c.Combo.Trusted) > 0 {
		return reject("combo pins a trusted set, but protocol %q reads no leader", c.Protocol)
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
	case lead != nil && c.Param("stab0") != 0:
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
func runKSetOmega(c *Cell, sys *sim.System, o oracles, res *CellResult) {
	fd.TraceLeader(sys, o.leader, "oracle")
	out := agreement.NewOutcome()
	out.UseArena(c.arena)
	base := int(c.Param("value_base"))
	for p := 1; p <= c.Size.N; p++ {
		sys.Spawn(ids.ProcID(p), agreement.KSetMain(o.leader, agreement.Value(base+p), out))
	}
	decide(sys, out, int(c.Param("k")), res)
	if c.Param("require_round1") != 0 {
		checkRound1(res, out)
	}
}

// runKSetSeq: consecutive independent k-set instances under a perfect
// pinned oracle and initial crashes — zero-degradation in use (EXP-ZD).
func runKSetSeq(c *Cell, sys *sim.System, o oracles, res *CellResult) {
	fd.TraceLeader(sys, o.leader, "oracle")
	instances := int(c.Param("instances"))
	outs := make([]*agreement.Outcome, instances)
	for j := range outs {
		outs[j] = agreement.NewOutcome()
		outs[j].UseArena(c.arena)
	}
	for p := 1; p <= c.Size.N; p++ {
		vals := make([]agreement.Value, instances)
		for j := range vals {
			vals[j] = agreement.Value(100*(j+1) + p)
		}
		sys.Spawn(ids.ProcID(p), agreement.SequenceMain(o.leader, vals, outs))
	}
	rep := sys.Run(agreement.AllInstancesDecided(outs, sys.Pattern().Correct()))
	recordRun(res, rep)
	res.measure("vticks_per_instance", int64(rep.Steps)/int64(instances))
	if !rep.StoppedEarly {
		res.fail("timed out before every instance decided")
	}
	for j, out := range outs {
		if err := out.Check(sys.Pattern(), omegaScope(c)); err != nil {
			res.fail(fmt.Sprintf("instance %d: %v", j, err))
		}
		checkRound1(res, out)
	}
}

// runConsensusDS: the rotating-coordinator ◇S consensus of [18]
// (baseline for Fig. 3 at z = k = 1).
func runConsensusDS(c *Cell, sys *sim.System, o oracles, res *CellResult) {
	fd.TraceSuspector(sys, o.susp, "oracle")
	out := agreement.NewOutcome()
	for p := 1; p <= c.Size.N; p++ {
		sys.Spawn(ids.ProcID(p), agreement.ConsensusDSMain(o.susp, agreement.Value(p), out))
	}
	decide(sys, out, 1, res)
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

// restOmega is the wheel rows' tail: it runs until the traced Ω output
// rested stable_for ticks (to max_steps when 0), records the run, checks
// Ω_z over margin's stable suffix and records the latest output change
// among correct processes as the stabilization measure.
func restOmega(c *Cell, sys *sim.System, trace *fd.SetTrace, z int, res *CellResult) sim.Report {
	correct := sys.Pattern().Correct()
	var stop func() bool
	if sf := sim.Time(c.Param("stable_for")); sf > 0 {
		stop = trace.StableFor(correct, sf)
	}
	rep := sys.Run(stop)
	recordRun(res, rep)
	if err := trace.CheckOmega(sys.Pattern(), z, sim.Time(c.Param("margin"))); err != nil {
		res.fail(err.Error())
	}
	var last sim.Time
	correct.ForEach(func(q ids.ProcID) bool {
		last = max(last, trace.LastChange(q))
		return true
	})
	res.measure("stabilization", int64(last))
	return rep
}

// runTwoWheels: the addition ◇S_x + ◇φ_y → Ω_z (EXP-F2, EXP-F6, EXP-T8).
func runTwoWheels(c *Cell, sys *sim.System, o oracles, res *CellResult) {
	emu := spawnTwoWheels(c, sys, o)
	z := c.Combo.Z
	if z == 0 {
		z = c.Size.T + 2 - c.Combo.X - c.Combo.Y
	}
	fd.TraceLeader(sys, emu, "emu")
	// The emulated Trusted consults the querier live; the emulation's
	// change hint is the querier's, so the sparse watcher schedules every
	// tick the output can change at, and reads the processes whose
	// wheels moved in between.
	trace := fd.WatchLeaderSparse(sys, emu)
	mark := c.Param("mark")
	watchMark(sys, sim.Intern("wheel.inquiry"), sim.Time(mark), res, "inquiries_at_mark")
	rep := restOmega(c, sys, trace, z, res)
	if z > 1 {
		tighter := trace.CheckOmega(sys.Pattern(), z-1, sim.Time(c.Param("margin"))) == nil
		if tighter {
			res.measure("z_minus_1_passes", 1)
		} else {
			res.measure("z_minus_1_passes", 0)
		}
		if c.Param("expect_tight") != 0 && tighter {
			res.fail(fmt.Sprintf("output rested on fewer than z=%d processes: x+y+z ≥ t+2 not tight here", z))
		}
	}
	if mark > 0 {
		end := rep.Messages.Sent["wheel.inquiry"]
		res.measure("inquiries_end", end)
		if c.Param("require_nonquiescent") != 0 {
			at := res.Measures["inquiries_at_mark"]
			if at <= 0 || end <= at {
				res.fail("inquiry traffic stopped: the upper wheel must keep inquiring forever")
			}
		}
	}
}

// spawnTwoWheels spawns the two-wheels stack on every process of a
// two-wheels cell's system and returns its emulated Ω_z: runTwoWheels's
// run before its samplers.
func spawnTwoWheels(c *Cell, sys *sim.System, o oracles) *reduction.OmegaEmulation {
	fd.TraceSuspector(sys, o.susp, "oracle-s")
	emu, _ := reduction.SpawnTwoWheels(sys, o.susp, o.quer, c.Combo.X, c.Combo.Y)
	return emu
}

// runSingleWheel: the companion transformation [17] — quiescent, needs
// full-scope ◇S (the EXP-ABL counterpart of two-wheels with y=0). It is
// the lower wheel at x = n, whose representatives are the Ω output; they
// change only on a wheel's moves, so the exact trace samples them at the
// scheduled ticks alone.
func runSingleWheel(c *Cell, sys *sim.System, o oracles, res *CellResult) {
	fd.TraceSuspector(sys, o.susp, "oracle")
	emu := reduction.SpawnLowerWheel(sys, o.susp, c.Size.N)
	fd.TraceLeader(sys, emu, "emu")
	restOmega(c, sys, fd.WatchLeader(sys, emu), 1, res)
}

// runLowerWheel: Fig. 5 alone (EXP-F5) — every correct process rests on
// the same (ℓ, X) pair, and x_move traffic is quiescent: no sends after
// the mark.
func runLowerWheel(c *Cell, sys *sim.System, o oracles, res *CellResult) {
	fd.TraceSuspector(sys, o.susp, "oracle")
	reprs := reduction.SpawnLowerWheel(sys, o.susp, c.Combo.X)
	wire := rbcast.WireTag(sim.Intern("wheel.xmove"))
	mark := sim.Time(c.Param("mark"))
	watchMark(sys, wire, mark, res, "xmove_at_mark")
	rep := sys.Run(nil)
	recordRun(res, rep)

	stable := true
	var pos *ids.XPos // the first correct process's position
	sys.Pattern().Correct().ForEach(func(p ids.ProcID) bool {
		pp, ok := reprs.Pos(p)
		if ok && pos == nil {
			pos = &pp
		}
		stable = ok && pp.Leader == pos.Leader && pp.X.Equal(pos.X)
		return stable
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
func runPsiOmega(c *Cell, sys *sim.System, o oracles, res *CellResult) {
	po := psiChain(c, o)
	fd.TraceLeader(sys, po, "emu")
	trace := fd.WatchLeader(sys, po)
	rep := sys.Run(nil)
	recordRun(res, rep)
	if err := trace.CheckOmega(sys.Pattern(), c.Combo.Z, sim.Time(c.Param("margin"))); err != nil {
		res.fail(err.Error())
	}
	if rep.Messages.TotalSent != 0 {
		res.fail(fmt.Sprintf("sent %d messages, want 0", rep.Messages.TotalSent))
	}
}

// psiChain is a psi-omega cell's Ψ_y → Ω_z chain over its querier.
func psiChain(c *Cell, o oracles) *reduction.PsiOmega {
	return reduction.NewPsiOmega(c.Size.N, c.Size.T, c.Combo.Y, c.Combo.Z, fd.WrapPsi(o.quer))
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
	sys, o, ok := protocolNamed(c.Protocol).setup(&c, &res)
	if !ok {
		return nil, fmt.Errorf("sweep: %s cell %d: %s", c.Matrix, c.Index, res.Detail)
	}
	trace := watch(sys, psiChain(&c, o))
	sys.Run(nil)
	return trace, nil
}

// runAddS: S_x + φ_y → S_n over a register substrate named by the combo
// (EXP-F9).
func runAddS(c *Cell, sys *sim.System, o oracles, res *CellResult) {
	emu := spawnAddS(c, sys, o)
	fd.TraceSuspector(sys, emu, "emu")
	trace := fd.WatchSuspectorSparse(sys, emu)
	rep := sys.Run(trace.StableFor(sys.Pattern().Correct(), addSRest(c)))
	recordRun(res, rep)
	if err := trace.CheckSuspector(sys.Pattern(), c.Size.N, c.Param("perpetual") != 0, sim.Time(c.Param("margin"))); err != nil {
		res.fail(err.Error())
	}
}

// spawnAddS spawns Fig. 9 on every process of an add-s cell's system
// over the combo's register substrate and returns its emulated
// S_n/◇S_n: runAddS's run before its samplers.
func spawnAddS(c *Cell, sys *sim.System, o oracles) *reduction.SEmulation {
	fd.TraceSuspector(sys, o.susp, "oracle-s")
	return reduction.SpawnAddS(sys, o.susp, o.quer, c.Combo.Name)
}

// addSRest is how long an add-s cell's outputs must rest before the run
// stops: every correct process's output has then rested well past the
// checker's stable-suffix margin, and running further cannot change the
// verdict, only burn virtual time. The rest slack scales with the margin
// so large-margin cells don't stop inside the checker's window.
func addSRest(c *Cell) sim.Time {
	return sim.Time(c.Param("margin") + c.Param("stop_slack"))
}

// runPhiO1: Observation O1 — with f ≤ t−y crashes, a φ_y answers every
// informative query false (it can only vouch by size). Sampled densely
// at the tick at.
func runPhiO1(c *Cell, sys *sim.System, _ oracles, res *CellResult) {
	phi := fd.NewPhi(sys, c.Combo.Y)
	at := sim.Time(c.Param("at"))
	informative := true
	sys.OnTick(func(now sim.Time) {
		if now != at {
			return
		}
		r := ids.NewRing(ids.FullSet(c.Size.N), int(c.Param("ring_x")))
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
// stabilization time τ = tau, run R (region E crashes) makes the
// straw-man reducer S_x → φ_y answer true about E, and the
// indistinguishable run R′ (E alive, delayed past τ) makes the same
// reducer answer true about live processes after τ: a safety violation.
// The region E comes from Combo.Region; one φ_y is not informative on
// (at most t−y processes) or run R cannot crash (more than t) is a
// config error. The run pair builds its own
// systems and oracles; the cell's system is never run, so nothing
// reaches its trace recorder.
func runIrreducibility(c *Cell, _ *sim.System, _ oracles, res *CellResult) {
	tau := sim.Time(c.Param("tau"))
	slack := sim.Time(c.Param("slack"))
	e := set(c.Combo.Region)
	// Theorem 9 argues about a region φ_y is informative on: more than
	// t−y processes, which run R crashes, so at most t.
	switch t, y := c.Size.T, c.Combo.Y; {
	case e.Size() <= t-y:
		res.failConfig(fmt.Sprintf("region E=%v has %d ≤ t−y = %d processes: φ_%d may vouch for it with no crash, so the cell would pass vacuously", e, e.Size(), t-y, y))
		return
	case e.Size() > t:
		res.failConfig(fmt.Sprintf("region E=%v has %d > t = %d processes: run R cannot crash all of it", e, e.Size(), t))
		return
	}
	rp := adversary.RunPair{
		N: c.Size.N, T: c.Size.T, E: e,
		CrashAt: sim.Time(c.Param("crash_at")),
		Horizon: tau + slack/2, Seed: c.Seed,
	}
	probe := func(cfg sim.Config, prime bool) sim.Time {
		sys := sim.MustNew(cfg)
		var susp fd.Suspector
		if prime {
			susp = rp.SuspectorForRPrime(sys, c.Combo.X, 1)
		} else {
			susp = rp.SuspectorForR(sys, c.Combo.X, 1)
		}
		red := adversary.NewPhiFromS(susp, c.Size.T, c.Combo.Y)
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
