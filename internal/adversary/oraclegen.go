package adversary

import (
	"fmt"

	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

// This file makes the *oracle* generative, the way schedulegen.go made
// the crash schedule generative: a sweep declares an OracleFamily — a
// kind of oracle misbehaviour plus its knobs — and OracleGen expands it
// deterministically into concrete oracle scripts. The paper's classes
// (S_x, ◇S_x, Ω_z, the φ/Ψ families) are defined by what their oracles
// may do, so sweeping over generated oracle behaviours explores exactly
// the dimension the definitions quantify over: which hostile histories
// an algorithm must survive.
//
// Two script shapes come out of an expansion:
//
//   - Timeline scripts (leader-flap, scope-churn): explicit LeaderStep /
//     SuspectStep timelines for the scripted drivers in internal/fd. A
//     timeline is pattern-blind — it fixes every output before knowing
//     which processes the cell's adversary crashes — so whether it stays
//     inside its declared class depends on the failure pattern, and
//     Conformance decides it per cell with the fd/check.go checkers.
//   - Parameter scripts (anarchy-burst, late-stab): stabilization time,
//     anarchy intensity and epoch overrides for the ground-truth
//     oracles, which are pattern-aware and stay in class by
//     construction for any legal parameters.
//
// Expansion is a pure function of (family, n, t): the same declaration
// always yields the same scripts, so sweep reports over generated
// oracles stay byte-reproducible and shardable.

// OracleFamily kinds understood by OracleGen.Expand.
const (
	// OracleLeaderFlap generates Ω_z timelines that flap: every Period
	// ticks from Start the served leader set is redrawn (occasionally
	// with per-process disagreement), until the script settles at
	// StabilizeAt on the Settle set (drawn if empty).
	OracleLeaderFlap = "leader-flap"
	// OracleScopeChurn generates ◇S_x timelines whose protected scope
	// churns: spurious suspicion sets are redrawn every Period ticks,
	// then the script settles hostile — everyone outside the final scope
	// Q (|Q| = x) suspects the protected leader forever.
	OracleScopeChurn = "scope-churn"
	// OracleAnarchyBurst generates parameter scripts with a seeded
	// intensity ramp: variant v runs its anarchy at a rate ramping
	// toward RatePermille, over short epochs, stabilizing only after the
	// burst window Start + Flaps·Period.
	OracleAnarchyBurst = "anarchy-burst"
	// OracleLateStab generates parameter scripts whose stabilization
	// time ramps across variants: variant v stabilizes at
	// Start + v·Ramp — the "how late can the oracle behave badly"
	// sweep.
	OracleLateStab = "late-stab"
)

// OracleFamily declares one generated oracle dimension point: a script
// kind, the class it claims to stay inside (Z for Ω_z timelines, X for
// ◇S_x timelines, Y for φ_y parameter scripts), and its knobs. Zero
// knobs default per kind; Variants is how many concrete scripts the
// family expands into (default 1, at most MaxVariants), each drawn
// deterministically from Seed. Flaps is at most MaxFlaps, and every
// tick a family generates must fall before sim.Never. Timeline kinds always carry their class knob; parameter kinds
// carry Z/X/Y only when declared here, so an undeclared scope composes
// with any combo while a declared one is validated against it.
type OracleFamily struct {
	Kind     string `json:"kind"`
	Z        int    `json:"z,omitempty"` // declared Ω_z bound (leader scripts); 0 = 1
	X        int    `json:"x,omitempty"` // declared ◇S_x scope (suspect scripts); 0 = t+1
	Y        int    `json:"y,omitempty"` // declared φ_y scope (parameter scripts); 0 = undeclared
	Variants int    `json:"variants,omitempty"`
	Seed     int64  `json:"seed,omitempty"`

	Start       sim.Time `json:"start,omitempty"`        // first misbehaviour event; 0 = 50
	Period      sim.Time `json:"period,omitempty"`       // flap / burst spacing; 0 = 80
	Flaps       int      `json:"flaps,omitempty"`        // timeline segments before settling; 0 = 6
	StabilizeAt sim.Time `json:"stabilize_at,omitempty"` // settle tick; 0 = Start + Flaps·Period
	Ramp        sim.Time `json:"ramp,omitempty"`         // late-stab increment per variant; 0 = 200

	// Settle pins the set the timeline settles on (the final trusted set
	// of a leader script, the protected scope of a suspect script).
	// Empty = drawn from the seed. Pin it when the matrix's crash
	// patterns must not intersect it.
	Settle []int `json:"settle,omitempty"`

	RatePermille int      `json:"rate_permille,omitempty"` // anarchy-burst peak intensity; 0 = 400
	Epoch        sim.Time `json:"epoch,omitempty"`         // anarchy epoch override; 0 = leave default
}

// MaxFlaps bounds OracleFamily.Flaps. A timeline keeps one step per
// flap, so the bound keeps a hostile spec from sizing the expansion;
// the suite's families flap at most ten times.
const MaxFlaps = 1024

// OracleScript is one concrete generated oracle: an explicit timeline
// (Leader or Suspect non-empty), a parameter configuration for a
// ground-truth oracle, or a Pair of per-role scripts for the addition
// protocols. The zero value means "no generated oracle" — the cell runs
// whatever oracle its protocol builds by default.
type OracleScript struct {
	Name string `json:"name,omitempty"`
	Kind string `json:"kind,omitempty"`
	Z    int    `json:"z,omitempty"`
	X    int    `json:"x,omitempty"`
	Y    int    `json:"y,omitempty"`

	Leader  []fd.LeaderStep  `json:"leader,omitempty"`
	Suspect []fd.SuspectStep `json:"suspect,omitempty"`

	StabilizeAt  sim.Time `json:"stabilize_at,omitempty"`
	RatePermille int      `json:"rate_permille,omitempty"`
	Epoch        sim.Time `json:"epoch,omitempty"`

	// Pair carries the two role scripts of a paired oracle (see
	// OraclePairFamily). When set, the top-level timeline and parameter
	// fields above are unused; each role script is a complete single-role
	// OracleScript of its own.
	Pair *OraclePair `json:"pair,omitempty"`
}

// OraclePairKind is the Kind of scripts produced by ExpandPair.
const OraclePairKind = "pair"

// OraclePair is the payload of a paired script: one script per oracle
// role of an addition protocol. S feeds the suspector role (a suspect
// timeline or ground-truth S_x/◇S_x parameters, scope S.X), Phi feeds
// the querier role (ground-truth φ_y/◇φ_y parameters, scope Phi.Y).
type OraclePair struct {
	S   OracleScript `json:"s"`
	Phi OracleScript `json:"phi"`
}

// None reports whether the script is the zero "no generated oracle"
// point.
func (s *OracleScript) None() bool { return s.Name == "" }

// IsTimeline reports whether the script carries an explicit output
// timeline (as opposed to ground-truth oracle parameters or a pair).
func (s *OracleScript) IsTimeline() bool { return len(s.Leader) > 0 || len(s.Suspect) > 0 }

// IsPair reports whether the script carries per-role scripts for an
// addition protocol.
func (s *OracleScript) IsPair() bool { return s.Pair != nil }

// Class renders the declared class label for reports.
func (s *OracleScript) Class() string {
	switch {
	case s.Pair != nil:
		return s.Pair.Class()
	case len(s.Leader) > 0:
		return fmt.Sprintf("omega-%d", s.Z)
	case len(s.Suspect) > 0:
		return fmt.Sprintf("evt-s-%d", s.X)
	default:
		return "ground-truth"
	}
}

// Class renders the pair's joint class label: the S role's class, then
// the φ role's. Ground-truth roles are labelled by the scope they were
// generated for ("gt-s-2", "gt-phi-1"), scripted suspector roles keep
// the timeline label ("evt-s-2").
func (p *OraclePair) Class() string {
	s := fmt.Sprintf("gt-s-%d", p.S.X)
	if len(p.S.Suspect) > 0 {
		s = fmt.Sprintf("evt-s-%d", p.S.X)
	}
	return s + "+" + fmt.Sprintf("gt-phi-%d", p.Phi.Y)
}

// Options renders a parameter script as ground-truth oracle options.
func (s *OracleScript) Options() []fd.Option {
	opts := []fd.Option{fd.WithStabilizeAt(s.StabilizeAt)}
	if s.RatePermille > 0 {
		opts = append(opts, fd.WithAnarchyRate(float64(s.RatePermille)/1000))
	}
	if s.Epoch > 0 {
		opts = append(opts, fd.WithEpoch(s.Epoch))
	}
	return opts
}

// conformMargin is the stable suffix a script must leave between its
// settling and the cell horizon for the eventual property to count as
// observed.
const conformMargin sim.Time = 64

// Conformance checks the script against its declared class for one
// failure pattern and horizon, via the fd/check.go checkers. It returns
// nil for the zero script (no generated oracle, nothing to check).
// Paired scripts are checked per role, through the OraclePair methods.
func (s *OracleScript) Conformance(pat *sim.Pattern, horizon sim.Time) error {
	switch {
	case s.None():
		return nil
	case len(s.Leader) > 0:
		return fd.CheckLeaderScript(s.Leader, pat, s.Z, horizon, conformMargin)
	case len(s.Suspect) > 0:
		return fd.CheckSuspectScript(s.Suspect, pat, s.X, false, horizon, conformMargin)
	default:
		return fd.CheckOracleParams(s.StabilizeAt, s.RatePermille, s.Epoch, horizon, conformMargin)
	}
}

// SConformance checks the pair's suspector role against its declared
// class — S_x when perpetual, ◇S_x otherwise — for one failure pattern
// and horizon. Timeline roles go through the full per-pattern script
// checker; parameter roles through the role-aware parameter checker.
func (p *OraclePair) SConformance(pat *sim.Pattern, horizon sim.Time, perpetual bool) error {
	if len(p.S.Suspect) > 0 {
		return fd.CheckSuspectScript(p.S.Suspect, pat, p.S.X, perpetual, horizon, conformMargin)
	}
	return fd.CheckSuspectorParams(p.S.X, pat.N(), perpetual,
		p.S.StabilizeAt, p.S.RatePermille, p.S.Epoch, horizon, conformMargin)
}

// PhiConformance checks the pair's querier role against its declared
// class — φ_y when perpetual, ◇φ_y otherwise.
func (p *OraclePair) PhiConformance(pat *sim.Pattern, horizon sim.Time, perpetual bool) error {
	return fd.CheckQuerierParams(p.Phi.Y, pat.N(), perpetual,
		p.Phi.StabilizeAt, p.Phi.RatePermille, p.Phi.Epoch, horizon, conformMargin)
}

// OracleGen expands oracle families against one system size, carrying no
// hidden state (expansion order does not matter).
type OracleGen struct {
	N, T int
}

// NewOracleGen builds a generator for a system of n processes with
// resilience bound t.
func NewOracleGen(n, t int) OracleGen { return OracleGen{N: n, T: t} }

// Expand turns one family into its concrete scripts. It rejects a
// generator size outside sim's bounds, a family with more than
// MaxVariants variants or MaxFlaps flaps, and one whose ticks would
// reach sim.Never (see oracleTicksFit).
func (g OracleGen) Expand(f OracleFamily) ([]OracleScript, error) {
	if g.N < 1 || g.N > ids.MaxProcs || g.T < 0 || g.T >= g.N {
		return nil, fmt.Errorf("adversary: system size n=%d, t=%d out of range (1 ≤ n ≤ %d, 0 ≤ t < n)", g.N, g.T, ids.MaxProcs)
	}
	variants := f.Variants
	if variants <= 0 {
		variants = 1
	}
	if variants > MaxVariants {
		return nil, fmt.Errorf("adversary: oracle family %q asks for %d variants, at most %d", f.Kind, variants, MaxVariants)
	}
	start := f.Start
	if start <= 0 {
		start = 50
	}
	period := f.Period
	if period <= 0 {
		period = 80
	}
	flaps := f.Flaps
	if flaps <= 0 {
		flaps = 6
	}
	if flaps > MaxFlaps {
		return nil, fmt.Errorf("adversary: oracle family %q asks for %d flaps, at most %d", f.Kind, flaps, MaxFlaps)
	}
	stab, stabOK := f.StabilizeAt, true
	if stab <= 0 {
		stab, stabOK = mulTicks(sim.Time(flaps), period)
		stab, stabOK = addTicks(start, stab, stabOK)
	}
	ramp := f.Ramp
	if ramp <= 0 {
		ramp = 200
	}
	rate := f.RatePermille
	if rate <= 0 {
		rate = 400
	}
	z := f.Z
	if z <= 0 {
		z = 1
	}
	x := f.X
	if x <= 0 {
		x = g.T + 1
	}
	switch f.Kind {
	case OracleLeaderFlap:
		if z > g.N {
			return nil, fmt.Errorf("adversary: oracle family %q declares z=%d > n=%d", f.Kind, z, g.N)
		}
	case OracleScopeChurn:
		if x > g.N {
			return nil, fmt.Errorf("adversary: oracle family %q declares x=%d > n=%d", f.Kind, x, g.N)
		}
	case OracleAnarchyBurst, OracleLateStab:
		// Parameter scripts validate class knobs only when declared: an
		// undeclared scope composes with any combo's oracle.
		if f.Z < 0 || f.Z > g.N || f.X < 0 || f.X > g.N || f.Y < 0 || f.Y > g.N {
			return nil, fmt.Errorf("adversary: oracle family %q declares scope z=%d/x=%d/y=%d outside 0..%d", f.Kind, f.Z, f.X, f.Y, g.N)
		}
	default:
		return nil, fmt.Errorf("adversary: unknown oracle family kind %q", f.Kind)
	}
	if !oracleTicksFit(f.Kind, variants, flaps, start, period, stab, ramp, stabOK) {
		return nil, fmt.Errorf("adversary: oracle family %q (start %d, period %d, flaps %d, stabilize_at %d, ramp %d, variants %d) generates ticks at or past sim.Never",
			f.Kind, start, period, flaps, f.StabilizeAt, ramp, variants)
	}
	settle, err := g.settleSet(f)
	if err != nil {
		return nil, err
	}
	// A pinned settle set inconsistent with the declared class knob is a
	// family-wide configuration error: reject it here, at the altitude
	// where z/x/member ranges are already validated, instead of failing
	// every cell's conformance check downstream.
	if f.Kind == OracleLeaderFlap && !settle.IsEmpty() && settle.Size() > z {
		return nil, fmt.Errorf("adversary: oracle family %q settle set has %d members > declared z=%d", f.Kind, settle.Size(), z)
	}
	if f.Kind == OracleScopeChurn && !settle.IsEmpty() && settle.Size() < x {
		return nil, fmt.Errorf("adversary: oracle family %q settle scope has %d members < declared x=%d", f.Kind, settle.Size(), x)
	}

	out := make([]OracleScript, 0, variants)
	for v := 0; v < variants; v++ {
		r := newDraw(f.Seed, int64(v), int64(g.N), int64(g.T), kindSalt(f.Kind))
		// Timeline scripts always carry the class knob their timeline was
		// drawn for; parameter scripts carry only the scopes the family
		// declared (see OracleFamily), so the zero value keeps composing
		// with any combo while a declared scope is validated against it.
		s := OracleScript{Kind: f.Kind, Z: f.Z, X: f.X, Y: f.Y}
		switch f.Kind {
		case OracleLeaderFlap:
			s.Z, s.X, s.Y = z, x, 0
			s.Name = fmt.Sprintf("%s-z%d-s%d-v%d", f.Kind, z, f.Seed, v)
			s.StabilizeAt = stab
			s.Leader = g.leaderFlap(r, z, start, period, flaps, stab, settle)
		case OracleScopeChurn:
			s.Z, s.X, s.Y = z, x, 0
			s.Name = fmt.Sprintf("%s-x%d-s%d-v%d", f.Kind, x, f.Seed, v)
			s.StabilizeAt = stab
			s.Suspect = g.scopeChurn(r, x, start, period, flaps, stab, settle)
		case OracleAnarchyBurst:
			s.Name = fmt.Sprintf("%s-r%d-s%d-v%d", f.Kind, rate, f.Seed, v)
			s.StabilizeAt = stab
			// Seeded intensity ramp: variant v runs at a rate climbing
			// toward the declared peak, jittered so two variants never
			// share an anarchy stream.
			s.RatePermille = rate*(v+1)/variants + r.intn(50)
			if s.RatePermille > 1000 {
				s.RatePermille = 1000
			}
			s.Epoch = f.Epoch
			if s.Epoch <= 0 {
				s.Epoch = 4 + sim.Time(r.intn(8)) // short epochs: bursty churn
			}
		case OracleLateStab:
			s.Name = fmt.Sprintf("%s-s%d-v%d", f.Kind, f.Seed, v)
			s.StabilizeAt = start + sim.Time(v)*ramp
			s.RatePermille = f.RatePermille
			s.Epoch = f.Epoch
		}
		out = append(out, s)
	}
	return out, nil
}

// oracleTicksFit reports whether every tick of a family's scripts falls
// before sim.Never, with overflow-checked arithmetic: the flap ticks
// start + i·period (i < flaps) and the settle tick stab of a timeline,
// the stab of an anarchy burst, and the last late-stab variant's
// stabilization at start + (variants−1)·ramp. The arguments are the
// defaulted knobs, all positive; stabOK is false when the defaulted
// stab start + flaps·period already overflowed.
func oracleTicksFit(kind string, variants, flaps int, start, period, stab, ramp sim.Time, stabOK bool) bool {
	switch kind {
	case OracleLateStab:
		span, ok := mulTicks(sim.Time(variants-1), ramp)
		_, ok = addTicks(start, span, ok)
		return ok
	case OracleLeaderFlap, OracleScopeChurn:
		span, ok := mulTicks(sim.Time(flaps-1), period)
		if _, ok = addTicks(start, span, ok); !ok {
			return false
		}
	}
	return stabOK && stab < sim.Never
}

// settleSet resolves the family's pinned settle set (nil when unpinned).
func (g OracleGen) settleSet(f OracleFamily) (ids.Set, error) {
	if len(f.Settle) == 0 {
		return ids.EmptySet(), nil
	}
	var s ids.Set
	for _, p := range f.Settle {
		if p < 1 || p > g.N {
			return ids.EmptySet(), fmt.Errorf("adversary: oracle family %q settle member %d outside 1..%d", f.Kind, p, g.N)
		}
		s = s.Add(ids.ProcID(p))
	}
	return s, nil
}

// drawSet draws a set of exactly size distinct members of 1..n.
func (g OracleGen) drawSet(r *draw, size int) ids.Set {
	var s ids.Set
	for _, p := range r.draw(size, g.N) {
		s = s.Add(p)
	}
	return s
}

// leaderFlap builds one flapping Ω_z timeline: flaps redrawn sets (every
// third flap disagreeing per process), then the settle step.
func (g OracleGen) leaderFlap(r *draw, z int, start, period sim.Time, flaps int, stab sim.Time, settle ids.Set) []fd.LeaderStep {
	steps := make([]fd.LeaderStep, 0, flaps+2)
	steps = append(steps, fd.LeaderStep{At: 0, Common: g.drawSet(r, 1+r.intn(z))})
	for i := 0; i < flaps; i++ {
		at := start + sim.Time(i)*period
		if at >= stab {
			break
		}
		step := fd.LeaderStep{At: at, Common: g.drawSet(r, 1+r.intn(z))}
		if i%3 == 2 {
			// Disagreement flap: a couple of drawn readers see their own
			// set (fewer when the system is smaller than the draw).
			step.PerProc = map[ids.ProcID]ids.Set{}
			for _, p := range r.draw(min(2, g.N), g.N) {
				step.PerProc[p] = g.drawSet(r, 1+r.intn(z))
			}
		}
		steps = append(steps, step)
	}
	final := settle
	if final.IsEmpty() {
		final = g.drawSet(r, z)
	}
	return append(steps, fd.LeaderStep{At: stab, Common: final})
}

// scopeChurn builds one ◇S_x timeline: churning spurious suspicions,
// then a hostile settle — the leader ℓ (the settle scope's lowest id)
// is suspected forever by everyone outside the scope Q, and Q's members
// read the same set with ℓ removed. Crash completeness must come from
// the settle set: the script suspects every non-scope process from
// StabilizeAt on, so any pattern whose faulty processes stay outside
// the scope conforms.
func (g OracleGen) scopeChurn(r *draw, x int, start, period sim.Time, flaps int, stab sim.Time, settle ids.Set) []fd.SuspectStep {
	steps := make([]fd.SuspectStep, 0, flaps+2)
	steps = append(steps, fd.SuspectStep{At: 0, Common: g.drawSet(r, r.intn(x+1))})
	for i := 0; i < flaps; i++ {
		at := start + sim.Time(i)*period
		if at >= stab {
			break
		}
		step := fd.SuspectStep{At: at, Common: g.drawSet(r, 1+r.intn(g.N-1))}
		if i%2 == 1 {
			step.PerProc = map[ids.ProcID]ids.Set{}
			for _, p := range r.draw(min(2, g.N), g.N) {
				step.PerProc[p] = g.drawSet(r, r.intn(g.N))
			}
		}
		steps = append(steps, step)
	}
	scope := settle
	if scope.IsEmpty() {
		scope = g.drawSet(r, x)
	}
	leader := scope.Members()[0]
	// Hostile settle: everyone suspects everything outside the scope,
	// plus the leader — except the scope's members, who spare ℓ.
	common := ids.FullSet(g.N).Minus(scope).Add(leader)
	spared := common.Remove(leader)
	over := make(map[ids.ProcID]ids.Set, scope.Size())
	scope.ForEach(func(p ids.ProcID) bool {
		over[p] = spared
		return true
	})
	return append(steps, fd.SuspectStep{At: stab, Common: common, PerProc: over})
}

// ExpandAll expands a family list in order into one script list. Script
// names key report rows (and only the class parameter, seed and variant
// are part of the name), so two families expanding to the same name —
// same kind, seed and class knob, differing only in timing — would make
// distinct dimension points indistinguishable; that is rejected here
// rather than silently merged downstream.
func (g OracleGen) ExpandAll(fams []OracleFamily) ([]OracleScript, error) {
	return g.ExpandSuite(fams, nil)
}

// OraclePairFamily declares one paired oracle dimension point for the
// addition protocols, which consume two oracles at once (two-wheels
// reads a ◇S_x and a ◇φ_y, add-s an S_x and a φ_y). Each role is its
// own OracleFamily: the S role may be a scope-churn timeline or a
// parameter family (its X declares the suspector scope, defaulting to
// t+1), the Phi role must be a parameter family — queriers have no
// timeline driver — with Y declaring the querier scope (default 1).
// The two role expansions are zipped variant by variant; a one-variant
// role broadcasts across the other's variants, so "one conforming ◇S_x
// against a ramp of ever-later ◇φ_y" is a single family with
// Phi.Variants = k.
type OraclePairFamily struct {
	S   OracleFamily `json:"s"`
	Phi OracleFamily `json:"phi"`
}

// ExpandPair turns one pair family into its concrete joint scripts.
func (g OracleGen) ExpandPair(f OraclePairFamily) ([]OracleScript, error) {
	sf, pf := f.S, f.Phi
	switch sf.Kind {
	case OracleScopeChurn, OracleAnarchyBurst, OracleLateStab:
	case OracleLeaderFlap:
		return nil, fmt.Errorf("adversary: oracle pair S role is a %q family — the role is read as a suspector", sf.Kind)
	default:
		return nil, fmt.Errorf("adversary: unknown oracle pair S role kind %q", sf.Kind)
	}
	switch pf.Kind {
	case OracleAnarchyBurst, OracleLateStab:
	default:
		return nil, fmt.Errorf("adversary: oracle pair phi role must be a parameter family (%s or %s), not %q — queriers have no timeline driver", OracleAnarchyBurst, OracleLateStab, pf.Kind)
	}
	// Pair roles always declare their scopes: the addition protocols read
	// both, so a silent "compose with anything" default would defeat the
	// per-role conformance verdicts.
	if sf.X <= 0 {
		sf.X = g.T + 1
	}
	if pf.Y <= 0 {
		pf.Y = 1
	}
	ss, err := g.Expand(sf)
	if err != nil {
		return nil, fmt.Errorf("oracle pair S role: %w", err)
	}
	ps, err := g.Expand(pf)
	if err != nil {
		return nil, fmt.Errorf("oracle pair phi role: %w", err)
	}
	if len(ss) != len(ps) && len(ss) != 1 && len(ps) != 1 {
		return nil, fmt.Errorf("adversary: oracle pair roles expand to %d and %d variants — they zip only when equal or one side is a single variant", len(ss), len(ps))
	}
	count := max(len(ss), len(ps))
	out := make([]OracleScript, 0, count)
	for v := 0; v < count; v++ {
		a := ss[min(v, len(ss)-1)]
		b := ps[min(v, len(ps)-1)]
		out = append(out, OracleScript{
			Name: a.Name + "+" + b.Name,
			Kind: OraclePairKind,
			Pair: &OraclePair{S: a, Phi: b},
		})
	}
	return out, nil
}

// ExpandSuite expands single-script families and pair families into one
// script list (singles first), sharing the duplicate-name rejection of
// ExpandAll across both dimensions.
func (g OracleGen) ExpandSuite(fams []OracleFamily, pairs []OraclePairFamily) ([]OracleScript, error) {
	var out []OracleScript
	seen := make(map[string]bool)
	add := func(ss []OracleScript) error {
		for _, s := range ss {
			if seen[s.Name] {
				return fmt.Errorf("adversary: oracle families expand to duplicate script name %q — give same-kind families distinct seeds", s.Name)
			}
			seen[s.Name] = true
		}
		out = append(out, ss...)
		return nil
	}
	for _, f := range fams {
		ss, err := g.Expand(f)
		if err != nil {
			return nil, err
		}
		if err := add(ss); err != nil {
			return nil, err
		}
	}
	for _, f := range pairs {
		ss, err := g.ExpandPair(f)
		if err != nil {
			return nil, err
		}
		if err := add(ss); err != nil {
			return nil, err
		}
	}
	return out, nil
}
