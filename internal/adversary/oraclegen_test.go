package adversary

import (
	"reflect"
	"testing"

	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

func patternOf(t *testing.T, cfg sim.Config) *sim.Pattern {
	t.Helper()
	return sim.MustNew(cfg).Pattern()
}

// TestOracleGenDeterministic: expansion is a pure function of
// (family, n, t) — two expansions agree structurally, and variants
// differ from one another.
func TestOracleGenDeterministic(t *testing.T) {
	fams := []OracleFamily{
		{Kind: OracleLeaderFlap, Z: 2, Variants: 3, Seed: 7},
		{Kind: OracleScopeChurn, X: 3, Variants: 2, Seed: 8},
		{Kind: OracleAnarchyBurst, Variants: 3, Seed: 9},
		{Kind: OracleLateStab, Variants: 2, Seed: 10, Start: 100, Ramp: 250},
	}
	g := NewOracleGen(16, 7)
	a, err := g.ExpandAll(fams)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.ExpandAll(fams)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("expansion is not deterministic")
	}
	if len(a) != 10 {
		t.Fatalf("expanded %d scripts, want 10", len(a))
	}
	seen := map[string]bool{}
	for _, s := range a {
		if s.None() {
			t.Fatalf("script %+v is the zero point", s)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate script name %q", s.Name)
		}
		seen[s.Name] = true
	}
	// Variants of one family must actually differ.
	if reflect.DeepEqual(a[0].Leader, a[1].Leader) {
		t.Error("leader-flap variants drew identical timelines")
	}
}

// TestLeaderFlapConformance: pinned-settle flap scripts conform exactly
// when the pattern spares the settle set.
func TestLeaderFlapConformance(t *testing.T) {
	g := NewOracleGen(8, 3)
	scripts, err := g.Expand(OracleFamily{
		Kind: OracleLeaderFlap, Z: 2, Variants: 2, Seed: 3, Settle: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	horizon := sim.Time(4_000)
	ok := patternOf(t, sim.Config{N: 8, T: 3, Seed: 1, MaxSteps: 10,
		Crashes: map[ids.ProcID]sim.Time{8: 700}})
	bad := patternOf(t, sim.Config{N: 8, T: 3, Seed: 1, MaxSteps: 10,
		Crashes: map[ids.ProcID]sim.Time{1: 50, 2: 60}})
	for _, s := range scripts {
		if s.Class() != "omega-2" {
			t.Errorf("class label %q, want omega-2", s.Class())
		}
		if len(s.Leader) == 0 || !s.IsTimeline() {
			t.Fatalf("script %s has no leader timeline", s.Name)
		}
		final := s.Leader[len(s.Leader)-1]
		if !final.Common.Equal(ids.NewSet(1, 2)) {
			t.Errorf("script %s settles on %s, want pinned {1,2}", s.Name, final.Common)
		}
		if err := s.Conformance(ok, horizon); err != nil {
			t.Errorf("script %s nonconforming under sparing pattern: %v", s.Name, err)
		}
		if err := s.Conformance(bad, horizon); err == nil {
			t.Errorf("script %s conforms though its settle set crashed", s.Name)
		}
	}
}

// TestScopeChurnConformance: the hostile settle keeps exactly the scope
// sparing the leader; crashes outside the scope conform, a crash inside
// the scope breaks completeness.
func TestScopeChurnConformance(t *testing.T) {
	g := NewOracleGen(8, 3)
	scripts, err := g.Expand(OracleFamily{
		Kind: OracleScopeChurn, X: 3, Variants: 2, Seed: 4, Settle: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	horizon := sim.Time(4_000)
	outside := patternOf(t, sim.Config{N: 8, T: 3, Seed: 1, MaxSteps: 10,
		Crashes: map[ids.ProcID]sim.Time{7: 300}})
	inside := patternOf(t, sim.Config{N: 8, T: 3, Seed: 1, MaxSteps: 10,
		Crashes: map[ids.ProcID]sim.Time{2: 300}})
	for _, s := range scripts {
		if s.Class() != "evt-s-3" {
			t.Errorf("class label %q, want evt-s-3", s.Class())
		}
		if err := s.Conformance(outside, horizon); err != nil {
			t.Errorf("script %s nonconforming with crash outside scope: %v", s.Name, err)
		}
		if err := s.Conformance(inside, horizon); err == nil {
			t.Errorf("script %s conforms though a scope member crashed unsuspected", s.Name)
		}
	}
}

// TestParamScripts: anarchy bursts ramp intensity, late-stab ramps the
// stabilization time, and both conform for any pattern with room before
// the horizon.
func TestParamScripts(t *testing.T) {
	g := NewOracleGen(32, 6)
	bursts, err := g.Expand(OracleFamily{Kind: OracleAnarchyBurst, Variants: 3, Seed: 5, RatePermille: 900})
	if err != nil {
		t.Fatal(err)
	}
	pat := patternOf(t, sim.Config{N: 32, T: 6, Seed: 1, MaxSteps: 10})
	last := 0
	for _, s := range bursts {
		if s.IsTimeline() {
			t.Fatalf("%s: burst scripts are parameter scripts", s.Name)
		}
		if s.RatePermille <= 0 || s.RatePermille > 1000 {
			t.Errorf("%s: rate %d out of range", s.Name, s.RatePermille)
		}
		if s.RatePermille < last {
			t.Errorf("%s: intensity ramp not monotone (%d after %d)", s.Name, s.RatePermille, last)
		}
		last = s.RatePermille
		if s.Epoch < 1 {
			t.Errorf("%s: epoch %d", s.Name, s.Epoch)
		}
		if err := s.Conformance(pat, 6_000); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if err := s.Conformance(pat, s.StabilizeAt+1); err == nil {
			t.Errorf("%s: conforms with no stable suffix", s.Name)
		}
	}

	late, err := g.Expand(OracleFamily{Kind: OracleLateStab, Variants: 3, Seed: 6, Start: 400, Ramp: 300})
	if err != nil {
		t.Fatal(err)
	}
	for v, s := range late {
		if want := sim.Time(400 + v*300); s.StabilizeAt != want {
			t.Errorf("late-stab variant %d stabilizes at %d, want %d", v, s.StabilizeAt, want)
		}
		if err := s.Conformance(pat, 6_000); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

// TestExpandAllRejectsDuplicateNames: same-kind same-seed families
// differing only in timing knobs would collide on script (and schedule)
// names — report rows would merge distinct dimension points — so both
// generators refuse the expansion.
func TestExpandAllRejectsDuplicateNames(t *testing.T) {
	og := NewOracleGen(8, 3)
	if _, err := og.ExpandAll([]OracleFamily{
		{Kind: OracleLeaderFlap, Z: 2, Seed: 7, Period: 80},
		{Kind: OracleLeaderFlap, Z: 2, Seed: 7, Period: 40},
	}); err == nil {
		t.Error("duplicate oracle script names accepted")
	}
	sg := NewScheduleGen(8, 3)
	if _, err := sg.ExpandAll([]Family{
		{Kind: KindStaggered, Count: 2, Seed: 7, Spacing: 80},
		{Kind: KindStaggered, Count: 2, Seed: 7, Spacing: 40},
	}); err == nil {
		t.Error("duplicate schedule names accepted")
	}
	// Distinct seeds keep both legal.
	if _, err := og.ExpandAll([]OracleFamily{
		{Kind: OracleLeaderFlap, Z: 2, Seed: 7},
		{Kind: OracleLeaderFlap, Z: 2, Seed: 8},
	}); err != nil {
		t.Errorf("distinct-seed families rejected: %v", err)
	}
}

// TestOracleGenDegenerateSize: a legal single-process system expands
// timeline families without panicking (the disagreement draws clamp to
// the system size).
func TestOracleGenDegenerateSize(t *testing.T) {
	g := NewOracleGen(1, 0)
	for _, f := range []OracleFamily{
		{Kind: OracleLeaderFlap, Z: 1, Variants: 2, Seed: 1},
		{Kind: OracleScopeChurn, X: 1, Variants: 2, Seed: 2},
	} {
		if _, err := g.Expand(f); err != nil {
			t.Errorf("family %+v rejected at n=1: %v", f, err)
		}
	}
}

// TestOracleGenRejects: malformed families fail expansion loudly.
func TestOracleGenRejects(t *testing.T) {
	g := NewOracleGen(8, 3)
	for _, f := range []OracleFamily{
		{Kind: "no-such-kind"},
		{Kind: OracleLeaderFlap, Z: 9},
		{Kind: OracleScopeChurn, X: 9},
		{Kind: OracleLeaderFlap, Settle: []int{0}},
		{Kind: OracleLeaderFlap, Settle: []int{9}},
		{Kind: OracleLeaderFlap, Z: 1, Settle: []int{1, 2}},
		{Kind: OracleScopeChurn, X: 3, Settle: []int{1, 2}},
		{Kind: OracleLateStab, Y: 9},
		{Kind: OracleAnarchyBurst, X: -1},
	} {
		if _, err := g.Expand(f); err == nil {
			t.Errorf("family %+v accepted", f)
		}
	}
}

// TestParamScriptsDeclaredScopesOnly: parameter scripts carry class
// knobs only when the family declares them — the zero value composes
// with any combo — while timeline scripts always carry theirs.
func TestParamScriptsDeclaredScopesOnly(t *testing.T) {
	g := NewOracleGen(8, 3)
	undeclared, err := g.Expand(OracleFamily{Kind: OracleLateStab, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s := undeclared[0]; s.Z != 0 || s.X != 0 || s.Y != 0 {
		t.Errorf("undeclared param script carries scopes z=%d x=%d y=%d, want all 0", s.Z, s.X, s.Y)
	}
	declared, err := g.Expand(OracleFamily{Kind: OracleAnarchyBurst, Seed: 2, X: 2, Y: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s := declared[0]; s.X != 2 || s.Y != 1 {
		t.Errorf("declared param script carries x=%d y=%d, want 2, 1", s.X, s.Y)
	}
	timeline, err := g.Expand(OracleFamily{Kind: OracleScopeChurn, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s := timeline[0]; s.X != 4 { // t+1 default
		t.Errorf("scope-churn timeline carries x=%d, want defaulted 4", s.X)
	}
}

// TestExpandPair: pair expansion is deterministic, zips role variants,
// broadcasts a one-variant role, and defaults the role scopes.
func TestExpandPair(t *testing.T) {
	g := NewOracleGen(8, 3)
	f := OraclePairFamily{
		S:   OracleFamily{Kind: OracleScopeChurn, Seed: 1, Settle: []int{1, 2, 3, 4}},
		Phi: OracleFamily{Kind: OracleLateStab, Seed: 2, Variants: 3, Start: 400, Ramp: 100},
	}
	a, err := g.ExpandPair(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.ExpandPair(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("pair expansion is not deterministic")
	}
	if len(a) != 3 {
		t.Fatalf("expanded %d joint scripts, want 3 (phi side broadcast)", len(a))
	}
	for v, s := range a {
		if !s.IsPair() || s.Kind != OraclePairKind {
			t.Fatalf("script %q is not a pair", s.Name)
		}
		if s.Pair.S.X != 4 { // defaulted to t+1
			t.Errorf("variant %d S-role x=%d, want defaulted 4", v, s.Pair.S.X)
		}
		if s.Pair.Phi.Y != 1 {
			t.Errorf("variant %d phi-role y=%d, want defaulted 1", v, s.Pair.Phi.Y)
		}
		if !reflect.DeepEqual(s.Pair.S, a[0].Pair.S) {
			t.Errorf("variant %d: one-variant S role not broadcast", v)
		}
		if want := sim.Time(400 + v*100); s.Pair.Phi.StabilizeAt != want {
			t.Errorf("variant %d phi role stabilizes at %d, want %d", v, s.Pair.Phi.StabilizeAt, want)
		}
		if want := s.Pair.S.Name + "+" + s.Pair.Phi.Name; s.Name != want {
			t.Errorf("joint name %q, want %q", s.Name, want)
		}
	}
	if a[0].Class() != "evt-s-4+gt-phi-1" {
		t.Errorf("joint class %q, want evt-s-4+gt-phi-1", a[0].Class())
	}

	// A ground-truth S role renders its own class label.
	gt, err := g.ExpandPair(OraclePairFamily{
		S:   OracleFamily{Kind: OracleLateStab, Seed: 3, X: 2},
		Phi: OracleFamily{Kind: OracleAnarchyBurst, Seed: 4, Y: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if gt[0].Class() != "gt-s-2+gt-phi-2" {
		t.Errorf("joint class %q, want gt-s-2+gt-phi-2", gt[0].Class())
	}
}

// TestExpandPairRejects: wrong-role kinds and non-zippable variant
// counts fail expansion loudly.
func TestExpandPairRejects(t *testing.T) {
	g := NewOracleGen(8, 3)
	for _, f := range []OraclePairFamily{
		{S: OracleFamily{Kind: OracleLeaderFlap}, Phi: OracleFamily{Kind: OracleLateStab}},
		{S: OracleFamily{Kind: OracleScopeChurn}, Phi: OracleFamily{Kind: OracleScopeChurn}},
		{S: OracleFamily{Kind: OracleScopeChurn}, Phi: OracleFamily{Kind: OracleLeaderFlap}},
		{S: OracleFamily{Kind: "no-such-kind"}, Phi: OracleFamily{Kind: OracleLateStab}},
		{S: OracleFamily{Kind: OracleScopeChurn, Variants: 2}, Phi: OracleFamily{Kind: OracleLateStab, Variants: 3}},
		{S: OracleFamily{Kind: OracleScopeChurn, X: 9}, Phi: OracleFamily{Kind: OracleLateStab}},
		{S: OracleFamily{Kind: OracleScopeChurn}, Phi: OracleFamily{Kind: OracleLateStab, Y: 9}},
	} {
		if _, err := g.ExpandPair(f); err == nil {
			t.Errorf("pair family %+v accepted", f)
		}
	}
}

// TestExpandSuiteDedup: singles and pairs share one name space, and a
// pair family colliding with itself is rejected like a single would be.
func TestExpandSuiteDedup(t *testing.T) {
	g := NewOracleGen(8, 3)
	pair := OraclePairFamily{
		S:   OracleFamily{Kind: OracleScopeChurn, Seed: 5},
		Phi: OracleFamily{Kind: OracleLateStab, Seed: 6},
	}
	out, err := g.ExpandSuite(
		[]OracleFamily{{Kind: OracleLateStab, Seed: 7}},
		[]OraclePairFamily{pair},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("suite expanded %d scripts, want 2", len(out))
	}
	if out[0].IsPair() || !out[1].IsPair() {
		t.Fatal("suite order: singles must precede pairs")
	}
	if _, err := g.ExpandSuite(nil, []OraclePairFamily{pair, pair}); err == nil {
		t.Error("duplicate pair names accepted")
	}
}

// TestOracleExpandBoundsTicks: an oracle family whose ticks would reach
// sim.Never — where int64 tick arithmetic overflows, or lands on the
// "never" sentinel — is rejected as a whole, and one just inside the
// bound expands. So are oversized variant and flap counts and a system
// size sim would reject; ExpandPair inherits every bound.
func TestOracleExpandBoundsTicks(t *testing.T) {
	g := NewOracleGen(8, 3)
	for _, c := range []struct {
		name string
		g    OracleGen
		f    OracleFamily
		ok   bool
	}{
		{"flap-overflow", g, OracleFamily{Kind: OracleLeaderFlap, Z: 2, Start: 1 << 62, Period: 1 << 61, Flaps: 4}, false},
		{"flap-last-fits", g, OracleFamily{Kind: OracleLeaderFlap, Start: sim.Never - 301, Period: 50, Flaps: 6, StabilizeAt: sim.Never - 1}, true},
		{"flap-last-never", g, OracleFamily{Kind: OracleLeaderFlap, Start: sim.Never - 250, Period: 50, Flaps: 6, StabilizeAt: sim.Never - 1}, false},
		{"flap-default-stab-never", g, OracleFamily{Kind: OracleLeaderFlap, Start: sim.Never - 300, Period: 50, Flaps: 6}, false},
		{"flap-default-stab-fits", g, OracleFamily{Kind: OracleLeaderFlap, Start: sim.Never - 301, Period: 50, Flaps: 6}, true},
		{"churn-stab-never", g, OracleFamily{Kind: OracleScopeChurn, StabilizeAt: sim.Never}, false},
		{"churn-period-maxint", g, OracleFamily{Kind: OracleScopeChurn, Period: 1<<63 - 1, StabilizeAt: 1_000}, false},
		{"burst-stab-last", g, OracleFamily{Kind: OracleAnarchyBurst, StabilizeAt: sim.Never - 1}, true},
		{"burst-stab-maxint", g, OracleFamily{Kind: OracleAnarchyBurst, StabilizeAt: 1<<63 - 1}, false},
		{"burst-default-stab-overflow", g, OracleFamily{Kind: OracleAnarchyBurst, Period: 1 << 61, Flaps: 8}, false},
		{"burst-rate-overflow", g, OracleFamily{Kind: OracleAnarchyBurst, RatePermille: 1 << 62, Variants: 4}, false},
		{"burst-rate-max", g, OracleFamily{Kind: OracleAnarchyBurst, RatePermille: 1000, Variants: 4}, true},
		{"burst-rate-over", g, OracleFamily{Kind: OracleAnarchyBurst, RatePermille: 1001}, false},
		{"burst-rate-negative", g, OracleFamily{Kind: OracleAnarchyBurst, RatePermille: -1}, false},
		{"late-stab-rate-over", g, OracleFamily{Kind: OracleLateStab, RatePermille: 1001}, false},
		{"late-stab-rate-max", g, OracleFamily{Kind: OracleLateStab, RatePermille: 1000}, true},
		{"late-stab-overflow", g, OracleFamily{Kind: OracleLateStab, Start: 1 << 62, Ramp: 1 << 62, Variants: 3}, false},
		{"late-stab-ramp-overflow", g, OracleFamily{Kind: OracleLateStab, Start: 100, Ramp: 1 << 61, Variants: 3}, false},
		{"late-stab-last-fits", g, OracleFamily{Kind: OracleLateStab, Start: sim.Never - 201, Ramp: 100, Variants: 3}, true},
		{"late-stab-last-never", g, OracleFamily{Kind: OracleLateStab, Start: sim.Never - 200, Ramp: 100, Variants: 3}, false},
		{"late-stab-ignores-period", g, OracleFamily{Kind: OracleLateStab, Period: 1<<63 - 1}, true},
		{"variants-max", g, OracleFamily{Kind: OracleLateStab, Variants: MaxVariants}, true},
		{"variants-over", g, OracleFamily{Kind: OracleLateStab, Variants: MaxVariants + 1}, false},
		{"variants-huge", g, OracleFamily{Kind: OracleLeaderFlap, Variants: 1 << 40}, false},
		{"flaps-max", g, OracleFamily{Kind: OracleScopeChurn, Flaps: MaxFlaps}, true},
		{"flaps-over", g, OracleFamily{Kind: OracleScopeChurn, Flaps: MaxFlaps + 1}, false},
		{"flaps-huge", g, OracleFamily{Kind: OracleLeaderFlap, Flaps: 1 << 40}, false},
		{"size-max", NewOracleGen(ids.MaxProcs, 127), OracleFamily{Kind: OracleScopeChurn}, true},
		{"size-zero", NewOracleGen(0, 0), OracleFamily{Kind: OracleLateStab}, false},
		{"size-over", NewOracleGen(ids.MaxProcs+1, 3), OracleFamily{Kind: OracleLeaderFlap}, false},
		{"t-equals-n", NewOracleGen(8, 8), OracleFamily{Kind: OracleScopeChurn}, false},
		{"t-negative", NewOracleGen(8, -1), OracleFamily{Kind: OracleAnarchyBurst}, false},
	} {
		ss, err := c.g.Expand(c.f)
		if (err == nil) != c.ok {
			t.Errorf("%s: Expand(%+v) error %v, want ok=%v", c.name, c.f, err, c.ok)
			continue
		}
		if err == nil {
			checkOracleScripts(t, c.f, ss)
		}
		// ExpandPair holds a role family to the same bounds (a leader
		// timeline is never a pair role).
		other := OracleFamily{Kind: OracleLateStab}
		var pair OraclePairFamily
		switch c.f.Kind {
		case OracleLeaderFlap:
			continue
		case OracleScopeChurn:
			pair = OraclePairFamily{S: c.f, Phi: other}
		default:
			pair = OraclePairFamily{S: other, Phi: c.f}
		}
		if _, err := c.g.ExpandPair(pair); (err == nil) != c.ok {
			t.Errorf("%s: ExpandPair error %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// checkOracleScripts asserts the invariants every accepted expansion
// keeps: one script per variant, and in every script (each role of a
// pair) an anarchy rate in 0..1000‰, a StabilizeAt and timeline steps
// in [0, sim.Never), the steps strictly ascending.
func checkOracleScripts(t *testing.T, f OracleFamily, ss []OracleScript) {
	t.Helper()
	if want := max(f.Variants, 1); len(ss) != want {
		t.Fatalf("%+v expanded to %d scripts, want %d", f, len(ss), want)
	}
	for _, s := range ss {
		checkOracleScript(t, s)
	}
}

// checkOracleScript asserts one script's rate and tick invariants (see
// checkOracleScripts).
func checkOracleScript(t *testing.T, s OracleScript) {
	t.Helper()
	if s.Pair != nil {
		checkOracleScript(t, s.Pair.S)
		checkOracleScript(t, s.Pair.Phi)
		return
	}
	if s.RatePermille < 0 || s.RatePermille > 1000 {
		t.Fatalf("%s anarchy rate %d‰ outside 0..1000", s.Name, s.RatePermille)
	}
	if s.StabilizeAt < 0 || s.StabilizeAt >= sim.Never {
		t.Fatalf("%s stabilizes at %d, outside [0, sim.Never)", s.Name, s.StabilizeAt)
	}
	steps := make([]sim.Time, 0, len(s.Leader)+len(s.Suspect))
	for _, st := range s.Leader {
		steps = append(steps, st.At)
	}
	for _, st := range s.Suspect {
		steps = append(steps, st.At)
	}
	for i, at := range steps {
		if at < 0 || at >= sim.Never {
			t.Fatalf("%s step %d at %d, outside [0, sim.Never)", s.Name, i, at)
		}
		if i > 0 && at <= steps[i-1] {
			t.Fatalf("%s step %d at %d does not follow step %d at %d", s.Name, i, at, i-1, steps[i-1])
		}
	}
}

// FuzzOracleGen: expansion of arbitrary single and pair families is
// deterministic, yields one script per variant (the zipped count for a
// pair), and every accepted script keeps checkOracleScript's
// invariants, so no tick or rate arithmetic wraps. The seeds are the
// committed suite's oracle families (ORACLE-kset-flap,
// ORACLE-psi-burst, ORACLE-wheels-churn) and pair families
// (F2-additivity-pairs, F9-add-s-pairs) at their matrices' sizes, plus
// the three families that used to overflow.
func FuzzOracleGen(f *testing.F) {
	kinds := []string{OracleLeaderFlap, OracleScopeChurn, OracleAnarchyBurst, OracleLateStab, "solar-flare"}
	kindOf := map[string]uint8{}
	for i, k := range kinds {
		kindOf[k] = uint8(i)
	}
	settleOf := func(ps []int) uint64 {
		var m uint64
		for _, p := range ps {
			m |= 1 << (p - 1)
		}
		return m
	}
	add := func(n, t int, fam OracleFamily, phi *OracleFamily) {
		var p OracleFamily
		if phi != nil {
			p = *phi
		}
		f.Add(n, t, kindOf[fam.Kind], fam.Z, fam.X, fam.Y, fam.Variants, fam.Flaps, fam.Seed,
			int64(fam.Start), int64(fam.Period), int64(fam.StabilizeAt), int64(fam.Ramp), fam.RatePermille, settleOf(fam.Settle),
			phi != nil, kindOf[p.Kind], p.Y, p.Variants, p.Seed, int64(p.Start), int64(p.Ramp), p.RatePermille)
	}
	for _, size := range [][2]int{{32, 15}, {64, 31}, {128, 63}} {
		add(size[0], size[1], OracleFamily{Kind: OracleLeaderFlap, Z: 2, Variants: 2, Seed: 31, Start: 50, Period: 80, Flaps: 6, Settle: []int{1, 2}}, nil)
		add(size[0], size[1], OracleFamily{Kind: OracleLateStab, Variants: 2, Seed: 32, Start: 200, Ramp: 300}, nil)
	}
	for _, n := range []int{32, 64, 128} {
		add(n, 6, OracleFamily{Kind: OracleAnarchyBurst, Variants: 3, Seed: 41, Start: 50, Period: 60, Flaps: 8, RatePermille: 900}, nil)
		add(n, 6, OracleFamily{Kind: OracleLateStab, Variants: 2, Seed: 42, Start: 400, Ramp: 400}, nil)
	}
	add(5, 2, OracleFamily{Kind: OracleScopeChurn, X: 2, Variants: 3, Seed: 51, Settle: []int{1, 2}}, nil)
	for _, p := range []struct{ s, phi OracleFamily }{
		{OracleFamily{Kind: OracleScopeChurn, X: 2, Seed: 61, Settle: []int{1, 2}}, OracleFamily{Kind: OracleLateStab, Y: 1, Seed: 62, Start: 20_000, Ramp: 1}},
		{OracleFamily{Kind: OracleScopeChurn, X: 2, Seed: 63, Flaps: 10, Period: 120, Settle: []int{1, 2}}, OracleFamily{Kind: OracleAnarchyBurst, Y: 1, Seed: 64, RatePermille: 950}},
		{OracleFamily{Kind: OracleLateStab, X: 2, Seed: 65, Start: 8_000, Ramp: 1}, OracleFamily{Kind: OracleLateStab, Y: 1, Seed: 66, Start: 12_000, Ramp: 1}},
		{OracleFamily{Kind: OracleScopeChurn, X: 2, Seed: 71, Settle: []int{1, 2}}, OracleFamily{Kind: OracleLateStab, Y: 1, Seed: 72, Start: 16_000, Ramp: 1}},
		{OracleFamily{Kind: OracleScopeChurn, X: 2, Seed: 73, Flaps: 8, Period: 100, Settle: []int{1, 2}}, OracleFamily{Kind: OracleAnarchyBurst, Y: 1, Seed: 74, RatePermille: 950}},
		{OracleFamily{Kind: OracleLateStab, X: 2, Seed: 75, Start: 6_000, Ramp: 1}, OracleFamily{Kind: OracleLateStab, Y: 1, Seed: 76, Start: 10_000, Ramp: 1}},
	} {
		add(5, 2, p.s, &p.phi)
	}
	add(8, 3, OracleFamily{Kind: OracleLeaderFlap, Z: 2, Start: 1 << 62, Period: 1 << 61, Flaps: 4}, nil)
	add(8, 3, OracleFamily{Kind: OracleLateStab, Start: 1 << 62, Ramp: 1 << 62, Variants: 3}, nil)
	add(8, 3, OracleFamily{Kind: OracleAnarchyBurst, RatePermille: 1 << 62, Variants: 4}, nil)
	f.Fuzz(func(t *testing.T, n, tt int, kind uint8, z, x, y, variants, flaps int, seed, start, period, stab, ramp int64, rate int, settle uint64,
		pair bool, phiKind uint8, phiY, phiVariants int, phiSeed, phiStart, phiRamp int64, phiRate int) {
		fam := OracleFamily{
			Kind: kinds[int(kind)%len(kinds)], Z: z, X: x, Y: y, Variants: variants, Flaps: flaps, Seed: seed,
			Start: sim.Time(start), Period: sim.Time(period), StabilizeAt: sim.Time(stab), Ramp: sim.Time(ramp), RatePermille: rate,
		}
		for p := 1; settle != 0; p, settle = p+1, settle>>1 {
			if settle&1 != 0 {
				fam.Settle = append(fam.Settle, p)
			}
		}
		// Bound one input's work: an accepted family costs variants·flaps
		// timeline steps, and the table tests cover the largest counts.
		if v, fl := max(variants, 1), max(flaps, 1); v <= MaxVariants && fl <= MaxFlaps && v*fl > 1<<12 {
			return
		}
		g := OracleGen{N: n, T: tt}
		expand := func() ([]OracleScript, error) { return g.Expand(fam) }
		want := max(variants, 1)
		if pair {
			phi := OracleFamily{Kind: kinds[int(phiKind)%len(kinds)], Y: phiY, Variants: phiVariants, Seed: phiSeed,
				Start: sim.Time(phiStart), Ramp: sim.Time(phiRamp), RatePermille: phiRate}
			expand = func() ([]OracleScript, error) { return g.ExpandPair(OraclePairFamily{S: fam, Phi: phi}) }
			want = max(want, phiVariants, 1)
		}
		a, errA := expand()
		b, errB := expand()
		if (errA == nil) != (errB == nil) || !reflect.DeepEqual(a, b) {
			t.Fatalf("%+v (pair %v) at n=%d, t=%d expanded differently twice: %v / %v", fam, pair, n, tt, errA, errB)
		}
		if errA != nil {
			return
		}
		if len(a) != want {
			t.Fatalf("%+v (pair %v) expanded to %d scripts, want %d", fam, pair, len(a), want)
		}
		for _, s := range a {
			checkOracleScript(t, s)
		}
	})
}
