package sweep

import (
	"bytes"
	"maps"
	"strings"
	"testing"

	"fdgrid/internal/adversary"
	"fdgrid/internal/core"
	"fdgrid/internal/sim"
)

// oracleMatrix is a small kset-omega sweep with a generated-oracle
// dimension: a flapping Ω_1 timeline family and a late-stabilization
// parameter family.
func oracleMatrix() Matrix {
	return Matrix{
		Name: "oracle-kset", Protocol: "kset-omega",
		Seeds: []int64{0, 1},
		Sizes: []Size{{N: 5, T: 2}},
		OracleFamilies: []adversary.OracleFamily{
			{Kind: adversary.OracleLeaderFlap, Z: 1, Variants: 2, Seed: 3, Settle: []int{1}},
			{Kind: adversary.OracleLateStab, Variants: 2, Seed: 4, Start: 200, Ramp: 200},
		},
		Combos: []Combo{{Z: 1}},
		GST:    200, MaxSteps: 2_000_000,
	}
}

// TestOracleDimensionExpansion: OracleFamilies is a real cell axis with
// the documented deterministic order and per-script cells.
func TestOracleDimensionExpansion(t *testing.T) {
	m := oracleMatrix()
	cells, err := m.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 { // 1 size × 1 pattern × 1 combo × 4 scripts × 2 seeds
		t.Fatalf("expanded %d cells, want 8", len(cells))
	}
	again, err := m.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i].Oracle.Name == "" {
			t.Fatalf("cell %d has no oracle script", i)
		}
		if cells[i].Oracle.Name != again[i].Oracle.Name {
			t.Fatalf("expansion not deterministic at cell %d", i)
		}
	}
	// Oracle is the inner dimension above seeds: consecutive seed pairs
	// share a script, adjacent pairs differ.
	if cells[0].Oracle.Name != cells[1].Oracle.Name || cells[1].Oracle.Name == cells[2].Oracle.Name {
		t.Fatalf("unexpected oracle ordering: %s %s %s",
			cells[0].Oracle.Name, cells[1].Oracle.Name, cells[2].Oracle.Name)
	}

	// A matrix without OracleFamilies keeps the zero point.
	m.OracleFamilies = nil
	cells, err = m.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("zero-oracle matrix expanded %d cells, want 2", len(cells))
	}
	if !cells[0].Oracle.None() {
		t.Fatal("zero-oracle cell carries a script")
	}
}

// TestOracleSweepReport: generated-oracle cells run, pass, and carry
// script identity plus a conformance verdict; the report is
// byte-reproducible across worker counts.
func TestOracleSweepReport(t *testing.T) {
	m := oracleMatrix()
	r1, err := Run(m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(m, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.OK() {
		for _, c := range r1.Cells {
			if c.Verdict != Pass {
				t.Errorf("cell %d (%s, oracle %s): %s — %s", c.Index, c.Pattern, c.Oracle, c.Verdict, c.Detail)
			}
		}
		t.Fatal("oracle sweep did not pass")
	}
	for _, c := range r1.Cells {
		if c.Oracle == "" || c.OracleClass == "" {
			t.Fatalf("cell %d missing oracle keys: %+v", c.Index, c)
		}
		if c.OracleConformance != "conforms" {
			t.Fatalf("cell %d conformance = %q", c.Index, c.OracleConformance)
		}
	}
	b1, err := r1.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b4, err := r4.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b4) {
		t.Fatal("oracle sweep reports differ across worker counts")
	}
}

// TestOracleScriptedSuspector: a scope-churn script drives the
// two-wheels reduction through the scripted-suspector driver.
func TestOracleScriptedSuspector(t *testing.T) {
	m := Matrix{
		Name: "oracle-wheels", Protocol: "two-wheels",
		Seeds: []int64{0},
		Sizes: []Size{{N: 5, T: 2}},
		OracleFamilies: []adversary.OracleFamily{
			{Kind: adversary.OracleScopeChurn, X: 2, Variants: 2, Seed: 5, Settle: []int{1, 2}},
		},
		Combos: []Combo{{X: 2, Y: 1}},
		GST:    400, MaxSteps: 60_000,
		Params: map[string]int64{"stable_for": 12_000, "margin": 10_000},
	}
	r, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Cells {
		if c.Verdict != Pass {
			t.Errorf("cell %d (oracle %s): %s — %s", c.Index, c.Oracle, c.Verdict, c.Detail)
		}
		if c.OracleClass != "evt-s-2" || c.OracleConformance != "conforms" {
			t.Errorf("cell %d: class %q conformance %q", c.Index, c.OracleClass, c.OracleConformance)
		}
	}
}

// TestOracleParamsReachBothWheels: a parameter script on two-wheels
// configures the querier as well as the suspector — a late-stabilizing
// dimension point must not be half-applied. Observable through the
// emulated output's stabilization time: the upper wheel consults the
// ◇φ_y live, so a querier still anarchic at the script's late
// stabilization keeps the output churning past it.
func TestOracleParamsReachBothWheels(t *testing.T) {
	const stab = 8_000
	m := Matrix{
		Name: "oracle-wheels-params", Protocol: "two-wheels",
		Seeds: []int64{0},
		Sizes: []Size{{N: 5, T: 2}},
		OracleFamilies: []adversary.OracleFamily{
			{Kind: adversary.OracleLateStab, Seed: 9, Start: stab, Ramp: 1},
		},
		Combos: []Combo{{X: 2, Y: 1}},
		GST:    400, MaxSteps: 80_000,
		Params: map[string]int64{"stable_for": 12_000, "margin": 10_000},
	}
	r, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Cells {
		if c.Verdict != Pass {
			t.Fatalf("cell %d (%s): %s — %s", c.Index, c.Oracle, c.Verdict, c.Detail)
		}
		if got := c.Measures["stabilization"]; got < stab {
			t.Errorf("output stabilized at %d, before the scripted oracle stabilization %d — the script was half-applied", got, stab)
		}
	}
}

// TestOracleNonconforming: a script whose settle set the pattern
// crashes is flagged by the conformance checker and fails the cell
// without running the protocol.
func TestOracleNonconforming(t *testing.T) {
	m := oracleMatrix()
	m.Patterns = []CrashPattern{{Name: "settle-crashes",
		Crashes: []CrashSpec{{Proc: 1, At: 50}}}}
	r, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sawViolation := false
	for _, c := range r.Cells {
		if !strings.HasPrefix(c.Oracle, adversary.OracleLeaderFlap) {
			continue // late-stab params stay in class: the ground-truth oracle is pattern-aware
		}
		sawViolation = true
		if c.Verdict != Fail {
			t.Errorf("cell %d (oracle %s): verdict %s, want fail", c.Index, c.Oracle, c.Verdict)
		}
		if !strings.HasPrefix(c.OracleConformance, "violates:") {
			t.Errorf("cell %d: conformance %q", c.Index, c.OracleConformance)
		}
		if c.Steps != 0 {
			t.Errorf("cell %d ran %d steps over an out-of-class oracle", c.Index, c.Steps)
		}
	}
	if !sawViolation {
		t.Fatal("no flap cells in the report")
	}
}

// TestOraclePinningInteraction: the default path's oracle pinning is
// not silently dropped — a pinned trusted set composes with parameter
// scripts, conflicts with timelines, and stab0 conflicts with both.
func TestOraclePinningInteraction(t *testing.T) {
	m := oracleMatrix()
	m.Combos = []Combo{{Z: 1, Trusted: []int{1}}}
	r, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Cells {
		flap := strings.HasPrefix(c.Oracle, adversary.OracleLeaderFlap)
		switch {
		case flap && c.Verdict != ConfigError:
			t.Errorf("cell %d (%s): timeline + pinned trusted set gave %s, want config_error", c.Index, c.Oracle, c.Verdict)
		case flap && !strings.Contains(c.Detail, "pins a trusted set"):
			t.Errorf("cell %d: detail %q", c.Index, c.Detail)
		case !flap && c.Verdict != Pass:
			t.Errorf("cell %d (%s): param script + pinned trusted set failed: %s", c.Index, c.Oracle, c.Detail)
		case !flap && len(c.Decided) != 1:
			// Param script + pinned trusted set: Ω_1 still forces
			// consensus (the decided value may predate stabilization —
			// anarchy rounds legally shuffle estimates).
			t.Errorf("cell %d decided %v, want one value", c.Index, c.Decided)
		}
	}
	if r.ConfigErrors == 0 {
		t.Error("report tallied no config errors")
	}

	m = oracleMatrix()
	m.Params = map[string]int64{"stab0": 1}
	if r, err = Run(m, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Cells {
		if c.Verdict != ConfigError || !strings.Contains(c.Detail, "stab0 conflicts") {
			t.Errorf("cell %d (%s): stab0 + script gave %s — %q", c.Index, c.Oracle, c.Verdict, c.Detail)
		}
	}
	if r.OK() {
		t.Error("config-error report claims OK")
	}
}

// TestOracleWrongProtocol: declaring the oracle dimension on a protocol
// that builds its own oracles fails loudly instead of being ignored.
func TestOracleWrongProtocol(t *testing.T) {
	m := Matrix{
		Name: "oracle-misuse", Protocol: "phi-o1",
		Seeds:          []int64{1},
		Sizes:          []Size{{N: 5, T: 2}},
		OracleFamilies: []adversary.OracleFamily{{Kind: adversary.OracleLateStab}},
		Combos:         []Combo{{Y: 1}},
		GST:            0, MaxSteps: 2_000,
	}
	r, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Cells {
		if c.Verdict != ConfigError || !strings.Contains(c.Detail, "does not consume") {
			t.Errorf("cell %d: verdict %s detail %q", c.Index, c.Verdict, c.Detail)
		}
	}
	if r.ConfigErrors != len(r.Cells) {
		t.Errorf("tallied %d config errors, want %d", r.ConfigErrors, len(r.Cells))
	}
}

// pairFamilies builds two hostile pair families matching a combo with
// x=2, y=1 on n=5, t=2: a scope-churn suspector timeline against a
// late-stabilizing querier, and a late-stabilizing ground-truth
// suspector against a bursty anarchic querier.
func pairFamilies() []adversary.OraclePairFamily {
	return []adversary.OraclePairFamily{
		{S: adversary.OracleFamily{Kind: adversary.OracleScopeChurn, X: 2, Seed: 11, Settle: []int{1, 2}},
			Phi: adversary.OracleFamily{Kind: adversary.OracleLateStab, Y: 1, Seed: 12, Start: 4_000, Ramp: 1}},
		{S: adversary.OracleFamily{Kind: adversary.OracleLateStab, X: 2, Seed: 13, Start: 2_000, Ramp: 1},
			Phi: adversary.OracleFamily{Kind: adversary.OracleAnarchyBurst, Y: 1, Seed: 14}},
	}
}

// pairMatrix is a small paired-oracle sweep over an addition protocol.
func pairMatrix(protocol string) Matrix {
	m := Matrix{
		Name: "oracle-pairs-" + protocol, Protocol: protocol,
		Seeds:              []int64{0},
		Sizes:              []Size{{N: 5, T: 2}},
		OraclePairFamilies: pairFamilies(),
		Combos:             []Combo{{X: 2, Y: 1}},
		GST:                400, MaxSteps: 160_000,
		Params: map[string]int64{"stable_for": 12_000, "margin": 10_000},
	}
	if protocol == "add-s" {
		m.Combos = []Combo{{Name: "memory", X: 2, Y: 1}}
		m.Params = map[string]int64{"perpetual": 0, "margin": 10_000}
	}
	return m
}

// TestOraclePairTwoWheels: paired scripts drive both roles of the
// two-wheels addition, every cell passes with per-role conformance
// verdicts, and the report stays byte-reproducible across worker
// counts.
func TestOraclePairTwoWheels(t *testing.T) {
	m := pairMatrix("two-wheels")
	r1, err := Run(m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(m, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Cells) != 2 {
		t.Fatalf("expanded %d cells, want 2", len(r1.Cells))
	}
	wantClass := []string{"evt-s-2+gt-phi-1", "gt-s-2+gt-phi-1"}
	for i, c := range r1.Cells {
		if c.Verdict != Pass {
			t.Errorf("cell %d (%s): %s — %s", c.Index, c.Oracle, c.Verdict, c.Detail)
		}
		if c.OracleClass != wantClass[i] {
			t.Errorf("cell %d class %q, want %q", c.Index, c.OracleClass, wantClass[i])
		}
		if c.OracleS != "conforms" || c.OraclePhi != "conforms" || c.OracleConformance != "conforms" {
			t.Errorf("cell %d role verdicts: s=%q phi=%q joint=%q", c.Index, c.OracleS, c.OraclePhi, c.OracleConformance)
		}
		if !strings.Contains(c.Oracle, "+") {
			t.Errorf("cell %d oracle name %q is not a joint name", c.Index, c.Oracle)
		}
	}
	b1, _ := r1.CanonicalJSON()
	b4, _ := r4.CanonicalJSON()
	if !bytes.Equal(b1, b4) {
		t.Fatal("pair sweep reports differ across worker counts")
	}
}

// TestOraclePairAddS: add-s consumes the paired dimension (previously
// rejected outright), emulating S_n from hostile per-role scripts.
func TestOraclePairAddS(t *testing.T) {
	r, err := Run(pairMatrix("add-s"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Cells {
		if c.Verdict != Pass {
			t.Errorf("cell %d (%s): %s — %s", c.Index, c.Oracle, c.Verdict, c.Detail)
		}
		if c.OracleS != "conforms" || c.OraclePhi != "conforms" {
			t.Errorf("cell %d role verdicts: s=%q phi=%q", c.Index, c.OracleS, c.OraclePhi)
		}
		if c.Steps == 0 {
			t.Errorf("cell %d did not run", c.Index)
		}
	}
}

// TestOraclePairRejections: every pair rejection path reports a config
// error, not a protocol failure.
func TestOraclePairRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Matrix)
		want   string
	}{
		{"pair-on-leader-protocol", func(m *Matrix) {
			m.Protocol = "kset-omega"
			m.Combos = []Combo{{Z: 1}}
		}, "reads a single leader"},
		{"pair-on-querier-protocol", func(m *Matrix) {
			m.Protocol = "psi-omega"
			m.Combos = []Combo{{Y: 1, Z: 2}}
		}, "reads a single querier"},
		{"pair-on-suspector-protocol", func(m *Matrix) {
			m.Protocol = "consensus-ds"
			m.Combos = []Combo{{}}
		}, "reads a single suspector"},
		{"s-role-scope-mismatch", func(m *Matrix) {
			m.Combos = []Combo{{X: 3, Y: 1}}
		}, "S-role x=2, combo wants x=3"},
		{"phi-role-scope-mismatch", func(m *Matrix) {
			m.Combos = []Combo{{X: 2, Y: 0}}
		}, "phi-role y=1, combo wants y=0"},
		{"stab0-conflict", func(m *Matrix) {
			m.Params = map[string]int64{"stab0": 1, "stable_for": 12_000, "margin": 10_000}
		}, "stab0 pins the default leader"},
		{"trusted-conflict", func(m *Matrix) {
			m.Combos = []Combo{{X: 2, Y: 1, Trusted: []int{1}}}
		}, "pins a trusted set, but protocol"},
		{"single-script-on-add-s", func(m *Matrix) {
			m.Protocol = "add-s"
			m.Combos = []Combo{{Name: "memory", X: 2, Y: 1}}
			m.OraclePairFamilies = nil
			m.OracleFamilies = []adversary.OracleFamily{{Kind: adversary.OracleLateStab, Seed: 15}}
		}, "does not consume"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := pairMatrix("two-wheels")
			tc.mutate(&m)
			r, err := Run(m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Cells) == 0 {
				t.Fatal("no cells")
			}
			for _, c := range r.Cells {
				if c.Verdict != ConfigError {
					t.Errorf("cell %d (%s): verdict %s — %s", c.Index, c.Oracle, c.Verdict, c.Detail)
				}
				if !strings.Contains(c.Detail, tc.want) {
					t.Errorf("cell %d detail %q, want substring %q", c.Index, c.Detail, tc.want)
				}
				if c.Steps != 0 {
					t.Errorf("cell %d ran %d steps despite the config error", c.Index, c.Steps)
				}
			}
			if r.ConfigErrors != len(r.Cells) {
				t.Errorf("tallied %d config errors, want %d", r.ConfigErrors, len(r.Cells))
			}
		})
	}
}

// TestOraclePairNonconforming: a pair whose S-role settle set the
// pattern crashes fails the cell as a genuine violation (not a config
// error), with the blame on the S role and no protocol run.
func TestOraclePairNonconforming(t *testing.T) {
	m := pairMatrix("two-wheels")
	m.Patterns = []CrashPattern{{Name: "settle-crashes",
		Crashes: []CrashSpec{{Proc: 1, At: 50}}}}
	r, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	saw := false
	for _, c := range r.Cells {
		if !strings.HasPrefix(c.Oracle, adversary.OracleScopeChurn) {
			continue // the ground-truth S role is pattern-aware and stays in class
		}
		saw = true
		if c.Verdict != Fail {
			t.Errorf("cell %d (%s): verdict %s, want fail", c.Index, c.Oracle, c.Verdict)
		}
		if !strings.HasPrefix(c.OracleS, "violates:") {
			t.Errorf("cell %d OracleS %q", c.Index, c.OracleS)
		}
		if c.OraclePhi != "conforms" {
			t.Errorf("cell %d OraclePhi %q", c.Index, c.OraclePhi)
		}
		if !strings.HasPrefix(c.OracleConformance, "violates: S role:") {
			t.Errorf("cell %d joint verdict %q", c.Index, c.OracleConformance)
		}
		if c.Steps != 0 {
			t.Errorf("cell %d ran %d steps over an out-of-class pair", c.Index, c.Steps)
		}
	}
	if !saw {
		t.Fatal("no scope-churn pair cells in the report")
	}
}

// TestOraclePairPerpetualMismatch: on the perpetual add-s, a pair whose
// roles stabilize late (declaring a misbehaving prefix) violates the
// perpetual classes S_x and φ_y, and both role verdicts say so.
func TestOraclePairPerpetualMismatch(t *testing.T) {
	m := pairMatrix("add-s")
	m.OraclePairFamilies = pairFamilies()[1:] // both roles parameter scripts
	m.Params = map[string]int64{"perpetual": 1, "margin": 10_000}
	r, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Cells {
		if c.Verdict != Fail {
			t.Errorf("cell %d (%s): verdict %s — %s", c.Index, c.Oracle, c.Verdict, c.Detail)
		}
		if !strings.Contains(c.OracleS, "perpetual") {
			t.Errorf("cell %d OracleS %q, want a perpetual-class violation", c.Index, c.OracleS)
		}
		if !strings.Contains(c.OraclePhi, "perpetual") {
			t.Errorf("cell %d OraclePhi %q, want a perpetual-class violation", c.Index, c.OraclePhi)
		}
	}
}

// shapeColumns are the script shapes TestOracleShapes feeds every
// protocol: no script, a leader timeline, a suspect timeline, a
// parameter script, a parameter script declaring a scope the combo
// does not want, a pair, and no script beside each pin of the default
// Ω (the stab0 param, a combo trusted set).
var shapeColumns = []string{"none", "leader", "suspect", "param", "param-scope", "pair", "pin-stab0", "pin-trusted"}

// shapeRow is one protocol of TestOracleShapes: a small matrix it runs
// on, the scopes its combo asks for (z, x, y) and, per shape column,
// the detail substring of the expected config error ("" = the protocol
// runs).
type shapeRow struct {
	m       Matrix
	z, x, y int
	mis     adversary.OracleFamily // the mismatched-scope parameter family
	want    [8]string
}

// shapeRows builds one row per built-in protocol.
func shapeRows() map[string]shapeRow {
	small := func(protocol string, combo Combo, maxSteps sim.Time, params map[string]int64) Matrix {
		return Matrix{
			Name: "shapes-" + protocol, Protocol: protocol,
			Seeds: []int64{0}, Sizes: []Size{{N: 5, T: 2}},
			Combos: []Combo{combo}, GST: 400, MaxSteps: maxSteps, Params: params,
		}
	}
	wheel := map[string]int64{"stable_for": 12_000, "margin": 10_000}
	lateStab := func(f adversary.OracleFamily) adversary.OracleFamily {
		f.Kind, f.Seed, f.Start, f.Ramp = adversary.OracleLateStab, 7, 200, 1
		return f
	}
	none, pin := "does not consume", "reads no leader"
	noOracle := [8]string{"", none, none, none, none, none, pin, pin}
	grid := core.GridLine(1, 2)[2]

	psi := small("psi-omega", Combo{Y: 1, Z: 2}, 6_000, map[string]int64{"margin": 1_000})
	psi.Sizes, psi.GST, psi.Bandwidth = []Size{{N: 6, T: 2}}, 0, 1
	phiO1 := small("phi-o1", Combo{Y: 1}, 2_000, map[string]int64{"at": 1_500, "ring_x": 3})
	phiO1.Sizes, phiO1.GST, phiO1.Bandwidth = []Size{{N: 6, T: 3}}, 0, 1
	irr := small("irreducibility", Combo{X: 3, Y: 1, Region: []int{4, 5}}, 2_500,
		map[string]int64{"tau": 500, "crash_at": 100, "slack": 2_000})
	irr.GST, irr.Bandwidth = 0, 1

	return map[string]shapeRow{
		"kset-grid": {m: small("kset-grid", Combo{Family: grid.Fam, Param: grid.Param, Z: 1}, 2_000_000, nil),
			z: 1, x: 3, y: 1, mis: lateStab(adversary.OracleFamily{Z: 2}), want: noOracle},
		"kset-omega": {m: small("kset-omega", Combo{Z: 1}, 2_000_000, nil),
			z: 1, x: 3, y: 1, mis: lateStab(adversary.OracleFamily{Z: 2}),
			want: [8]string{"", "", "reads a leader", "", "declares z=2, combo wants z=1", "reads a single leader", "", ""}},
		"kset-seq": {m: small("kset-seq", Combo{Z: 1}, 2_000_000, map[string]int64{"instances": 2}),
			z: 1, x: 3, y: 1, mis: lateStab(adversary.OracleFamily{Z: 2}),
			want: [8]string{"", "", "reads a leader", "", "declares z=2, combo wants z=1", "reads a single leader", "", ""}},
		"consensus-ds": {m: small("consensus-ds", Combo{}, 400_000, nil),
			z: 1, x: 5, y: 1, mis: lateStab(adversary.OracleFamily{X: 4}),
			want: [8]string{"", "reads a suspector", "", "", "declares x=4, combo wants x=5", "reads a single suspector", pin, pin}},
		"single-wheel": {m: small("single-wheel", Combo{}, 150_000, wheel),
			z: 1, x: 5, y: 1, mis: lateStab(adversary.OracleFamily{X: 4}),
			want: [8]string{"", "reads a suspector", "", "", "declares x=4, combo wants x=5", "reads a single suspector", pin, pin}},
		"lower-wheel": {m: small("lower-wheel", Combo{X: 2}, 100_000, nil),
			z: 1, x: 2, y: 1, mis: lateStab(adversary.OracleFamily{X: 3}),
			want: [8]string{"", "reads a suspector", "", "", "declares x=3, combo wants x=2", "reads a single suspector", pin, pin}},
		"psi-omega": {m: psi,
			z: 2, x: 3, y: 1, mis: lateStab(adversary.OracleFamily{Y: 2}),
			want: [8]string{"", "reads a querier", "reads a querier", "", "declares y=2, combo wants y=1", "reads a single querier", pin, pin}},
		"two-wheels": {m: small("two-wheels", Combo{X: 2, Y: 1}, 80_000, wheel),
			z: 1, x: 2, y: 1, mis: lateStab(adversary.OracleFamily{Y: 2}),
			want: [8]string{"", "reads a suspector", "", "", "declares y=2, combo wants y=1", "", pin, pin}},
		"add-s": {m: small("add-s", Combo{Name: "memory", X: 2, Y: 1}, 160_000, map[string]int64{"perpetual": 0, "margin": 10_000}),
			z: 1, x: 2, y: 1, mis: lateStab(adversary.OracleFamily{Y: 2}),
			want: [8]string{"", none, none, none, none, "", pin, pin}},
		"phi-o1": {m: phiO1,
			z: 1, x: 3, y: 1, mis: lateStab(adversary.OracleFamily{Y: 2}), want: noOracle},
		"irreducibility": {m: irr,
			z: 1, x: 3, y: 1, mis: lateStab(adversary.OracleFamily{Y: 2}), want: noOracle},
	}
}

// TestOracleShapes is the protocol × script-shape table of the
// generated-oracle dimension: every built-in protocol against every
// script shape, each cell either running the protocol over the
// resolved oracles or failing as a config error — with its detail
// substring, no steps taken and the script's class on the row.
func TestOracleShapes(t *testing.T) {
	rows := shapeRows()
	for _, protocol := range Protocols() {
		row, ok := rows[protocol]
		if !ok {
			t.Errorf("protocol %q has no row in the shape table", protocol)
			continue
		}
		settle := make([]int, row.x)
		for i := range settle {
			settle[i] = i + 1
		}
		for col, shape := range shapeColumns {
			t.Run(protocol+"/"+shape, func(t *testing.T) {
				m := row.m
				switch shape {
				case "leader":
					m.OracleFamilies = []adversary.OracleFamily{{Kind: adversary.OracleLeaderFlap, Z: row.z, Seed: 3, Settle: []int{1}}}
				case "suspect":
					m.OracleFamilies = []adversary.OracleFamily{{Kind: adversary.OracleScopeChurn, X: row.x, Seed: 5, Settle: settle}}
				case "param":
					m.OracleFamilies = []adversary.OracleFamily{{Kind: adversary.OracleLateStab, Seed: 4, Start: 200, Ramp: 1}}
				case "param-scope":
					m.OracleFamilies = []adversary.OracleFamily{row.mis}
				case "pair":
					m.OraclePairFamilies = []adversary.OraclePairFamily{{
						S:   adversary.OracleFamily{Kind: adversary.OracleScopeChurn, X: row.x, Seed: 11, Settle: settle},
						Phi: adversary.OracleFamily{Kind: adversary.OracleLateStab, Y: row.y, Seed: 12, Start: 200, Ramp: 1},
					}}
				case "pin-stab0":
					m.Params = maps.Clone(m.Params)
					if m.Params == nil {
						m.Params = map[string]int64{}
					}
					m.Params["stab0"] = 1
				case "pin-trusted":
					combo := m.Combos[0]
					combo.Trusted = []int{1}
					m.Combos = []Combo{combo}
				}
				scripted := shape != "none" && !strings.HasPrefix(shape, "pin-")
				r, err := Run(m, Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if len(r.Cells) != 1 {
					t.Fatalf("expanded %d cells, want 1", len(r.Cells))
				}
				c := r.Cells[0]
				want := row.want[col]
				if want != "" {
					if c.Verdict != ConfigError || !strings.Contains(c.Detail, want) {
						t.Errorf("verdict %s detail %q, want config_error containing %q", c.Verdict, c.Detail, want)
					}
					if c.Steps != 0 {
						t.Errorf("ran %d steps despite the config error", c.Steps)
					}
					if scripted != (c.OracleClass != "") {
						t.Errorf("config error row has oracle class %q, want one exactly when a script is set", c.OracleClass)
					}
					return
				}
				if c.Verdict != Pass && c.Verdict != Fail {
					t.Fatalf("verdict %s — %s, want the protocol to run", c.Verdict, c.Detail)
				}
				if c.Steps == 0 && len(c.Measures) == 0 {
					t.Errorf("verdict %s with no steps and no measures: the protocol did not run", c.Verdict)
				}
				if scripted && c.OracleConformance != "conforms" {
					t.Errorf("conformance %q, want conforms", c.OracleConformance)
				}
			})
		}
	}
}
