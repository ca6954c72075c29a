package main

import (
	"fmt"
	"slices"
	"strings"

	"fdgrid/internal/adversary"
	"fdgrid/internal/cliutil"
	"fdgrid/internal/core"
	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
	"fdgrid/internal/sweep"
	"fdgrid/internal/trace"
)

// An experiment is one row of the suite: one result of the paper (or
// one check of the reproduction itself) and the cells that measure it.
// Each row renders as one section of EXPERIMENTS.md: the title, the
// paper's claim, the row's tables and the verdict with its detail.
type experiment struct {
	title, claim, measured string
	// matrices declares the row's cells at a seed count. It is pure
	// data: -matrices exports it and -replay resolves cells in it
	// without running or rendering anything.
	matrices func(seeds int) []sweep.Matrix
	// render writes the row's tables from the reports of its matrices,
	// in matrices order, and says whether the claim was reproduced.
	// Only EXP-CF reads seeds: it replays a cell of another row.
	render func(b *strings.Builder, rs []*sweep.Report, seeds int) bool
}

// suite is the experiment suite in EXPERIMENTS.md order. Adding an
// experiment means adding a row.
var suite []experiment

// init fills the table: EXP-CF's renderer resolves its matrix through
// suiteMatrix, which reads the table, so a plain initializer would be
// a cycle.
func init() {
	suite = []experiment{
		{
			title: "EXP-F1 · Fig. 1 — the grid of classes",
			claim: "Every class on line z of the grid solves z-set agreement; " +
				"line z contains S_{t−z+2}, ◇S_{t−z+2}, Ω_z, φ_{t−z+1}, ◇φ_{t−z+1} (and Ψ_{t−z+1}).",
			measured: "every grid cell decides with at most z distinct values (n=5, t=2, one late crash, hostile oracles before GST=600)",
			matrices: func(seeds int) []sweep.Matrix {
				const t = 2
				var combos []sweep.Combo
				for z := 1; z <= t+1; z++ {
					for _, c := range core.GridLine(z, t) {
						combos = append(combos, sweep.Combo{Family: c.Fam, Param: c.Param, Z: z})
					}
				}
				return []sweep.Matrix{{
					Name: "F1-grid", Protocol: "kset-grid",
					Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 5, T: t}},
					Patterns: []sweep.CrashPattern{{Name: "late-crash", Crashes: []sweep.CrashSpec{{Proc: 4, At: 900}}}},
					Combos:   combos,
					GST:      600, MaxSteps: 2_000_000,
				}}
			},
			render: func(b *strings.Builder, rs []*sweep.Report, _ int) bool {
				r := rs[0]
				tab := &cliutil.Table{Headers: []string{
					"line z", "class", "runs", "decided", "max distinct", "max round", "avg vticks", "ok"}}
				for _, cells := range groups(r, byCombo) {
					combo := cells[0].Combo
					tab.Add(combo.Z, combo.Class().String(), len(cells),
						cells[len(cells)-1].Decisions,
						maxOf(cells, func(c sweep.CellResult) int { return len(c.Decided) }),
						maxOf(cells, func(c sweep.CellResult) int { return c.MaxRound }),
						avg(cells, steps), allPass(cells))
				}
				b.WriteString(tab.String())
				return r.OK()
			},
		},
		{
			title: "EXP-F2 · Fig. 2 / Theorem 8 — additivity ◇S_x + ◇φ_y → Ω_z",
			claim: "The two-wheels algorithm adds any ◇S_x and ◇φ_y into Ω_z with exactly z = t+2−x−y.",
			measured: "the emulated output satisfies Ω_{t+2−x−y} across the whole frontier x+y ≤ t+1, " +
				"including under generated hostile oracle pairs driving both roles",
			matrices: func(seeds int) []sweep.Matrix {
				var combos []sweep.Combo
				for _, p := range []struct{ x, y int }{{1, 0}, {2, 0}, {3, 0}, {1, 1}, {2, 1}, {1, 2}} {
					combos = append(combos, sweep.Combo{X: p.x, Y: p.y})
				}
				// The theorem quantifies over *pairs* of oracles — any ◇S_x with
				// any ◇φ_y — so the generated dimension must reach both roles at
				// once: each pair family scripts the suspector and parameterizes
				// the querier independently, and every cell carries per-role
				// conformance verdicts (oracle_s, oracle_phi).
				pairs := []adversary.OraclePairFamily{
					// A conforming scope-churn ◇S_2 against a maximally-late ◇φ_1.
					{S: adversary.OracleFamily{Kind: adversary.OracleScopeChurn, X: 2, Seed: 61, Settle: []int{1, 2}},
						Phi: adversary.OracleFamily{Kind: adversary.OracleLateStab, Y: 1, Seed: 62, Start: 20_000, Ramp: 1}},
					// A long-flapping suspector against an over-eager anarchic querier.
					{S: adversary.OracleFamily{Kind: adversary.OracleScopeChurn, X: 2, Seed: 63, Flaps: 10, Period: 120, Settle: []int{1, 2}},
						Phi: adversary.OracleFamily{Kind: adversary.OracleAnarchyBurst, Y: 1, Seed: 64, RatePermille: 950}},
					// Both roles ground-truth, stabilizing late and staggered.
					{S: adversary.OracleFamily{Kind: adversary.OracleLateStab, X: 2, Seed: 65, Start: 8_000, Ramp: 1},
						Phi: adversary.OracleFamily{Kind: adversary.OracleLateStab, Y: 1, Seed: 66, Start: 12_000, Ramp: 1}},
				}
				lateCrash := []sweep.CrashPattern{{Name: "late-crash", Crashes: []sweep.CrashSpec{{Proc: 4, At: 800}}}}
				return []sweep.Matrix{{
					Name: "F2-additivity", Protocol: "two-wheels",
					Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 5, T: 2}},
					Patterns:  lateCrash,
					Combos:    combos,
					Bandwidth: 10,
					GST:       600, MaxSteps: 400_000,
					Params: map[string]int64{"stable_for": 12_000, "margin": 10_000},
				}, {
					Name: "F2-additivity-pairs", Protocol: "two-wheels",
					Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 5, T: 2}},
					Patterns:           lateCrash,
					OraclePairFamilies: pairs,
					Combos:             []sweep.Combo{{X: 2, Y: 1}},
					Bandwidth:          10,
					GST:                600, MaxSteps: 160_000,
					Params: map[string]int64{"stable_for": 12_000, "margin": 10_000},
				}}
			},
			render: func(b *strings.Builder, rs []*sweep.Report, _ int) bool {
				r, rPair := rs[0], rs[1]
				t := r.Matrix.Sizes[0].T
				tab := &cliutil.Table{Headers: []string{
					"x", "y", "z=t+2−x−y", "Ω_z check", "Ω_{z−1} check", "avg stabilization vtick", "avg msgs"}}
				for _, cells := range groups(r, byCombo) {
					combo := cells[0].Combo
					z := t + 2 - combo.X - combo.Y
					tighter := "n/a"
					if z > 1 {
						if avg(cells, measure("z_minus_1_passes")) > 0 {
							tighter = "passes (resting set smaller than z)"
						} else {
							tighter = "fails (size z)"
						}
					}
					tab.Add(combo.X, combo.Y, z, allPass(cells), tighter,
						avg(cells, measure("stabilization")), avg(cells, msgs))
				}
				b.WriteString(tab.String())
				tabP := &cliutil.Table{Headers: []string{
					"oracle pair", "classes", "S-role verdict", "φ-role verdict", "runs", "Ω_1 check", "avg stabilization vtick"}}
				for _, g := range groups(rPair, byOracle) {
					tabP.Add(g[0].Oracle, g[0].OracleClass, roleOf(g, sRole), roleOf(g, phiRole),
						len(g), allPass(g), avg(g, measure("stabilization")))
				}
				b.WriteString("\n")
				b.WriteString(tabP.String())
				return r.OK() && rPair.OK()
			},
		},
		{
			title:    "EXP-F3 · Fig. 3 — Ω_z-based k-set agreement",
			claim:    "The algorithm solves k-set agreement for z ≤ k, t < n/2, with two communication steps per round.",
			measured: "2-set agreement reached at every size; decision latency tracks the pre-GST anarchy window, messages grow ~n² per round",
			matrices: func(seeds int) []sweep.Matrix {
				var sizes []sweep.Size
				for _, n := range []int{5, 7, 9, 11} {
					sizes = append(sizes, sweep.Size{N: n, T: (n - 1) / 2})
				}
				return []sweep.Matrix{{
					Name: "F3-scaling", Protocol: "kset-omega",
					Seeds: seedList(seeds), Sizes: sizes,
					Patterns: []sweep.CrashPattern{{Name: "last-crashes", Crashes: []sweep.CrashSpec{{Proc: 0, At: 400}}}},
					Combos:   []sweep.Combo{{Z: 2}},
					GST:      600, MaxSteps: 2_000_000,
				}}
			},
			render: func(b *strings.Builder, rs []*sweep.Report, _ int) bool {
				r := rs[0]
				tab := &cliutil.Table{Headers: []string{
					"n", "t", "z", "avg rounds", "avg vticks", "avg msgs", "ok"}}
				for _, cells := range groups(r, bySize) {
					size := cells[0].Size
					tab.Add(size.N, size.T, 2, avg(cells, rounds), avg(cells, steps), avg(cells, msgs), allPass(cells))
				}
				b.WriteString(tab.String())
				return r.OK()
			},
		},
		{
			title: "EXP-F3a/b · §3.2 — oracle-efficiency and zero-degradation",
			claim: "With a perfect Ω_k the algorithm decides in one round (two steps) when there is no crash, " +
				"and still in one round when crashes are initial only (zero degradation).",
			measured: "single-round fast path in both scenarios",
			matrices: func(seeds int) []sweep.Matrix {
				return []sweep.Matrix{{
					Name: "F3a-oracle-efficiency", Protocol: "kset-omega",
					Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 7, T: 3}},
					Combos: []sweep.Combo{{Z: 2}},
					GST:    0, MaxSteps: 500_000,
					Params: map[string]int64{"stab0": 1, "require_round1": 1, "value_base": 0},
				}, {
					Name: "F3b-zero-degradation", Protocol: "kset-omega",
					Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 7, T: 3}},
					Patterns: []sweep.CrashPattern{{Name: "two-initial",
						Crashes: []sweep.CrashSpec{{Proc: 2, At: 0}, {Proc: 5, At: 0}}}},
					Combos: []sweep.Combo{{Z: 2, Trusted: []int{1, 4}}},
					GST:    0, MaxSteps: 500_000,
					Params: map[string]int64{"stab0": 1, "require_round1": 1, "value_base": 0},
				}}
			},
			render: func(b *strings.Builder, rs []*sweep.Report, _ int) bool {
				ra, rb := rs[0], rs[1]
				tab := &cliutil.Table{Headers: []string{"scenario", "runs", "all decided round 1"}}
				tab.Add("perfect oracle, no crash (oracle-efficiency)", len(ra.Cells), ra.OK())
				tab.Add("perfect oracle, 2 initial crashes (zero-degradation)", len(rb.Cells), rb.OK())
				b.WriteString(tab.String())
				return ra.OK() && rb.OK()
			},
		},
		{
			// A static enumeration: no simulation, so no matrices.
			title:    "EXP-F4 · Fig. 4 — the common ring of candidate sets",
			claim:    "All processes scan the same infinite sequence ℓ¹₁…ℓ¹ₓ, ℓ²₁… over the x-subsets (and (L,Y) pairs).",
			measured: "enumeration invariants hold (see internal/ids property tests)",
			matrices: func(int) []sweep.Matrix { return nil },
			render: func(b *strings.Builder, _ []*sweep.Report, _ int) bool {
				tab := &cliutil.Table{Headers: []string{"ring", "n", "params", "positions", "invariants"}}
				tab.Add("lower (ℓ, X)", 9, "x=4", ids.NewXRing(9, 4).Len(), "leader ∈ X, |X| = x, cyclic (property-tested)")
				tab.Add("upper (L, Y)", 9, "|Y|=4, |L|=2", ids.NewLYRing(9, 4, 2).Len(), "L ⊆ Y, sizes fixed, cyclic (property-tested)")
				b.WriteString(tab.String())
				return true
			},
		},
		{
			title:    "EXP-F5 · Fig. 5 — the lower wheel (◇S_x → representatives)",
			claim:    "The wheel stabilizes on a pair (ℓ, X) per Theorem 6, and is quiescent: only finitely many x_move messages are sent (Corollary 1).",
			measured: "positions agree across correct processes and x_move traffic stops",
			matrices: func(seeds int) []sweep.Matrix {
				return []sweep.Matrix{{
					Name: "F5-lower-wheel", Protocol: "lower-wheel",
					Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 5, T: 2}},
					Patterns: []sweep.CrashPattern{{Name: "late-crash", Crashes: []sweep.CrashSpec{{Proc: 4, At: 700}}}},
					Combos:   []sweep.Combo{{X: 2}},
					GST:      500, MaxSteps: 100_000,
					Params: map[string]int64{"mark": 80_000},
				}}
			},
			render: func(b *strings.Builder, rs []*sweep.Report, _ int) bool {
				tab := &cliutil.Table{Headers: []string{
					"seed", "stable pair reached", "x_move sends (80% mark)", "x_move sends (end)", "quiescent"}}
				for _, c := range rs[0].Cells {
					tab.Add(c.Seed, c.Verdict == sweep.Pass, c.Measures["xmove_at_mark"],
						c.Measures["xmove_end"], c.Measures["xmove_at_mark"] == c.Measures["xmove_end"])
				}
				b.WriteString(tab.String())
				return rs[0].OK()
			},
		},
		{
			title:    "EXP-F6 · Figs. 6–7 — the upper wheel (adding ◇φ_y)",
			claim:    "The combined wheels output Ω_z; the upper wheel is *not* quiescent — correct processes keep exchanging inquiry/response forever (§4.2.2 remark).",
			measured: "Ω_z emulated while inquiry traffic continues (non-quiescent by design)",
			matrices: func(seeds int) []sweep.Matrix {
				return []sweep.Matrix{{
					Name: "F6-upper-wheel", Protocol: "two-wheels",
					Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 5, T: 2}},
					Combos: []sweep.Combo{{X: 2, Y: 1}},
					GST:    400, MaxSteps: 30_000,
					Params: map[string]int64{"mark": 22_500, "require_nonquiescent": 1, "margin": 10_000},
				}}
			},
			render: func(b *strings.Builder, rs []*sweep.Report, _ int) bool {
				tab := &cliutil.Table{Headers: []string{
					"seed", "Ω_1 check", "inquiries (75% mark)", "inquiries (end)", "still inquiring"}}
				for _, c := range rs[0].Cells {
					tab.Add(c.Seed, c.Verdict == sweep.Pass, c.Measures["inquiries_at_mark"],
						c.Measures["inquiries_end"], c.Measures["inquiries_end"] > c.Measures["inquiries_at_mark"])
				}
				b.WriteString(tab.String())
				return rs[0].OK()
			},
		},
		{
			title:    "EXP-F8 · Fig. 8 — Ψ_y → Ω_z (y+z > t)",
			claim:    "The chain construction turns any Ψ_y into Ω_z when y+z > t, with no messages at all (Theorem 13).",
			measured: "local chain queries suffice; zero message cost",
			matrices: func(seeds int) []sweep.Matrix {
				return []sweep.Matrix{{
					Name: "F8-psi-omega", Protocol: "psi-omega",
					Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 6, T: 2}},
					Patterns: []sweep.CrashPattern{{Name: "two-crashes",
						Crashes: []sweep.CrashSpec{{Proc: 1, At: 200}, {Proc: 2, At: 500}}}},
					Combos:    []sweep.Combo{{Y: 2, Z: 1}, {Y: 1, Z: 2}, {Y: 0, Z: 3}},
					Bandwidth: 1,
					GST:       0, MaxSteps: 6_000,
					Params: map[string]int64{"margin": 1_000},
				}}
			},
			render: func(b *strings.Builder, rs []*sweep.Report, _ int) bool {
				r := rs[0]
				tab := &cliutil.Table{Headers: []string{"y", "z", "crashes", "Ω_z check", "msgs"}}
				for _, cells := range groups(r, byCombo) {
					combo := cells[0].Combo
					tab.Add(combo.Y, combo.Z, "{1@200, 2@500}", allPass(cells), avg(cells, msgs))
				}
				b.WriteString(tab.String())
				return r.OK()
			},
		},
		{
			title: "EXP-F9 · Fig. 9 — the addition S_x + φ_y → S_n (x+y > t)",
			claim: "The register-based algorithm adds S_x and φ_y into S = S_n (eventual flavor: ◇S_x + ◇φ_y → ◇S), over shared memory or its message-passing translations.",
			measured: "emulated SUSPECTED sets pass the class checker on every substrate, " +
				"including under generated hostile oracle pairs driving both roles",
			matrices: func(seeds int) []sweep.Matrix {
				// Generated hostile oracle pairs: add-s consumes two oracles, so
				// the generated dimension reaches it only through paired scripts
				// — one per role, each conformance-checked against its declared
				// class.
				pairs := []adversary.OraclePairFamily{
					// A conforming scope-churn ◇S_2 against a maximally-late ◇φ_1.
					{S: adversary.OracleFamily{Kind: adversary.OracleScopeChurn, X: 2, Seed: 71, Settle: []int{1, 2}},
						Phi: adversary.OracleFamily{Kind: adversary.OracleLateStab, Y: 1, Seed: 72, Start: 16_000, Ramp: 1}},
					// A long-flapping suspector against an over-eager anarchic querier.
					{S: adversary.OracleFamily{Kind: adversary.OracleScopeChurn, X: 2, Seed: 73, Flaps: 8, Period: 100, Settle: []int{1, 2}},
						Phi: adversary.OracleFamily{Kind: adversary.OracleAnarchyBurst, Y: 1, Seed: 74, RatePermille: 950}},
					// Both roles ground-truth, stabilizing late and staggered.
					{S: adversary.OracleFamily{Kind: adversary.OracleLateStab, X: 2, Seed: 75, Start: 6_000, Ramp: 1},
						Phi: adversary.OracleFamily{Kind: adversary.OracleLateStab, Y: 1, Seed: 76, Start: 10_000, Ramp: 1}},
				}
				midCrash := []sweep.CrashPattern{{Name: "mid-crash", Crashes: []sweep.CrashSpec{{Proc: 3, At: 800}}}}
				return []sweep.Matrix{{
					Name: "F9-add-s", Protocol: "add-s",
					Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 5, T: 2}},
					Patterns: midCrash,
					Combos: []sweep.Combo{
						{Name: "memory", X: 2, Y: 1},
						{Name: "heartbeat", X: 2, Y: 1},
						{Name: "abd", X: 2, Y: 1},
					},
					GST: 0, MaxSteps: 120_000,
					Params: map[string]int64{"perpetual": 1, "margin": 10_000},
				}, {
					Name: "F9-add-s-eventual", Protocol: "add-s",
					Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 5, T: 2}},
					Patterns: []sweep.CrashPattern{{Name: "early-crash", Crashes: []sweep.CrashSpec{{Proc: 2, At: 500}}}},
					Combos:   []sweep.Combo{{Name: "memory", X: 2, Y: 1}},
					GST:      2_000, MaxSteps: 150_000,
					Params: map[string]int64{"perpetual": 0, "margin": 10_000},
				}, {
					Name: "F9-add-s-pairs", Protocol: "add-s",
					Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 5, T: 2}},
					Patterns:           midCrash,
					OraclePairFamilies: pairs,
					Combos:             []sweep.Combo{{Name: "memory", X: 2, Y: 1}},
					GST:                0, MaxSteps: 200_000,
					Params: map[string]int64{"perpetual": 0, "margin": 10_000},
				}}
			},
			render: func(b *strings.Builder, rs []*sweep.Report, _ int) bool {
				r, rEvt, rPair := rs[0], rs[1], rs[2]
				tab := &cliutil.Table{Headers: []string{
					"substrate", "inputs", "output class check", "ok"}}
				for _, cells := range groups(r, byCombo) {
					tab.Add(cells[0].Combo.Name, "S_2 + φ_1 (t=2: x+y=3 > t)", "S_5 (perpetual, scope n)", allPass(cells))
				}
				tab.Add("memory", "◇S_2 + ◇φ_1", "◇S_5 (eventual)", rEvt.OK())
				b.WriteString(tab.String())
				tabP := &cliutil.Table{Headers: []string{
					"oracle pair", "classes", "S-role verdict", "φ-role verdict", "runs", "◇S_5 check"}}
				for _, g := range groups(rPair, byOracle) {
					tabP.Add(g[0].Oracle, g[0].OracleClass, roleOf(g, sRole), roleOf(g, phiRole),
						len(g), allPass(g))
				}
				b.WriteString("\n")
				b.WriteString(tabP.String())
				return r.OK() && rEvt.OK() && rPair.OK()
			},
		},
		{
			title:    "EXP-T5 · Theorem 5 — t < n/2 and z ≤ k are tight",
			claim:    "k-set agreement is solvable in AS[n,t](Ω_z) iff t < n/2 and z ≤ k: with a legal Ω_{k+1} there are runs deciding k+1 values, and the construction refuses t ≥ n/2.",
			measured: "both sides of Theorem 5 observed",
			matrices: func(seeds int) []sweep.Matrix {
				return []sweep.Matrix{{
					Name: "T5-tightness", Protocol: "kset-omega",
					Seeds: seedList(seeds * 4), Sizes: []sweep.Size{{N: 5, T: 2}},
					Combos: []sweep.Combo{{Z: 2, Trusted: []int{1, 2}}},
					GST:    0, MaxSteps: 500_000,
					Params: map[string]int64{"stab0": 1, "value_base": 0},
				}}
			},
			render: func(b *strings.Builder, rs []*sweep.Report, _ int) bool {
				r := rs[0]
				z := r.Matrix.Combos[0].Z
				maxDistinct := sweep.MaxDistinct(r.Cells)
				_, err := core.SpawnKSetWith(sim.MustNew(sim.Config{N: 4, T: 2, Seed: 1, MaxSteps: 1_000}),
					core.Class{Fam: core.FamOmega, Param: 1}, nil)
				refused := err != nil
				tab := &cliutil.Table{Headers: []string{"boundary", "observation"}}
				tab.Add("z ≤ k tight", fmt.Sprintf("Ω_2 runs decided up to %d distinct values (> k=1, never > z=2)", maxDistinct))
				tab.Add("t < n/2", fmt.Sprintf("construction with t ≥ n/2 rejected: %v", refused))
				b.WriteString(tab.String())
				return r.OK() && maxDistinct == z && refused
			},
		},
		{
			title:    "EXP-T8 · Theorem 8 necessity + Observation O1",
			claim:    "x+y+z ≥ t+2 is necessary: the two-wheels output rests on a set of full size z = t+2−x−y, failing the Ω_{z−1} checker; and with f ≤ t−y crashes a φ_y answers by size only (O1).",
			measured: "the construction is exactly optimal (Corollary 4)",
			matrices: func(seeds int) []sweep.Matrix {
				return []sweep.Matrix{{
					Name: "T8-necessity", Protocol: "two-wheels",
					Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 5, T: 2}},
					Combos: []sweep.Combo{{X: 1, Y: 0}},
					GST:    600, MaxSteps: 200_000,
					Params: map[string]int64{"stable_for": 12_000, "margin": 10_000, "expect_tight": 1},
				}, {
					Name: "T8-O1", Protocol: "phi-o1",
					Seeds: []int64{1}, Sizes: []sweep.Size{{N: 6, T: 3}},
					Patterns: []sweep.CrashPattern{{Name: "f=t-y",
						Crashes: []sweep.CrashSpec{{Proc: 1, At: 100}, {Proc: 2, At: 150}}}},
					Combos:    []sweep.Combo{{Y: 1}},
					Bandwidth: 1, GST: 0, MaxSteps: 2_000,
					Params: map[string]int64{"at": 1_500, "ring_x": 3},
				}}
			},
			render: func(b *strings.Builder, rs []*sweep.Report, _ int) bool {
				r, rO1 := rs[0], rs[1]
				failZminus1 := 0
				for _, c := range r.Cells {
					if c.Measures["z_minus_1_passes"] == 0 {
						failZminus1++
					}
				}
				tab := &cliutil.Table{Headers: []string{"check", "result"}}
				tab.Add("two-wheels output fails Ω_{z−1}", fmt.Sprintf("%d/%d runs", failZminus1, len(r.Cells)))
				tab.Add("O1: f ≤ t−y ⇒ informative queries all false", rO1.OK())
				b.WriteString(tab.String())
				return r.OK() && failZminus1 == len(r.Cells) && rO1.OK()
			},
		},
		{
			title:    "EXP-T9 · Theorems 9–12 — irreducibility by crash-vs-delay",
			claim:    "No algorithm builds ◇φ_y from S_x: for any claimed stabilization time τ, a run R′ (region E alive but delayed past τ, oracle outputs identical to run R where E crashed) makes the reducer answer true about live processes after τ.",
			measured: "every candidate stabilization time is defeated; Theorems 10–12 follow the same indistinguishability pattern (see internal/adversary tests)",
			matrices: func(int) []sweep.Matrix {
				var ms []sweep.Matrix
				for _, tau := range []int64{500, 2_000, 5_000} {
					ms = append(ms, sweep.Matrix{
						Name: fmt.Sprintf("T9-tau%d", tau), Protocol: "irreducibility",
						Seeds: []int64{9}, Sizes: []sweep.Size{{N: 5, T: 2}},
						Combos:    []sweep.Combo{{X: 3, Y: 1, Region: []int{4, 5}}},
						Bandwidth: 1, MaxSteps: sim.Time(tau) + 2_000,
						Params: map[string]int64{"tau": tau, "crash_at": 100, "slack": 2_000},
					})
				}
				return ms
			},
			render: func(b *strings.Builder, rs []*sweep.Report, _ int) bool {
				tab := &cliutil.Table{Headers: []string{
					"claimed stabilization τ", "run R: query(E) true at", "run R′ (E correct): safety violated at"}}
				ok := true
				for _, r := range rs {
					ok = ok && r.OK()
					c := r.Cells[0]
					tab.Add(r.Matrix.Params["tau"], c.Measures["query_true_in_r"], c.Measures["violation_in_r_prime"])
				}
				b.WriteString(tab.String())
				return ok
			},
		},
		{
			title:    "Baselines — the Fig. 3 algorithm vs its ancestors",
			claim:    "Fig. 3 at z = k = 1 is the Ω-based consensus of [20]; the rotating-coordinator ◇S consensus of [18] is the earlier ancestor. Same quorum pattern, different oracle usage.",
			measured: "both ancestors solve consensus; the leader-based variant needs no coordinator rotation after stabilization",
			matrices: func(seeds int) []sweep.Matrix {
				pattern := []sweep.CrashPattern{{Name: "late-crash", Crashes: []sweep.CrashSpec{{Proc: 7, At: 400}}}}
				size := []sweep.Size{{N: 7, T: 3}}
				return []sweep.Matrix{{
					Name: "baseline-fig3", Protocol: "kset-omega",
					Seeds: seedList(seeds), Sizes: size, Patterns: pattern,
					Combos: []sweep.Combo{{Z: 1}},
					GST:    600, MaxSteps: 2_000_000,
					Params: map[string]int64{"value_base": 0},
				}, {
					Name: "baseline-rotating-coordinator", Protocol: "consensus-ds",
					Seeds: seedList(seeds), Sizes: size, Patterns: pattern,
					GST: 600, MaxSteps: 2_000_000,
				}}
			},
			render: func(b *strings.Builder, rs []*sweep.Report, _ int) bool {
				tab := &cliutil.Table{Headers: []string{
					"protocol", "oracle", "avg rounds", "avg vticks", "avg msgs", "ok"}}
				for i, row := range []struct{ name, oracle string }{
					{"Fig. 3, z=k=1", "Ω_1"},
					{"rotating coordinator [18]", "◇S"},
				} {
					r := rs[i]
					tab.Add(row.name, row.oracle, avg(r.Cells, rounds), avg(r.Cells, steps), avg(r.Cells, msgs), r.OK())
				}
				b.WriteString(tab.String())
				return rs[0].OK() && rs[1].OK()
			},
		},
		{
			title:    "EXP-ZD · §3.2 — repeated instances under zero-degradation",
			claim:    "Zero-degradation matters when a set agreement algorithm is used repeatedly: with a perfect detector and initial crashes, future executions do not suffer from past failures — every instance stays single-round.",
			measured: "no degradation across consecutive instances",
			matrices: func(seeds int) []sweep.Matrix {
				return []sweep.Matrix{{
					Name: "ZD-repeated", Protocol: "kset-seq",
					Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 7, T: 3}},
					Patterns: []sweep.CrashPattern{{Name: "two-initial",
						Crashes: []sweep.CrashSpec{{Proc: 2, At: 0}, {Proc: 6, At: 0}}}},
					Combos: []sweep.Combo{{Z: 2, Trusted: []int{1, 4}}},
					GST:    0, MaxSteps: 4_000_000,
					Params: map[string]int64{"stab0": 1, "instances": 4},
				}}
			},
			render: func(b *strings.Builder, rs []*sweep.Report, _ int) bool {
				r := rs[0]
				tab := &cliutil.Table{Headers: []string{
					"instances", "initial crashes", "all instances round 1", "avg vticks/instance"}}
				tab.Add(r.Matrix.Params["instances"], "{2, 6}", r.OK(), avg(r.Cells, measure("vticks_per_instance")))
				b.WriteString(tab.String())
				return r.OK()
			},
		},
		{
			title:    "EXP-ABL · ablation — two routes from ◇S to Ω",
			claim:    "The companion transformation [17] (quiescent single wheel, needs full-scope ◇S) versus the two-wheels addition with y=0 (works from ◇S_{t+1}, keeps inquiring forever): same Ω output, opposite traffic profiles.",
			measured: "the weaker-source route pays a permanent inquiry stream; the full-scope route goes quiet",
			matrices: func(seeds int) []sweep.Matrix {
				const t = 2
				size := []sweep.Size{{N: 5, T: t}}
				pattern := []sweep.CrashPattern{{Name: "late-crash", Crashes: []sweep.CrashSpec{{Proc: 4, At: 700}}}}
				return []sweep.Matrix{{
					Name: "ABL-single-wheel", Protocol: "single-wheel",
					Seeds: seedList(seeds), Sizes: size, Patterns: pattern,
					GST: 500, MaxSteps: 150_000,
					Params: map[string]int64{"stable_for": 12_000, "margin": 10_000},
				}, {
					Name: "ABL-two-wheels-y0", Protocol: "two-wheels",
					Seeds: seedList(seeds), Sizes: size, Patterns: pattern,
					Combos: []sweep.Combo{{X: t + 1, Y: 0}},
					GST:    500, MaxSteps: 150_000,
					Params: map[string]int64{"stable_for": 12_000, "margin": 10_000},
				}}
			},
			render: func(b *strings.Builder, rs []*sweep.Report, _ int) bool {
				rSW, rTW := rs[0], rs[1]
				tab := &cliutil.Table{Headers: []string{
					"route", "source class", "Ω check", "avg msgs/run", "quiescent"}}
				tab.Add("single wheel [17]", "◇S (= ◇S_n)", rSW.OK(), avg(rSW.Cells, msgs), true)
				tab.Add("two wheels, y=0", fmt.Sprintf("◇S_%d", rTW.Matrix.Combos[0].X), rTW.OK(), avg(rTW.Cells, msgs), false)
				b.WriteString(tab.String())
				return rSW.OK() && rTW.OK()
			},
		},
		{
			// Large-n sweeps under generated adversary schedules: the sizes the
			// paper never ran (its arguments are size-generic) exercised
			// against the schedule families the adversary package generates.
			title: "EXP-SCALE · scaling — generated adversaries, n up to 256",
			claim: "(not a paper claim) The paper's algorithms are size-generic; the constructions must keep " +
				"their guarantees at n ≫ the paper's examples and under machine-generated adversary " +
				"schedules (staggered / clustered / cascade crashes, partition- and silence-style hold scripts) " +
				"rather than hand-picked ones.",
			measured: "2-set agreement and the message-free Ψ→Ω chain keep their guarantees at n ∈ {64, 96, 128, 192, 256} across every generated schedule",
			matrices: func(seeds int) []sweep.Matrix {
				seeds = largeCellSeeds(seeds)
				return []sweep.Matrix{{
					Name: "SCALE-kset", Protocol: "kset-omega",
					Seeds: seedList(seeds),
					Sizes: []sweep.Size{{N: 64, T: 31}, {N: 96, T: 47}, {N: 128, T: 63}, {N: 192, T: 95}, {N: 256, T: 127}},
					AdversaryFamilies: []adversary.Family{
						{Kind: adversary.KindStaggered, Count: 8, Variants: 2, Seed: 11, Start: 100, Spacing: 60},
						{Kind: adversary.KindClustered, Count: 8, Seed: 12, Start: 150},
						{Kind: adversary.KindPartition, Seed: 13, Start: 100, Window: 400},
					},
					Combos: []sweep.Combo{{Z: 2}},
					GST:    200, MaxSteps: 4_000_000,
				}, {
					Name: "SCALE-psi", Protocol: "psi-omega",
					Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 96, T: 6}, {N: 128, T: 6}, {N: 192, T: 6}, {N: 256, T: 6}},
					AdversaryFamilies: []adversary.Family{
						{Kind: adversary.KindCascade, Count: 3, Variants: 2, Seed: 21, Start: 100, Spacing: 100},
						{Kind: adversary.KindClustered, Count: 4, Seed: 22, Start: 200},
					},
					Combos: []sweep.Combo{{Y: 4, Z: 3}}, Bandwidth: 1,
					GST: 0, MaxSteps: 6_000,
					Params: map[string]int64{"margin": 1_000},
				}}
			},
			render: func(b *strings.Builder, rs []*sweep.Report, _ int) bool {
				rKSet, rPsi := rs[0], rs[1]
				tab := &cliutil.Table{Headers: []string{
					"n", "t", "schedule", "runs", "max distinct", "avg rounds", "avg vticks", "avg msgs", "ok"}}
				for _, cells := range groups(rKSet, byPattern) {
					c := cells[0]
					tab.Add(c.Size.N, c.Size.T, c.Pattern, len(cells), sweep.MaxDistinct(cells),
						avg(cells, rounds), avg(cells, steps), avg(cells, msgs), allPass(cells))
				}
				b.WriteString(tab.String())
				tab2 := &cliutil.Table{Headers: []string{"n", "t", "y", "z", "runs", "Ω_z check", "msgs"}}
				for _, cells := range groups(rPsi, bySize) {
					tab2.Add(cells[0].Size.N, cells[0].Size.T, 4, 3, len(cells), allPass(cells), avg(cells, msgs))
				}
				b.WriteString("\n")
				b.WriteString(tab2.String())
				return rKSet.OK() && rPsi.OK()
			},
		},
		{
			// Generated hostile-oracle families as a sweep dimension: the
			// classes are defined by what their oracles may do, so the oracle
			// is swept the way crash schedules are.
			title: "EXP-ORACLE · generated hostile-oracle families",
			claim: "(not a paper claim) The classes S_x, ◇S_x, Ω_z and the φ/Ψ families are defined by which " +
				"oracle histories they admit; the algorithms must keep their guarantees under *any* of them. " +
				"adversary.OracleGen makes that dimension sweepable: leader-flapping timelines, scope-churn " +
				"scripts, anarchy bursts with seeded intensity ramps and late-stabilization sweeps expand " +
				"deterministically into scripted or parameterized oracles, and fd/check.go tags every " +
				"generated script with a conformance verdict against its declared class.",
			measured: "every generated oracle script conforms to its declared class under the swept patterns, and " +
				"k-set agreement, the Ψ→Ω chain and the two-wheels addition all keep their guarantees under " +
				"flapping, bursty and scope-churning oracles up to n = 128",
			matrices: func(seeds int) []sweep.Matrix {
				seeds = largeCellSeeds(seeds)
				return []sweep.Matrix{{
					// Ω_z timelines flapping under the Fig. 3 k-set algorithm.
					// EXP-CF replays one of its cells.
					Name: "ORACLE-kset-flap", Protocol: "kset-omega",
					Seeds: seedList(seeds),
					Sizes: []sweep.Size{{N: 32, T: 15}, {N: 64, T: 31}, {N: 128, T: 63}},
					Patterns: []sweep.CrashPattern{{Name: "late-crash",
						Crashes: []sweep.CrashSpec{{Proc: 0, At: 600}}}},
					OracleFamilies: []adversary.OracleFamily{
						{Kind: adversary.OracleLeaderFlap, Z: 2, Variants: 2, Seed: 31,
							Start: 50, Period: 80, Flaps: 6, Settle: []int{1, 2}},
						{Kind: adversary.OracleLateStab, Variants: 2, Seed: 32, Start: 200, Ramp: 300},
					},
					Combos: []sweep.Combo{{Z: 2}},
					GST:    200, MaxSteps: 4_000_000,
				}, {
					// Bursty / late-stabilizing ◇φ under the message-free Ψ→Ω chain.
					Name: "ORACLE-psi-burst", Protocol: "psi-omega",
					Seeds: seedList(seeds),
					Sizes: []sweep.Size{{N: 32, T: 6}, {N: 64, T: 6}, {N: 128, T: 6}},
					Patterns: []sweep.CrashPattern{{Name: "two-crashes",
						Crashes: []sweep.CrashSpec{{Proc: 1, At: 200}, {Proc: 2, At: 500}}}},
					OracleFamilies: []adversary.OracleFamily{
						{Kind: adversary.OracleAnarchyBurst, Variants: 3, Seed: 41,
							Start: 50, Period: 60, Flaps: 8, RatePermille: 900},
						{Kind: adversary.OracleLateStab, Variants: 2, Seed: 42, Start: 400, Ramp: 400},
					},
					Combos: []sweep.Combo{{Y: 4, Z: 3}}, Bandwidth: 1,
					GST: 0, MaxSteps: 6_000,
					Params: map[string]int64{"margin": 1_000},
				}, {
					// Scope-churn ◇S_x scripts driving the two-wheels addition
					// through the scripted-suspector driver.
					Name: "ORACLE-wheels-churn", Protocol: "two-wheels",
					Seeds: seedList(seeds),
					Sizes: []sweep.Size{{N: 5, T: 2}},
					OracleFamilies: []adversary.OracleFamily{
						{Kind: adversary.OracleScopeChurn, X: 2, Variants: 3, Seed: 51, Settle: []int{1, 2}},
					},
					Combos: []sweep.Combo{{X: 2, Y: 1}},
					GST:    400, MaxSteps: 60_000,
					Params: map[string]int64{"stable_for": 12_000, "margin": 10_000},
				}}
			},
			render: func(b *strings.Builder, rs []*sweep.Report, _ int) bool {
				rFlap, rBurst, rChurn := rs[0], rs[1], rs[2]
				tab := &cliutil.Table{Headers: []string{
					"n", "oracle", "class", "conformance", "runs", "max distinct", "avg rounds", "avg vticks", "ok"}}
				for _, g := range groups(rFlap, byOracle) {
					tab.Add(g[0].Size.N, g[0].Oracle, g[0].OracleClass, roleOf(g, conformance), len(g),
						sweep.MaxDistinct(g), avg(g, rounds), avg(g, steps), allPass(g))
				}
				b.WriteString(tab.String())
				tab2 := &cliutil.Table{Headers: []string{
					"n", "oracle", "conformance", "runs", "Ω_3 check", "msgs"}}
				for _, g := range groups(rBurst, byOracle) {
					tab2.Add(g[0].Size.N, g[0].Oracle, roleOf(g, conformance), len(g),
						allPass(g), avg(g, msgs))
				}
				b.WriteString("\n")
				b.WriteString(tab2.String())
				tab3 := &cliutil.Table{Headers: []string{
					"oracle", "class", "conformance", "runs", "Ω_1 check", "avg stabilization vtick"}}
				for _, g := range groups(rChurn, byOracle) {
					tab3.Add(g[0].Oracle, g[0].OracleClass, roleOf(g, conformance), len(g),
						allPass(g), avg(g, measure("stabilization")))
				}
				b.WriteString("\n")
				b.WriteString(tab3.String())
				return rFlap.OK() && rBurst.OK() && rChurn.OK()
			},
		},
		{
			// Counterfactual replay of one EXP-ORACLE cell. It runs through
			// sweep.Replay, not as a matrix of its own, so its two traced runs
			// never enter the suite JSON or the -matrices export.
			title: "EXP-CF · counterfactual replay — attributing a divergence to its cause",
			claim: "(not a paper claim) Every cell is deterministic, so re-running it under one declarative " +
				"perturbation and diffing the two decision traces pins the *first* observable consequence " +
				"of that change — a mechanized version of the paper's run-modification arguments " +
				"(crash-vs-delay indistinguishability, Theorems 9–12). Here: the first late-stabilization " +
				"parameter-script cell of ORACLE-kset-flap, replayed with the oracle's scripted " +
				"stabilization pushed 2000 ticks later.",
			measured: "both runs still decide (the algorithm tolerates the later stabilization); the trace diff " +
				"pins the first decision the 2000-tick shift actually moved, and the divergence point is " +
				"byte-reproducible run to run",
			matrices: func(int) []sweep.Matrix { return nil },
			render: func(b *strings.Builder, _ []*sweep.Report, seeds int) bool {
				spec, rr, err := counterfactual(seeds)
				if err != nil {
					fmt.Fprintf(b, "Replay failed: %v\n", err)
					return false
				}
				fmt.Fprintf(b, "Replayed: `go run ./cmd/experiments -replay %s -perturb %s` "+
					"(n=%d, t=%d, seed %d, oracle `%s`, trace level `decisions`).\n\n",
					spec, rr.Perturbation, rr.Base.Size.N, rr.Base.Size.T, rr.Base.Seed, rr.Base.Oracle)
				tab := &cliutil.Table{Headers: []string{
					"run", "verdict", "rounds", "vticks", "trace events", "trace digest"}}
				tab.Add("base", rr.Base.Verdict, rr.Base.MaxRound, rr.Base.Steps, rr.Base.TraceEvents, rr.Base.TraceDigest)
				tab.Add(rr.Perturbation, rr.Perturbed.Verdict, rr.Perturbed.MaxRound, rr.Perturbed.Steps, rr.Perturbed.TraceEvents, rr.Perturbed.TraceDigest)
				b.WriteString(tab.String())
				if rr.Div == nil {
					b.WriteString("\nDivergence: none — the perturbation changed nothing the trace observes.\n")
				} else {
					fmt.Fprintf(b, "\nDivergence: %s\n", rr.Div.Summary)
				}
				return rr.Base.Verdict == sweep.Pass && rr.Perturbed.Verdict == sweep.Pass && rr.Div != nil
			},
		},
	}
}

// counterfactual is EXP-CF's run: the first seed-0 parameter-script
// cell of ORACLE-kset-flap, replayed with its oracle's stabilization
// pushed 2000 ticks later. It resolves the matrix by name, as -replay
// does, so the replayed cell is exactly that suite cell.
func counterfactual(seeds int) (spec string, rr *sweep.ReplayResult, err error) {
	m, ok := suiteMatrix("ORACLE-kset-flap", seeds)
	if !ok {
		return "", nil, fmt.Errorf("experiments: EXP-CF: no suite matrix ORACLE-kset-flap")
	}
	cells, err := m.Cells()
	if err != nil {
		return "", nil, err
	}
	index := slices.IndexFunc(cells, func(c sweep.Cell) bool {
		return !c.Oracle.None() && !c.Oracle.IsTimeline() && c.Seed == 0
	})
	pert, err := sweep.ParsePerturbation("stab+2000")
	if err != nil {
		return "", nil, err
	}
	rr, err = sweep.Replay(m, index, pert, trace.Decisions)
	return fmt.Sprintf("%s:%d", m.Name, index), rr, err
}

// suiteMatrices returns every suite matrix, in suite order, without
// running a cell: the concatenation of each row's matrices.
func suiteMatrices(seeds int) []sweep.Matrix {
	var ms []sweep.Matrix
	for _, e := range suite {
		ms = append(ms, e.matrices(seeds)...)
	}
	return ms
}

// suiteMatrix resolves a suite matrix by name. -replay and EXP-CF both
// go through it, so a replayed cell is exactly the suite cell of that
// name and index; matrix names are unique across the suite (tested).
func suiteMatrix(name string, seeds int) (sweep.Matrix, bool) {
	for _, m := range suiteMatrices(seeds) {
		if m.Name == name {
			return m, true
		}
	}
	return sweep.Matrix{}, false
}

func seedList(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// largeCellSeeds caps the seed count of the n ≥ 32 rows (EXP-SCALE,
// EXP-ORACLE) at 2 to bound the suite's wall time. The cap applies to
// every job alike, so a replayed cell index names the same cell
// however the suite is invoked.
func largeCellSeeds(seeds int) int {
	return min(seeds, 2)
}

// groups splits a report's cells by key, in first-appearance order.
// Cells run size-major, then pattern, combo, oracle script and seed, so
// each key below yields its table's rows in matrix order.
func groups(r *sweep.Report, key func(sweep.CellResult) string) [][]sweep.CellResult {
	var out [][]sweep.CellResult
	at := map[string]int{}
	for _, c := range r.Cells {
		k := key(c)
		i, ok := at[k]
		if !ok {
			i = len(out)
			at[k] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], c)
	}
	return out
}

func byCombo(c sweep.CellResult) string   { return c.Combo.String() }
func bySize(c sweep.CellResult) string    { return fmt.Sprint(c.Size) }
func byPattern(c sweep.CellResult) string { return fmt.Sprintf("%d/%s", c.Size.N, c.Pattern) }
func byOracle(c sweep.CellResult) string  { return fmt.Sprintf("%d/%s", c.Size.N, c.Oracle) }

func allPass(cells []sweep.CellResult) bool {
	for _, c := range cells {
		if c.Verdict != sweep.Pass {
			return false
		}
	}
	return true
}

// avg is the integer mean of one per-cell value over a group.
func avg(cells []sweep.CellResult, of func(sweep.CellResult) int64) int64 {
	var s int64
	for _, c := range cells {
		s += of(c)
	}
	return s / int64(len(cells))
}

func steps(c sweep.CellResult) int64  { return int64(c.Steps) }
func msgs(c sweep.CellResult) int64   { return c.Messages }
func rounds(c sweep.CellResult) int64 { return int64(c.MaxRound) }

// measure picks one of the runner's named measures.
func measure(name string) func(sweep.CellResult) int64 {
	return func(c sweep.CellResult) int64 { return c.Measures[name] }
}

func maxOf(cells []sweep.CellResult, f func(sweep.CellResult) int) int {
	m := 0
	for _, c := range cells {
		if v := f(c); v > m {
			m = v
		}
	}
	return m
}

// roleOf summarizes one verdict column across a group's cells
// (identical across seeds of one script×pattern by construction).
func roleOf(cells []sweep.CellResult, pick func(sweep.CellResult) string) string {
	v := pick(cells[0])
	for _, c := range cells {
		if pick(c) != v {
			return "mixed"
		}
	}
	if v == "" {
		return "n/a"
	}
	return v
}

// sRole and phiRole pick the per-role verdicts of paired-oracle cells,
// conformance their joint verdict.
func sRole(c sweep.CellResult) string       { return c.OracleS }
func phiRole(c sweep.CellResult) string     { return c.OraclePhi }
func conformance(c sweep.CellResult) string { return c.OracleConformance }
