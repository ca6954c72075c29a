// Command experiments regenerates EXPERIMENTS.md: every experiment of
// DESIGN.md §5 (one per figure/result of the paper) is a declarative
// sweep.Matrix; this driver fans the cells out across a worker pool,
// aggregates the per-cell results into the familiar tables, and records
// the paper's claim next to the measured outcome. The per-cell results
// are deterministic, so the rendered report is byte-stable run to run.
//
// It has three jobs: render the suite (-out, -report), export the
// suite's matrices (-matrices) and replay one suite cell traced
// (-replay, -perturb, -trace). Fanning a suite out across workers or
// machines, merging the parts and byte-comparing against a golden is
// cmd/sweepd's job: it consumes the -matrices export.
//
// Usage:
//
//	experiments [-out EXPERIMENTS.md] [-seeds 3] [-workers N] [-report sweep.json]
//	experiments -matrices suite-spec.json              # export matrices for sweepd
//	experiments ... -cpuprofile cpu.prof -memprofile mem.prof
//	experiments -replay MATRIX:INDEX                   # trace one suite cell
//	experiments -replay MATRIX:INDEX -perturb stab+2000 [-trace full]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"fdgrid/internal/adversary"
	"fdgrid/internal/cliutil"
	"fdgrid/internal/core"
	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
	"fdgrid/internal/sweep"
	"fdgrid/internal/trace"
)

func main() {
	var (
		out       = flag.String("out", "EXPERIMENTS.md", "output file")
		seeds     = flag.Int("seeds", 3, "seeds per configuration")
		workers   = flag.Int("workers", 0, "sweep worker-pool size (0 = GOMAXPROCS)")
		report    = flag.String("report", "", "also write the canonical JSON sweep reports here")
		verbose   = flag.Bool("v", false, "print per-matrix progress to stderr")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile of the sweep here")
		memprof   = flag.String("memprofile", "", "write a heap profile (after the sweep, post-GC) here")
		replay    = flag.String("replay", "", "re-run one suite cell with decision tracing on (format \"MATRIX:INDEX\"); skips the suite")
		perturb   = flag.String("perturb", "", "with -replay: one counterfactual edit (\"gst±K\", \"stab±K\", \"crash=P@T\", \"hold[I]±K\") applied to a second run, diffed against the first")
		traceLvl  = flag.String("trace", "", "with -replay: trace level (\"decisions\" or \"full\"; default decisions)")
		matricesF = flag.String("matrices", "", "write the suite's matrices as a JSON array here (sweepd's input format) and exit without running anything")
	)
	flag.Parse()

	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *matricesF != "" {
		n, err := writeMatrices(*matricesF, *seeds)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d matrices)\n", *matricesF, n)
		return
	}

	if *replay != "" {
		if err := runReplay(*replay, *perturb, *traceLvl, *seeds, *workers); err != nil {
			fatal(err)
		}
		return
	}
	if *perturb != "" || *traceLvl != "" {
		fatal(fmt.Errorf("experiments: -perturb and -trace require -replay"))
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	md, reports, err := buildSuite(*seeds, *workers, *verbose)
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, []byte(md), 0o644); err != nil {
		fatal(err)
	}
	cells := 0
	for _, r := range reports {
		cells += len(r.Cells)
	}
	if *report != "" {
		suite, err := sweep.SuiteJSON(reports)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*report, suite, 0o644); err != nil {
			fatal(err)
		}
	}
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			fatal(err)
		}
		// GC first so the profile shows live retained memory (the
		// sweep's steady-state footprint), not transient garbage.
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("wrote %s (%d matrices, %d cells, %.2fs)\n", *out, len(reports), cells, time.Since(start).Seconds())
}

// buildSuite runs every experiment matrix on a pool of the given size
// and renders the markdown report.
func buildSuite(seeds, workers int, verbose bool) (string, []*sweep.Report, error) {
	var b strings.Builder
	b.WriteString(`# EXPERIMENTS — paper vs. measured

Generated by ` + "`go run ./cmd/experiments`" + `. Every experiment of
DESIGN.md §5 is a declarative sweep.Matrix (internal/sweep): its cells —
seed × size × crash pattern × class combination — run in parallel, each
on an isolated simulated asynchronous system AS[n,t] (internal/sim)
against ground-truth oracles (internal/fd), and the verdicts aggregate
into the tables below next to the paper's claim. Virtual time is in
scheduler ticks; message counts are network-level sends. The simulator
is lockstep-deterministic, so every number here is reproducible.
Absolute numbers are simulator-specific; the *shapes* (who solves what,
parameter frontiers, single-round fast paths, quiescence) are the
reproduction targets.

`)

	var reports []*sweep.Report
	var runErr error
	run := func(m sweep.Matrix) *sweep.Report {
		if runErr != nil {
			return &sweep.Report{Matrix: m}
		}
		r, err := sweep.Run(m, sweep.Options{Workers: workers})
		if err != nil {
			runErr = err
			return &sweep.Report{Matrix: m}
		}
		reports = append(reports, r)
		if verbose {
			var wakes, switches int64
			for i := range r.Cells {
				wakes += r.Cells[i].Wakes
				switches += r.Cells[i].Switches
			}
			fmt.Fprintf(os.Stderr, "%-32s %6.2fs  %9d wakes %8d switches  %s\n",
				r.Matrix.Name, float64(r.WallNS)/1e9, wakes, switches, r.Summary())
		}
		return r
	}

	forEachExperiment(&b, run, seeds)
	if runErr == nil {
		runErr = expCounterfactual(&b, seeds)
	}

	if runErr != nil {
		return "", nil, runErr
	}
	return b.String(), reports, nil
}

// forEachExperiment renders every sweep-driven experiment section, in
// suite order, through run. It is the single definition of which
// matrices make up the suite: buildSuite runs them, suiteMatrices
// collects them without running a cell.
func forEachExperiment(b *strings.Builder, run func(sweep.Matrix) *sweep.Report, seeds int) {
	expF1(b, run, seeds)
	expF2(b, run, seeds)
	expF3(b, run, seeds)
	expF3ab(b, run, seeds)
	expF4(b)
	expF5(b, run, seeds)
	expF6(b, run, seeds)
	expF8(b, run, seeds)
	expF9(b, run, seeds)
	expT5(b, run, seeds)
	expT8(b, run, seeds)
	expT9(b, run)
	expBaselines(b, run, seeds)
	expRepeated(b, run, seeds)
	expAblation(b, run, seeds)
	expScale(b, run, seeds)
	expOracle(b, run, seeds)
}

// suiteMatrices returns every suite matrix, in suite order, without
// running any cells: the exp sections render over empty reports into a
// discarded builder. -replay resolves its MATRIX:INDEX argument against
// this list, so a replayed cell is exactly the suite cell of that name
// and index.
func suiteMatrices(seeds int) []sweep.Matrix {
	var b strings.Builder
	var ms []sweep.Matrix
	forEachExperiment(&b, func(m sweep.Matrix) *sweep.Report {
		ms = append(ms, m)
		return &sweep.Report{Matrix: m}
	}, seeds)
	return ms
}

// writeMatrices is the -matrices export: it writes the suite's
// matrices to path as the JSON array cmd/sweepd loads and returns how
// many it wrote. The file is the only hand-off between the two tools,
// so its round trip is pinned by a test.
func writeMatrices(path string, seeds int) (int, error) {
	ms := suiteMatrices(seeds)
	blob, err := json.MarshalIndent(ms, "", "  ")
	if err != nil {
		return 0, err
	}
	return len(ms), os.WriteFile(path, blob, 0o644)
}

// runReplay handles -replay: re-run suite cell "MATRIX:INDEX" with
// decision tracing forced on and print its trace fingerprint; with a
// -perturb spec, run the perturbed variant too and report the first
// divergence between the two traces.
func runReplay(spec, pertSpec, level string, seeds, workers int) error {
	name, index, err := parseReplaySpec(spec)
	if err != nil {
		return err
	}
	var m sweep.Matrix
	found := false
	for _, cand := range suiteMatrices(seeds) {
		if cand.Name == name {
			m, found = cand, true
			break
		}
	}
	if !found {
		return fmt.Errorf("experiments: no suite matrix named %q (see EXPERIMENTS.md for names)", name)
	}
	lvl, err := trace.ParseLevel(level)
	if err != nil {
		return err
	}
	if lvl == trace.Off {
		lvl = trace.Decisions
	}

	if pertSpec == "" {
		// No counterfactual: trace the one cell as declared. A shard of
		// Count = len(cells) owns exactly the cells with index ≡ INDEX
		// (mod Count) — that is, the one cell.
		m.TraceLevel = lvl.String()
		cells, err := m.Cells()
		if err != nil {
			return err
		}
		if index < 0 || index >= len(cells) {
			return fmt.Errorf("experiments: replay index %d outside matrix %q (%d cells)", index, name, len(cells))
		}
		r, err := sweep.Run(m, sweep.Options{Workers: workers, Shard: sweep.Shard{Index: index, Count: len(cells)}})
		if err != nil {
			return err
		}
		c := r.Cells[0]
		fmt.Printf("replay %s:%d (%s, trace=%s)\n", name, index, m.Protocol, lvl)
		printReplayCell("cell", c)
		return nil
	}

	pert, err := sweep.ParsePerturbation(pertSpec)
	if err != nil {
		return err
	}
	rr, err := sweep.Replay(m, index, pert, lvl)
	if err != nil {
		return err
	}
	fmt.Printf("replay %s:%d (%s, trace=%s, perturb %s)\n", name, index, m.Protocol, lvl, pert)
	printReplayCell("base", rr.Base)
	printReplayCell("perturbed", rr.Perturbed)
	if rr.Div == nil {
		fmt.Println("divergence: none (the perturbation changed nothing the trace observes)")
	} else {
		fmt.Printf("divergence: %s\n", rr.Div.Summary)
	}
	return nil
}

func printReplayCell(label string, c sweep.CellResult) {
	oracle := ""
	if c.Oracle != "" {
		oracle = " oracle=" + c.Oracle
	}
	fmt.Printf("  %-9s seed=%d n=%d t=%d%s verdict=%s steps=%d trace_events=%d trace_digest=%s\n",
		label, c.Seed, c.Size.N, c.Size.T, oracle, c.Verdict, c.Steps, c.TraceEvents, c.TraceDigest)
}

// parseReplaySpec splits "MATRIX:INDEX" (matrix names contain no
// colon). The index must be canonical — decimal digits only, no sign,
// no leading zero except "0" itself — so each cell has exactly one
// accepted spelling. A negative index can never name a cell, so it is
// rejected here with usage guidance rather than later as a confusing
// out-of-range error.
func parseReplaySpec(spec string) (string, int, error) {
	i := strings.LastIndex(spec, ":")
	if i <= 0 {
		return "", 0, fmt.Errorf("experiments: bad -replay %q (want MATRIX:INDEX)", spec)
	}
	digits := spec[i+1:]
	if digits == "" || strings.TrimLeft(digits, "0123456789") != "" || (digits[0] == '0' && digits != "0") {
		return "", 0, fmt.Errorf("experiments: bad -replay index in %q (want MATRIX:INDEX, INDEX a non-negative integer without sign or leading zeros)", spec)
	}
	index, err := strconv.Atoi(digits)
	if err != nil {
		return "", 0, fmt.Errorf("experiments: bad -replay index in %q (want MATRIX:INDEX): %v", spec, err)
	}
	return spec[:i], index, nil
}

func seedList(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func section(b *strings.Builder, title, claim string) {
	fmt.Fprintf(b, "## %s\n\n**Paper claim.** %s\n\n", title, claim)
}

func verdict(b *strings.Builder, ok bool, detail string) {
	status := "REPRODUCED"
	if !ok {
		status = "FAILED"
	}
	fmt.Fprintf(b, "\n**Measured.** %s — %s\n\n", status, detail)
}

// group collects the cells of one combo (matrix order is combo-major,
// seed-minor, so a combo's cells are contiguous).
func group(r *sweep.Report, combo sweep.Combo) []sweep.CellResult {
	var out []sweep.CellResult
	for _, c := range r.Cells {
		if c.Combo.String() == combo.String() && c.Size == r.Matrix.Sizes[0] {
			out = append(out, c)
		}
	}
	return out
}

func allPass(cells []sweep.CellResult) bool {
	for _, c := range cells {
		if c.Verdict != sweep.Pass {
			return false
		}
	}
	return true
}

// The avg helpers return 0 over an empty group: a sharded run renders
// its (discarded) markdown over partial reports, so groups can be empty.
func avgSteps(cells []sweep.CellResult) int64 {
	if len(cells) == 0 {
		return 0
	}
	var s int64
	for _, c := range cells {
		s += int64(c.Steps)
	}
	return s / int64(len(cells))
}

func avgMsgs(cells []sweep.CellResult) int64 {
	if len(cells) == 0 {
		return 0
	}
	var s int64
	for _, c := range cells {
		s += c.Messages
	}
	return s / int64(len(cells))
}

func avgMeasure(cells []sweep.CellResult, name string) int64 {
	if len(cells) == 0 {
		return 0
	}
	var s int64
	for _, c := range cells {
		s += c.Measures[name]
	}
	return s / int64(len(cells))
}

func avgRounds(cells []sweep.CellResult) int64 {
	if len(cells) == 0 {
		return 0
	}
	var rounds int64
	for _, c := range cells {
		rounds += int64(c.MaxRound)
	}
	return rounds / int64(len(cells))
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

// expF1: the grid.
func expF1(b *strings.Builder, run func(sweep.Matrix) *sweep.Report, seeds int) {
	section(b, "EXP-F1 · Fig. 1 — the grid of classes",
		"Every class on line z of the grid solves z-set agreement; "+
			"line z contains S_{t−z+2}, ◇S_{t−z+2}, Ω_z, φ_{t−z+1}, ◇φ_{t−z+1} (and Ψ_{t−z+1}).")
	const t = 2
	var combos []sweep.Combo
	for z := 1; z <= t+1; z++ {
		for _, c := range core.GridLine(z, t) {
			combos = append(combos, sweep.Combo{Family: c.Fam, Param: c.Param, Z: z})
		}
	}
	r := run(sweep.Matrix{
		Name: "F1-grid", Protocol: "kset-grid",
		Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 5, T: t}},
		Patterns: []sweep.CrashPattern{{Name: "late-crash", Crashes: []sweep.CrashSpec{{Proc: 4, At: 900}}}},
		Combos:   combos,
		GST:      600, MaxSteps: 2_000_000,
	})
	tab := &cliutil.Table{Headers: []string{
		"line z", "class", "runs", "decided", "max distinct", "max round", "avg vticks", "ok"}}
	for _, combo := range combos {
		cells := group(r, combo)
		decisions := 0
		if len(cells) > 0 {
			decisions = cells[len(cells)-1].Decisions
		}
		tab.Add(combo.Z, combo.Class().String(), len(cells),
			decisions,
			maxOf(cells, func(c sweep.CellResult) int { return len(c.Decided) }),
			maxOf(cells, func(c sweep.CellResult) int { return c.MaxRound }),
			avgSteps(cells), allPass(cells))
	}
	b.WriteString(tab.String())
	verdict(b, r.OK(), "every grid cell decides with at most z distinct values (n=5, t=2, one late crash, hostile oracles before GST=600)")
}

// expF2: additivity sweep.
func expF2(b *strings.Builder, run func(sweep.Matrix) *sweep.Report, seeds int) {
	section(b, "EXP-F2 · Fig. 2 / Theorem 8 — additivity ◇S_x + ◇φ_y → Ω_z",
		"The two-wheels algorithm adds any ◇S_x and ◇φ_y into Ω_z with exactly z = t+2−x−y.")
	const t = 2
	var combos []sweep.Combo
	for _, p := range []struct{ x, y int }{{1, 0}, {2, 0}, {3, 0}, {1, 1}, {2, 1}, {1, 2}} {
		combos = append(combos, sweep.Combo{X: p.x, Y: p.y})
	}
	r := run(sweep.Matrix{
		Name: "F2-additivity", Protocol: "two-wheels",
		Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 5, T: t}},
		Patterns:  []sweep.CrashPattern{{Name: "late-crash", Crashes: []sweep.CrashSpec{{Proc: 4, At: 800}}}},
		Combos:    combos,
		Bandwidth: 10,
		GST:       600, MaxSteps: 400_000,
		Params: map[string]int64{"stable_for": 12_000, "margin": 10_000},
	})
	tab := &cliutil.Table{Headers: []string{
		"x", "y", "z=t+2−x−y", "Ω_z check", "Ω_{z−1} check", "avg stabilization vtick", "avg msgs"}}
	for _, combo := range combos {
		cells := group(r, combo)
		z := t + 2 - combo.X - combo.Y
		tighter := "n/a"
		if z > 1 {
			if avgMeasure(cells, "z_minus_1_passes") > 0 {
				tighter = "passes (resting set smaller than z)"
			} else {
				tighter = "fails (size z)"
			}
		}
		tab.Add(combo.X, combo.Y, z, allPass(cells), tighter,
			avgMeasure(cells, "stabilization"), avgMsgs(cells))
	}
	b.WriteString(tab.String())

	// The theorem quantifies over *pairs* of oracles — any ◇S_x with any
	// ◇φ_y — so the generated dimension must reach both roles at once:
	// each pair family scripts the suspector and parameterizes the
	// querier independently, and every cell carries per-role conformance
	// verdicts (oracle_s, oracle_phi).
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
	rPair := run(sweep.Matrix{
		Name: "F2-additivity-pairs", Protocol: "two-wheels",
		Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 5, T: t}},
		Patterns:           []sweep.CrashPattern{{Name: "late-crash", Crashes: []sweep.CrashSpec{{Proc: 4, At: 800}}}},
		OraclePairFamilies: pairs,
		Combos:             []sweep.Combo{{X: 2, Y: 1}},
		Bandwidth:          10,
		GST:                600, MaxSteps: 160_000,
		Params: map[string]int64{"stable_for": 12_000, "margin": 10_000},
	})
	tabP := &cliutil.Table{Headers: []string{
		"oracle pair", "classes", "S-role verdict", "φ-role verdict", "runs", "Ω_1 check", "avg stabilization vtick"}}
	for _, g := range oracleGroups(rPair) {
		tabP.Add(g.oracle, g.cells[0].OracleClass, roleOf(g.cells, sRole), roleOf(g.cells, phiRole),
			len(g.cells), allPass(g.cells), avgMeasure(g.cells, "stabilization"))
	}
	b.WriteString("\n")
	b.WriteString(tabP.String())
	verdict(b, r.OK() && rPair.OK(),
		"the emulated output satisfies Ω_{t+2−x−y} across the whole frontier x+y ≤ t+1, "+
			"including under generated hostile oracle pairs driving both roles")
}

// expF3: k-set scaling.
func expF3(b *strings.Builder, run func(sweep.Matrix) *sweep.Report, seeds int) {
	section(b, "EXP-F3 · Fig. 3 — Ω_z-based k-set agreement",
		"The algorithm solves k-set agreement for z ≤ k, t < n/2, with two communication steps per round.")
	var sizes []sweep.Size
	for _, n := range []int{5, 7, 9, 11} {
		sizes = append(sizes, sweep.Size{N: n, T: (n - 1) / 2})
	}
	r := run(sweep.Matrix{
		Name: "F3-scaling", Protocol: "kset-omega",
		Seeds: seedList(seeds), Sizes: sizes,
		Patterns: []sweep.CrashPattern{{Name: "last-crashes", Crashes: []sweep.CrashSpec{{Proc: 0, At: 400}}}},
		Combos:   []sweep.Combo{{Z: 2}},
		GST:      600, MaxSteps: 2_000_000,
	})
	tab := &cliutil.Table{Headers: []string{
		"n", "t", "z", "avg rounds", "avg vticks", "avg msgs", "ok"}}
	for _, size := range sizes {
		var cells []sweep.CellResult
		for _, c := range r.Cells {
			if c.Size == size {
				cells = append(cells, c)
			}
		}
		tab.Add(size.N, size.T, 2, avgRounds(cells), avgSteps(cells), avgMsgs(cells), allPass(cells))
	}
	b.WriteString(tab.String())
	verdict(b, r.OK(), "2-set agreement reached at every size; decision latency tracks the pre-GST anarchy window, messages grow ~n² per round")
}

// expF3ab: oracle efficiency and zero degradation.
func expF3ab(b *strings.Builder, run func(sweep.Matrix) *sweep.Report, seeds int) {
	section(b, "EXP-F3a/b · §3.2 — oracle-efficiency and zero-degradation",
		"With a perfect Ω_k the algorithm decides in one round (two steps) when there is no crash, "+
			"and still in one round when crashes are initial only (zero degradation).")
	ra := run(sweep.Matrix{
		Name: "F3a-oracle-efficiency", Protocol: "kset-omega",
		Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 7, T: 3}},
		Combos: []sweep.Combo{{Z: 2}},
		GST:    0, MaxSteps: 500_000,
		Params: map[string]int64{"stab0": 1, "require_round1": 1, "value_base": 0},
	})
	rb := run(sweep.Matrix{
		Name: "F3b-zero-degradation", Protocol: "kset-omega",
		Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 7, T: 3}},
		Patterns: []sweep.CrashPattern{{Name: "two-initial",
			Crashes: []sweep.CrashSpec{{Proc: 2, At: 0}, {Proc: 5, At: 0}}}},
		Combos: []sweep.Combo{{Z: 2, Trusted: []int{1, 4}}},
		GST:    0, MaxSteps: 500_000,
		Params: map[string]int64{"stab0": 1, "require_round1": 1, "value_base": 0},
	})
	tab := &cliutil.Table{Headers: []string{"scenario", "runs", "all decided round 1"}}
	tab.Add("perfect oracle, no crash (oracle-efficiency)", len(ra.Cells), ra.OK())
	tab.Add("perfect oracle, 2 initial crashes (zero-degradation)", len(rb.Cells), rb.OK())
	b.WriteString(tab.String())
	verdict(b, ra.OK() && rb.OK(), "single-round fast path in both scenarios")
}

// expF4: rings (static enumeration — no simulation).
func expF4(b *strings.Builder) {
	section(b, "EXP-F4 · Fig. 4 — the common ring of candidate sets",
		"All processes scan the same infinite sequence ℓ¹₁…ℓ¹ₓ, ℓ²₁… over the x-subsets (and (L,Y) pairs).")
	tab := &cliutil.Table{Headers: []string{"ring", "n", "params", "positions", "invariants"}}
	r1 := ids.NewXRing(9, 4)
	tab.Add("lower (ℓ, X)", 9, "x=4", r1.Len(), "leader ∈ X, |X| = x, cyclic (property-tested)")
	r2 := ids.NewLYRing(9, 4, 2)
	tab.Add("upper (L, Y)", 9, "|Y|=4, |L|=2", r2.Len(), "L ⊆ Y, sizes fixed, cyclic (property-tested)")
	b.WriteString(tab.String())
	verdict(b, true, "enumeration invariants hold (see internal/ids property tests)")
}

// expF5: lower wheel.
func expF5(b *strings.Builder, run func(sweep.Matrix) *sweep.Report, seeds int) {
	section(b, "EXP-F5 · Fig. 5 — the lower wheel (◇S_x → representatives)",
		"The wheel stabilizes on a pair (ℓ, X) per Theorem 6, and is quiescent: only finitely many x_move messages are sent (Corollary 1).")
	r := run(sweep.Matrix{
		Name: "F5-lower-wheel", Protocol: "lower-wheel",
		Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 5, T: 2}},
		Patterns: []sweep.CrashPattern{{Name: "late-crash", Crashes: []sweep.CrashSpec{{Proc: 4, At: 700}}}},
		Combos:   []sweep.Combo{{X: 2}},
		GST:      500, MaxSteps: 100_000,
		Params: map[string]int64{"mark": 80_000},
	})
	tab := &cliutil.Table{Headers: []string{
		"seed", "stable pair reached", "x_move sends (80% mark)", "x_move sends (end)", "quiescent"}}
	for _, c := range r.Cells {
		tab.Add(c.Seed, c.Verdict == sweep.Pass, c.Measures["xmove_at_mark"],
			c.Measures["xmove_end"], c.Measures["xmove_at_mark"] == c.Measures["xmove_end"])
	}
	b.WriteString(tab.String())
	verdict(b, r.OK(), "positions agree across correct processes and x_move traffic stops")
}

// expF6: upper wheel.
func expF6(b *strings.Builder, run func(sweep.Matrix) *sweep.Report, seeds int) {
	section(b, "EXP-F6 · Figs. 6–7 — the upper wheel (adding ◇φ_y)",
		"The combined wheels output Ω_z; the upper wheel is *not* quiescent — correct processes keep exchanging inquiry/response forever (§4.2.2 remark).")
	r := run(sweep.Matrix{
		Name: "F6-upper-wheel", Protocol: "two-wheels",
		Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 5, T: 2}},
		Combos: []sweep.Combo{{X: 2, Y: 1}},
		GST:    400, MaxSteps: 30_000,
		Params: map[string]int64{"mark": 22_500, "require_nonquiescent": 1, "margin": 10_000},
	})
	tab := &cliutil.Table{Headers: []string{
		"seed", "Ω_1 check", "inquiries (75% mark)", "inquiries (end)", "still inquiring"}}
	for _, c := range r.Cells {
		tab.Add(c.Seed, c.Verdict == sweep.Pass, c.Measures["inquiries_at_mark"],
			c.Measures["inquiries_end"], c.Measures["inquiries_end"] > c.Measures["inquiries_at_mark"])
	}
	b.WriteString(tab.String())
	verdict(b, r.OK(), "Ω_z emulated while inquiry traffic continues (non-quiescent by design)")
}

// expF8: Ψ→Ω.
func expF8(b *strings.Builder, run func(sweep.Matrix) *sweep.Report, seeds int) {
	section(b, "EXP-F8 · Fig. 8 — Ψ_y → Ω_z (y+z > t)",
		"The chain construction turns any Ψ_y into Ω_z when y+z > t, with no messages at all (Theorem 13).")
	combos := []sweep.Combo{{Y: 2, Z: 1}, {Y: 1, Z: 2}, {Y: 0, Z: 3}}
	r := run(sweep.Matrix{
		Name: "F8-psi-omega", Protocol: "psi-omega",
		Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 6, T: 2}},
		Patterns: []sweep.CrashPattern{{Name: "two-crashes",
			Crashes: []sweep.CrashSpec{{Proc: 1, At: 200}, {Proc: 2, At: 500}}}},
		Combos: combos, Bandwidth: 1,
		GST: 0, MaxSteps: 6_000,
		Params: map[string]int64{"margin": 1_000},
	})
	tab := &cliutil.Table{Headers: []string{"y", "z", "crashes", "Ω_z check", "msgs"}}
	for _, combo := range combos {
		cells := group(r, combo)
		tab.Add(combo.Y, combo.Z, "{1@200, 2@500}", allPass(cells), avgMsgs(cells))
	}
	b.WriteString(tab.String())
	verdict(b, r.OK(), "local chain queries suffice; zero message cost")
}

// expF9: S_x + φ_y → S.
func expF9(b *strings.Builder, run func(sweep.Matrix) *sweep.Report, seeds int) {
	section(b, "EXP-F9 · Fig. 9 — the addition S_x + φ_y → S_n (x+y > t)",
		"The register-based algorithm adds S_x and φ_y into S = S_n (eventual flavor: ◇S_x + ◇φ_y → ◇S), over shared memory or its message-passing translations.")
	substrates := []sweep.Combo{
		{Name: "memory", X: 2, Y: 1},
		{Name: "heartbeat", X: 2, Y: 1},
		{Name: "abd", X: 2, Y: 1},
	}
	r := run(sweep.Matrix{
		Name: "F9-add-s", Protocol: "add-s",
		Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 5, T: 2}},
		Patterns: []sweep.CrashPattern{{Name: "mid-crash", Crashes: []sweep.CrashSpec{{Proc: 3, At: 800}}}},
		Combos:   substrates,
		GST:      0, MaxSteps: 120_000,
		Params: map[string]int64{"perpetual": 1, "margin": 10_000},
	})
	rEvt := run(sweep.Matrix{
		Name: "F9-add-s-eventual", Protocol: "add-s",
		Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 5, T: 2}},
		Patterns: []sweep.CrashPattern{{Name: "early-crash", Crashes: []sweep.CrashSpec{{Proc: 2, At: 500}}}},
		Combos:   []sweep.Combo{{Name: "memory", X: 2, Y: 1}},
		GST:      2_000, MaxSteps: 150_000,
		Params: map[string]int64{"perpetual": 0, "margin": 10_000},
	})
	tab := &cliutil.Table{Headers: []string{
		"substrate", "inputs", "output class check", "ok"}}
	for _, combo := range substrates {
		cells := group(r, combo)
		tab.Add(combo.Name, "S_2 + φ_1 (t=2: x+y=3 > t)", "S_5 (perpetual, scope n)", allPass(cells))
	}
	tab.Add("memory", "◇S_2 + ◇φ_1", "◇S_5 (eventual)", rEvt.OK())
	b.WriteString(tab.String())

	// Generated hostile oracle pairs: add-s consumes two oracles, so the
	// generated dimension reaches it only through paired scripts — one
	// per role, each conformance-checked against its declared class.
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
	rPair := run(sweep.Matrix{
		Name: "F9-add-s-pairs", Protocol: "add-s",
		Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 5, T: 2}},
		Patterns:           []sweep.CrashPattern{{Name: "mid-crash", Crashes: []sweep.CrashSpec{{Proc: 3, At: 800}}}},
		OraclePairFamilies: pairs,
		Combos:             []sweep.Combo{{Name: "memory", X: 2, Y: 1}},
		GST:                0, MaxSteps: 200_000,
		Params: map[string]int64{"perpetual": 0, "margin": 10_000},
	})
	tabP := &cliutil.Table{Headers: []string{
		"oracle pair", "classes", "S-role verdict", "φ-role verdict", "runs", "◇S_5 check"}}
	for _, g := range oracleGroups(rPair) {
		tabP.Add(g.oracle, g.cells[0].OracleClass, roleOf(g.cells, sRole), roleOf(g.cells, phiRole),
			len(g.cells), allPass(g.cells))
	}
	b.WriteString("\n")
	b.WriteString(tabP.String())
	verdict(b, r.OK() && rEvt.OK() && rPair.OK(),
		"emulated SUSPECTED sets pass the class checker on every substrate, "+
			"including under generated hostile oracle pairs driving both roles")
}

// expT5: Theorem 5 boundary.
func expT5(b *strings.Builder, run func(sweep.Matrix) *sweep.Report, seeds int) {
	section(b, "EXP-T5 · Theorem 5 — t < n/2 and z ≤ k are tight",
		"k-set agreement is solvable in AS[n,t](Ω_z) iff t < n/2 and z ≤ k: with a legal Ω_{k+1} there are runs deciding k+1 values, and the construction refuses t ≥ n/2.")
	const z = 2
	r := run(sweep.Matrix{
		Name: "T5-tightness", Protocol: "kset-omega",
		Seeds: seedList(seeds * 4), Sizes: []sweep.Size{{N: 5, T: 2}},
		Combos: []sweep.Combo{{Z: z, Trusted: []int{1, 2}}},
		GST:    0, MaxSteps: 500_000,
		Params: map[string]int64{"stab0": 1, "value_base": 0},
	})
	maxDistinct := sweep.MaxDistinct(r.Cells)
	refused := false
	func() {
		defer func() { refused = recover() != nil }()
		cfg := sim.Config{N: 4, T: 2, Seed: 1, MaxSteps: 1_000}
		sys := sim.MustNew(cfg)
		if _, err := core.SpawnKSetWith(sys, core.Class{Fam: core.FamOmega, Param: 1}, nil); err != nil {
			panic(err)
		}
		sys.Run(nil)
	}()
	tab := &cliutil.Table{Headers: []string{"boundary", "observation"}}
	tab.Add("z ≤ k tight", fmt.Sprintf("Ω_2 runs decided up to %d distinct values (> k=1, never > z=2)", maxDistinct))
	tab.Add("t < n/2", fmt.Sprintf("construction with t ≥ n/2 rejected: %v", refused))
	b.WriteString(tab.String())
	verdict(b, r.OK() && maxDistinct == z && refused, "both sides of Theorem 5 observed")
}

// expT8: Theorem 8 boundary.
func expT8(b *strings.Builder, run func(sweep.Matrix) *sweep.Report, seeds int) {
	section(b, "EXP-T8 · Theorem 8 necessity + Observation O1",
		"x+y+z ≥ t+2 is necessary: the two-wheels output rests on a set of full size z = t+2−x−y, failing the Ω_{z−1} checker; and with f ≤ t−y crashes a φ_y answers by size only (O1).")
	r := run(sweep.Matrix{
		Name: "T8-necessity", Protocol: "two-wheels",
		Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 5, T: 2}},
		Combos: []sweep.Combo{{X: 1, Y: 0}},
		GST:    600, MaxSteps: 200_000,
		Params: map[string]int64{"stable_for": 12_000, "margin": 10_000, "expect_tight": 1},
	})
	failZminus1 := 0
	for _, c := range r.Cells {
		if c.Measures["z_minus_1_passes"] == 0 {
			failZminus1++
		}
	}
	rO1 := run(sweep.Matrix{
		Name: "T8-O1", Protocol: "phi-o1",
		Seeds: []int64{1}, Sizes: []sweep.Size{{N: 6, T: 3}},
		Patterns: []sweep.CrashPattern{{Name: "f=t-y",
			Crashes: []sweep.CrashSpec{{Proc: 1, At: 100}, {Proc: 2, At: 150}}}},
		Combos:    []sweep.Combo{{Y: 1}},
		Bandwidth: 1, GST: 0, MaxSteps: 2_000,
		Params: map[string]int64{"at": 1_500, "ring_x": 3},
	})
	tab := &cliutil.Table{Headers: []string{"check", "result"}}
	tab.Add("two-wheels output fails Ω_{z−1}", fmt.Sprintf("%d/%d runs", failZminus1, len(r.Cells)))
	tab.Add("O1: f ≤ t−y ⇒ informative queries all false", rO1.OK())
	b.WriteString(tab.String())
	verdict(b, r.OK() && failZminus1 == len(r.Cells) && rO1.OK(), "the construction is exactly optimal (Corollary 4)")
}

// expT9: irreducibility.
func expT9(b *strings.Builder, run func(sweep.Matrix) *sweep.Report) {
	section(b, "EXP-T9 · Theorems 9–12 — irreducibility by crash-vs-delay",
		"No algorithm builds ◇φ_y from S_x: for any claimed stabilization time τ, a run R′ (region E alive but delayed past τ, oracle outputs identical to run R where E crashed) makes the reducer answer true about live processes after τ.")
	tab := &cliutil.Table{Headers: []string{
		"claimed stabilization τ", "run R: query(E) true at", "run R′ (E correct): safety violated at"}}
	ok := true
	for _, tau := range []int64{500, 2_000, 5_000} {
		r := run(sweep.Matrix{
			Name: fmt.Sprintf("T9-tau%d", tau), Protocol: "irreducibility",
			Seeds: []int64{9}, Sizes: []sweep.Size{{N: 5, T: 2}},
			Combos:    []sweep.Combo{{X: 3, Y: 1, Region: []int{4, 5}}},
			Bandwidth: 1, MaxSteps: sim.Time(tau) + 2_000,
			Params: map[string]int64{"tau": tau, "crash_at": 100, "slack": 2_000},
		})
		ok = ok && r.OK()
		if len(r.Cells) == 0 {
			continue // sharded run: this matrix's only cell lives elsewhere
		}
		c := r.Cells[0]
		tab.Add(tau, c.Measures["query_true_in_r"], c.Measures["violation_in_r_prime"])
	}
	b.WriteString(tab.String())
	verdict(b, ok, "every candidate stabilization time is defeated; Theorems 10–12 follow the same indistinguishability pattern (see internal/adversary tests)")
}

// expBaselines: consensus ancestors.
func expBaselines(b *strings.Builder, run func(sweep.Matrix) *sweep.Report, seeds int) {
	section(b, "Baselines — the Fig. 3 algorithm vs its ancestors",
		"Fig. 3 at z = k = 1 is the Ω-based consensus of [20]; the rotating-coordinator ◇S consensus of [18] is the earlier ancestor. Same quorum pattern, different oracle usage.")
	pattern := []sweep.CrashPattern{{Name: "late-crash", Crashes: []sweep.CrashSpec{{Proc: 7, At: 400}}}}
	size := []sweep.Size{{N: 7, T: 3}}
	rOmega := run(sweep.Matrix{
		Name: "baseline-fig3", Protocol: "kset-omega",
		Seeds: seedList(seeds), Sizes: size, Patterns: pattern,
		Combos: []sweep.Combo{{Z: 1}},
		GST:    600, MaxSteps: 2_000_000,
		Params: map[string]int64{"value_base": 0},
	})
	rDS := run(sweep.Matrix{
		Name: "baseline-rotating-coordinator", Protocol: "consensus-ds",
		Seeds: seedList(seeds), Sizes: size, Patterns: pattern,
		GST: 600, MaxSteps: 2_000_000,
	})
	tab := &cliutil.Table{Headers: []string{
		"protocol", "oracle", "avg rounds", "avg vticks", "avg msgs", "ok"}}
	for _, row := range []struct {
		name, oracle string
		r            *sweep.Report
	}{
		{"Fig. 3, z=k=1", "Ω_1", rOmega},
		{"rotating coordinator [18]", "◇S", rDS},
	} {
		tab.Add(row.name, row.oracle, avgRounds(row.r.Cells),
			avgSteps(row.r.Cells), avgMsgs(row.r.Cells), row.r.OK())
	}
	b.WriteString(tab.String())
	verdict(b, rOmega.OK() && rDS.OK(), "both ancestors solve consensus; the leader-based variant needs no coordinator rotation after stabilization")
}

// expRepeated: repeated instances (zero-degradation in use).
func expRepeated(b *strings.Builder, run func(sweep.Matrix) *sweep.Report, seeds int) {
	section(b, "EXP-ZD · §3.2 — repeated instances under zero-degradation",
		"Zero-degradation matters when a set agreement algorithm is used repeatedly: with a perfect detector and initial crashes, future executions do not suffer from past failures — every instance stays single-round.")
	const instances = 4
	r := run(sweep.Matrix{
		Name: "ZD-repeated", Protocol: "kset-seq",
		Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 7, T: 3}},
		Patterns: []sweep.CrashPattern{{Name: "two-initial",
			Crashes: []sweep.CrashSpec{{Proc: 2, At: 0}, {Proc: 6, At: 0}}}},
		Combos: []sweep.Combo{{Z: 2, Trusted: []int{1, 4}}},
		GST:    0, MaxSteps: 4_000_000,
		Params: map[string]int64{"stab0": 1, "instances": instances},
	})
	tab := &cliutil.Table{Headers: []string{
		"instances", "initial crashes", "all instances round 1", "avg vticks/instance"}}
	tab.Add(instances, "{2, 6}", r.OK(), avgMeasure(r.Cells, "vticks_per_instance"))
	b.WriteString(tab.String())
	verdict(b, r.OK(), "no degradation across consecutive instances")
}

// expAblation: the two routes to Ω.
func expAblation(b *strings.Builder, run func(sweep.Matrix) *sweep.Report, seeds int) {
	section(b, "EXP-ABL · ablation — two routes from ◇S to Ω",
		"The companion transformation [17] (quiescent single wheel, needs full-scope ◇S) versus the two-wheels addition with y=0 (works from ◇S_{t+1}, keeps inquiring forever): same Ω output, opposite traffic profiles.")
	const t = 2
	size := []sweep.Size{{N: 5, T: t}}
	pattern := []sweep.CrashPattern{{Name: "late-crash", Crashes: []sweep.CrashSpec{{Proc: 4, At: 700}}}}
	rSW := run(sweep.Matrix{
		Name: "ABL-single-wheel", Protocol: "single-wheel",
		Seeds: seedList(seeds), Sizes: size, Patterns: pattern,
		GST: 500, MaxSteps: 150_000,
		Params: map[string]int64{"stable_for": 12_000, "margin": 10_000},
	})
	rTW := run(sweep.Matrix{
		Name: "ABL-two-wheels-y0", Protocol: "two-wheels",
		Seeds: seedList(seeds), Sizes: size, Patterns: pattern,
		Combos: []sweep.Combo{{X: t + 1, Y: 0}},
		GST:    500, MaxSteps: 150_000,
		Params: map[string]int64{"stable_for": 12_000, "margin": 10_000},
	})
	tab := &cliutil.Table{Headers: []string{
		"route", "source class", "Ω check", "avg msgs/run", "quiescent"}}
	tab.Add("single wheel [17]", "◇S (= ◇S_n)", rSW.OK(), avgMsgs(rSW.Cells), true)
	tab.Add("two wheels, y=0", fmt.Sprintf("◇S_%d", t+1), rTW.OK(), avgMsgs(rTW.Cells), false)
	b.WriteString(tab.String())
	verdict(b, rSW.OK() && rTW.OK(), "the weaker-source route pays a permanent inquiry stream; the full-scope route goes quiet")
}

// expScale: large-n sweeps under generated adversary schedules — the
// sizes the paper never ran (its arguments are size-generic) exercised
// against the schedule families the adversary package generates.
func expScale(b *strings.Builder, run func(sweep.Matrix) *sweep.Report, seeds int) {
	section(b, "EXP-SCALE · scaling — generated adversaries, n up to 256",
		"(not a paper claim) The paper's algorithms are size-generic; the constructions must keep "+
			"their guarantees at n ≫ the paper's examples and under machine-generated adversary "+
			"schedules (staggered / clustered / cascade crashes, partition- and silence-style hold scripts) "+
			"rather than hand-picked ones.")
	if seeds > 2 {
		seeds = 2 // large cells: bound the suite's wall time
	}
	sizes := []sweep.Size{{N: 64, T: 31}, {N: 96, T: 47}, {N: 128, T: 63}, {N: 192, T: 95}, {N: 256, T: 127}}
	rKSet := run(sweep.Matrix{
		Name: "SCALE-kset", Protocol: "kset-omega",
		Seeds: seedList(seeds), Sizes: sizes,
		AdversaryFamilies: []adversary.Family{
			{Kind: adversary.KindStaggered, Count: 8, Variants: 2, Seed: 11, Start: 100, Spacing: 60},
			{Kind: adversary.KindClustered, Count: 8, Seed: 12, Start: 150},
			{Kind: adversary.KindPartition, Seed: 13, Start: 100, Window: 400},
		},
		Combos: []sweep.Combo{{Z: 2}},
		GST:    200, MaxSteps: 4_000_000,
	})
	tab := &cliutil.Table{Headers: []string{
		"n", "t", "schedule", "runs", "max distinct", "avg rounds", "avg vticks", "avg msgs", "ok"}}
	for _, size := range sizes {
		byPattern := map[string][]sweep.CellResult{}
		var order []string
		for _, c := range rKSet.Cells {
			if c.Size != size {
				continue
			}
			if _, seen := byPattern[c.Pattern]; !seen {
				order = append(order, c.Pattern)
			}
			byPattern[c.Pattern] = append(byPattern[c.Pattern], c)
		}
		for _, name := range order {
			cells := byPattern[name]
			tab.Add(size.N, size.T, name, len(cells), sweep.MaxDistinct(cells),
				avgRounds(cells), avgSteps(cells), avgMsgs(cells), allPass(cells))
		}
	}
	b.WriteString(tab.String())

	rPsi := run(sweep.Matrix{
		Name: "SCALE-psi", Protocol: "psi-omega",
		Seeds: seedList(seeds), Sizes: []sweep.Size{{N: 96, T: 6}, {N: 128, T: 6}, {N: 192, T: 6}, {N: 256, T: 6}},
		AdversaryFamilies: []adversary.Family{
			{Kind: adversary.KindCascade, Count: 3, Variants: 2, Seed: 21, Start: 100, Spacing: 100},
			{Kind: adversary.KindClustered, Count: 4, Seed: 22, Start: 200},
		},
		Combos: []sweep.Combo{{Y: 4, Z: 3}}, Bandwidth: 1,
		GST: 0, MaxSteps: 6_000,
		Params: map[string]int64{"margin": 1_000},
	})
	tab2 := &cliutil.Table{Headers: []string{"n", "t", "y", "z", "runs", "Ω_z check", "msgs"}}
	for _, size := range rPsi.Matrix.Sizes {
		var cells []sweep.CellResult
		for _, c := range rPsi.Cells {
			if c.Size == size {
				cells = append(cells, c)
			}
		}
		tab2.Add(size.N, size.T, 4, 3, len(cells), allPass(cells), avgMsgs(cells))
	}
	b.WriteString("\n")
	b.WriteString(tab2.String())
	verdict(b, rKSet.OK() && rPsi.OK(),
		"2-set agreement and the message-free Ψ→Ω chain keep their guarantees at n ∈ {64, 96, 128, 192, 256} across every generated schedule")
}

// oracleGroups collects a report's cells grouped by (size, oracle
// script), in first-appearance order — the EXP-ORACLE table axis.
type oracleGroup struct {
	size   sweep.Size
	oracle string
	cells  []sweep.CellResult
}

func oracleGroups(r *sweep.Report) []*oracleGroup {
	var order []*oracleGroup
	index := map[string]*oracleGroup{}
	for _, c := range r.Cells {
		key := fmt.Sprintf("%d/%s", c.Size.N, c.Oracle)
		g, ok := index[key]
		if !ok {
			g = &oracleGroup{size: c.Size, oracle: c.Oracle}
			index[key] = g
			order = append(order, g)
		}
		g.cells = append(g.cells, c)
	}
	return order
}

// roleOf summarizes one verdict column across a group's cells
// (identical across seeds of one script×pattern by construction).
func roleOf(cells []sweep.CellResult, pick func(sweep.CellResult) string) string {
	if len(cells) == 0 {
		return "n/a"
	}
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

// conformanceOf summarizes a group's joint conformance verdicts.
func conformanceOf(cells []sweep.CellResult) string {
	return roleOf(cells, func(c sweep.CellResult) string { return c.OracleConformance })
}

// sRole and phiRole pick the per-role verdicts of paired-oracle cells.
func sRole(c sweep.CellResult) string   { return c.OracleS }
func phiRole(c sweep.CellResult) string { return c.OraclePhi }

// oracleFlapMatrix is the EXP-ORACLE leader-flap/late-stab matrix,
// shared with EXP-CF and resolvable by -replay, so a replayed or
// perturbed cell is exactly a suite cell. It applies the same seed cap
// expOracle does, keeping its cell indices stable however the suite is
// invoked.
func oracleFlapMatrix(seeds int) sweep.Matrix {
	if seeds > 2 {
		seeds = 2 // large cells: bound the suite's wall time
	}
	return sweep.Matrix{
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
	}
}

// expCounterfactual: counterfactual replay of one EXP-ORACLE cell
// (EXP-CF). Runs through sweep.Replay, not `run`, so its two traced
// runs never enter the suite JSON — the committed suite golden is
// untouched by this section.
func expCounterfactual(b *strings.Builder, seeds int) error {
	section(b, "EXP-CF · counterfactual replay — attributing a divergence to its cause",
		"(not a paper claim) Every cell is deterministic, so re-running it under one declarative "+
			"perturbation and diffing the two decision traces pins the *first* observable consequence "+
			"of that change — a mechanized version of the paper's run-modification arguments "+
			"(crash-vs-delay indistinguishability, Theorems 9–12). Here: the first late-stabilization "+
			"parameter-script cell of ORACLE-kset-flap, replayed with the oracle's scripted "+
			"stabilization pushed 2000 ticks later.")
	m := oracleFlapMatrix(seeds)
	cells, err := m.Cells()
	if err != nil {
		return err
	}
	index := -1
	for i, c := range cells {
		if !c.Oracle.None() && !c.Oracle.IsTimeline() && c.Seed == 0 {
			index = i
			break
		}
	}
	if index < 0 {
		return fmt.Errorf("experiments: EXP-CF found no parameter-script cell in %s", m.Name)
	}
	pert, err := sweep.ParsePerturbation("stab+2000")
	if err != nil {
		return err
	}
	rr, err := sweep.Replay(m, index, pert, trace.Decisions)
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "Replayed: `go run ./cmd/experiments -replay %s:%d -perturb %s` "+
		"(n=%d, t=%d, seed %d, oracle `%s`, trace level `decisions`).\n\n",
		m.Name, index, pert, rr.Base.Size.N, rr.Base.Size.T, rr.Base.Seed, rr.Base.Oracle)
	tab := &cliutil.Table{Headers: []string{
		"run", "verdict", "rounds", "vticks", "trace events", "trace digest"}}
	tab.Add("base", rr.Base.Verdict, rr.Base.MaxRound, rr.Base.Steps, rr.Base.TraceEvents, rr.Base.TraceDigest)
	tab.Add(pert.String(), rr.Perturbed.Verdict, rr.Perturbed.MaxRound, rr.Perturbed.Steps, rr.Perturbed.TraceEvents, rr.Perturbed.TraceDigest)
	b.WriteString(tab.String())
	if rr.Div == nil {
		b.WriteString("\nDivergence: none — the perturbation changed nothing the trace observes.\n")
	} else {
		fmt.Fprintf(b, "\nDivergence: %s\n", rr.Div.Summary)
	}
	verdict(b, rr.Base.Verdict == sweep.Pass && rr.Perturbed.Verdict == sweep.Pass && rr.Div != nil,
		"both runs still decide (the algorithm tolerates the later stabilization); the trace diff "+
			"pins the first decision the 2000-tick shift actually moved, and the divergence point is "+
			"byte-reproducible run to run")
	return nil
}

// expOracle: generated hostile-oracle families as a sweep dimension —
// the classes are defined by what their oracles may do, so the oracle
// is swept the way crash schedules are (EXP-ORACLE).
func expOracle(b *strings.Builder, run func(sweep.Matrix) *sweep.Report, seeds int) {
	section(b, "EXP-ORACLE · generated hostile-oracle families",
		"(not a paper claim) The classes S_x, ◇S_x, Ω_z and the φ/Ψ families are defined by which "+
			"oracle histories they admit; the algorithms must keep their guarantees under *any* of them. "+
			"adversary.OracleGen makes that dimension sweepable: leader-flapping timelines, scope-churn "+
			"scripts, anarchy bursts with seeded intensity ramps and late-stabilization sweeps expand "+
			"deterministically into scripted or parameterized oracles, and fd/check.go tags every "+
			"generated script with a conformance verdict against its declared class.")
	if seeds > 2 {
		seeds = 2 // large cells: bound the suite's wall time
	}

	// Ω_z timelines flapping under the Fig. 3 k-set algorithm, n up to 128.
	rFlap := run(oracleFlapMatrix(seeds))
	tab := &cliutil.Table{Headers: []string{
		"n", "oracle", "class", "conformance", "runs", "max distinct", "avg rounds", "avg vticks", "ok"}}
	for _, g := range oracleGroups(rFlap) {
		class := g.cells[0].OracleClass
		tab.Add(g.size.N, g.oracle, class, conformanceOf(g.cells), len(g.cells),
			sweep.MaxDistinct(g.cells), avgRounds(g.cells), avgSteps(g.cells), allPass(g.cells))
	}
	b.WriteString(tab.String())

	// Bursty / late-stabilizing ◇φ under the message-free Ψ→Ω chain.
	rBurst := run(sweep.Matrix{
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
	})
	tab2 := &cliutil.Table{Headers: []string{
		"n", "oracle", "conformance", "runs", "Ω_3 check", "msgs"}}
	for _, g := range oracleGroups(rBurst) {
		tab2.Add(g.size.N, g.oracle, conformanceOf(g.cells), len(g.cells),
			allPass(g.cells), avgMsgs(g.cells))
	}
	b.WriteString("\n")
	b.WriteString(tab2.String())

	// Scope-churn ◇S_x scripts driving the two-wheels addition through
	// the scripted-suspector driver.
	rChurn := run(sweep.Matrix{
		Name: "ORACLE-wheels-churn", Protocol: "two-wheels",
		Seeds: seedList(seeds),
		Sizes: []sweep.Size{{N: 5, T: 2}},
		OracleFamilies: []adversary.OracleFamily{
			{Kind: adversary.OracleScopeChurn, X: 2, Variants: 3, Seed: 51, Settle: []int{1, 2}},
		},
		Combos: []sweep.Combo{{X: 2, Y: 1}},
		GST:    400, MaxSteps: 60_000,
		Params: map[string]int64{"stable_for": 12_000, "margin": 10_000},
	})
	tab3 := &cliutil.Table{Headers: []string{
		"oracle", "class", "conformance", "runs", "Ω_1 check", "avg stabilization vtick"}}
	for _, g := range oracleGroups(rChurn) {
		tab3.Add(g.oracle, g.cells[0].OracleClass, conformanceOf(g.cells), len(g.cells),
			allPass(g.cells), avgMeasure(g.cells, "stabilization"))
	}
	b.WriteString("\n")
	b.WriteString(tab3.String())
	verdict(b, rFlap.OK() && rBurst.OK() && rChurn.OK(),
		"every generated oracle script conforms to its declared class under the swept patterns, and "+
			"k-set agreement, the Ψ→Ω chain and the two-wheels addition all keep their guarantees under "+
			"flapping, bursty and scope-churning oracles up to n = 128")
}
