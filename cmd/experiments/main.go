// Command experiments regenerates EXPERIMENTS.md from the suite table
// (suite.go): one row per figure/result of the paper, each holding the
// paper's claim, its declarative sweep.Matrix values and a renderer
// that aggregates the per-cell results into the section's tables. The
// per-cell results are deterministic, so the rendered report is
// byte-stable run to run.
//
// It has three jobs, each reading the table: render the suite (-out,
// -report), export the suite's matrices (-matrices) and replay one
// suite cell traced (-replay, -perturb, -trace). Fanning a suite out across workers or
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
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

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
	if *seeds < 1 {
		fatal(fmt.Errorf("experiments: -seeds must be at least 1, got %d", *seeds))
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
		if err := runReplay(os.Stdout, *replay, *perturb, *traceLvl, *seeds); err != nil {
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

// buildSuite runs the suite table on a pool of the given size and
// renders the markdown report: per row, its matrices, then its section.
func buildSuite(seeds, workers int, verbose bool) (string, []*sweep.Report, error) {
	var b strings.Builder
	b.WriteString(`# EXPERIMENTS — paper vs. measured

Generated by ` + "`go run ./cmd/experiments`" + `. Each section is one row of
the suite table (cmd/experiments/suite.go), whose declarative
sweep.Matrix values (internal/sweep) expand into cells; the cells —
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
	for _, e := range suite {
		var rs []*sweep.Report
		for _, m := range e.matrices(seeds) {
			r, err := sweep.Run(m, sweep.Options{Workers: workers})
			if err != nil {
				return "", nil, err
			}
			if verbose {
				var wakes, switches int64
				for i := range r.Cells {
					wakes += r.Cells[i].Wakes
					switches += r.Cells[i].Switches
				}
				fmt.Fprintf(os.Stderr, "%-32s %6.2fs  %9d wakes %8d switches  %s\n",
					r.Matrix.Name, float64(r.WallNS)/1e9, wakes, switches, r.Summary())
			}
			rs = append(rs, r)
		}
		reports = append(reports, rs...)

		fmt.Fprintf(&b, "## %s\n\n**Paper claim.** %s\n\n", e.title, e.claim)
		status := "REPRODUCED"
		if !e.render(&b, rs, seeds) {
			status = "FAILED"
		}
		fmt.Fprintf(&b, "\n**Measured.** %s — %s\n\n", status, e.measured)
	}
	return b.String(), reports, nil
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
// decision tracing forced on and print its trace fingerprint to w;
// with a -perturb spec, run the perturbed variant too and report the
// first divergence between the two traces.
func runReplay(w io.Writer, spec, pertSpec, level string, seeds int) error {
	name, index, err := parseReplaySpec(spec)
	if err != nil {
		return err
	}
	m, ok := suiteMatrix(name, seeds)
	if !ok {
		return fmt.Errorf("experiments: no suite matrix named %q (see EXPERIMENTS.md for names)", name)
	}
	lvl, err := trace.ParseLevel(level)
	if err != nil {
		return err
	}
	var pert *sweep.Perturbation
	if pertSpec != "" {
		if pert, err = sweep.ParsePerturbation(pertSpec); err != nil {
			return err
		}
	}
	rr, err := sweep.Replay(m, index, pert, lvl)
	if err != nil {
		return err
	}
	if pert == nil {
		fmt.Fprintf(w, "replay %s:%d (%s, trace=%s)\n", name, index, m.Protocol, rr.Level)
		printReplayCell(w, "cell", rr.Base)
		return nil
	}
	fmt.Fprintf(w, "replay %s:%d (%s, trace=%s, perturb %s)\n", name, index, m.Protocol, rr.Level, pert)
	printReplayCell(w, "base", rr.Base)
	printReplayCell(w, "perturbed", rr.Perturbed)
	if rr.Div == nil {
		fmt.Fprintln(w, "divergence: none (the perturbation changed nothing the trace observes)")
	} else {
		fmt.Fprintf(w, "divergence: %s\n", rr.Div.Summary)
	}
	return nil
}

func printReplayCell(w io.Writer, label string, c sweep.CellResult) {
	oracle := ""
	if c.Oracle != "" {
		oracle = " oracle=" + c.Oracle
	}
	fmt.Fprintf(w, "  %-9s seed=%d n=%d t=%d%s verdict=%s steps=%d trace_events=%d trace_digest=%s\n",
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
