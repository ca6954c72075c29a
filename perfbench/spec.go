package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"fdgrid/internal/sweep"
)

// workload is one set of inputs the benchmark runs. Every workload is a
// closed loop over a fixed cell count: the next pass starts only when
// the previous one has finished and been checked.
type workload struct {
	name string
	// seedsPerConfig is the -seeds the suite spec is exported with.
	seedsPerConfig int
	// keep selects the workload's matrices from the exported suite.
	keep func(sweep.Matrix) bool
	// fleet runs the cells through dispatch.Run and subprocess workers
	// instead of in-process sweep.Run calls.
	fleet bool
	// cellSet names the cells the workload runs. Workloads with the same
	// cell set must render the same bytes and counts at the same seed,
	// which the persisted count records check across runs; the "suite"
	// cell set is also checked against the committed golden.
	cellSet string
}

// workloads in the order --workload all runs them: by growing memory
// footprint. Peak RSS figures are high-water marks. An in-process
// workload's is the process's own so far, and a worker's starts at its
// parent's RSS when spawned (Linux carries the parent's mark through
// vfork and exec), so a smaller workload must not run after a larger one.
var workloads = []workload{
	{name: "paper", seedsPerConfig: 12, keep: isPaperMatrix, cellSet: "paper"},
	{name: "fleet", seedsPerConfig: 3, keep: allMatrices, fleet: true, cellSet: "suite"},
	{name: "suite", seedsPerConfig: 3, keep: allMatrices, cellSet: "suite"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func allMatrices(sweep.Matrix) bool { return true }

// isPaperMatrix selects the paper's own constructions and witnesses: the
// F*, T*, baseline-*, ZD-repeated and ABL-* matrices (every size n ≤ 11),
// leaving out the SCALE and generated-oracle ORACLE families.
func isPaperMatrix(m sweep.Matrix) bool {
	return !strings.HasPrefix(m.Name, "SCALE-") && !strings.HasPrefix(m.Name, "ORACLE-") && !isLargeMatrix(m)
}

// seedStride separates the cell seeds of successive benchmark seeds:
// benchmark seed s shifts the seeds of every small-n matrix by
// s × seedStride, so seed 0 runs the golden's own seeds and no two
// benchmark seeds below 10^15 share a cell seed.
const seedStride = 1000

// isLargeMatrix reports whether a matrix has a size above n = 11: the
// SCALE and ORACLE families, whose n = 32–256 cells carry about 85% of
// the suite's CPU. They keep the golden's seeds at every benchmark seed.
// With only two seeds per size, the largest cells' message volume and
// memory swing with their seeds by more than a timing bound could
// absorb; fixed, they make every seed of suite and fleet the same heavy
// work, byte-checked against the golden, while the seed varies the 24
// small-n matrices.
func isLargeMatrix(m sweep.Matrix) bool {
	for _, s := range m.Sizes {
		if s.N > 11 {
			return true
		}
	}
	return false
}

// exportSuite runs `experiments -seeds K -matrices FILE` — the suite's
// own matrix exporter — and decodes the result.
func exportSuite(dir string, seedsPerConfig int) ([]sweep.Matrix, error) {
	path := filepath.Join(dir, fmt.Sprintf("suite-spec-seeds%d.json", seedsPerConfig))
	cmd := exec.Command(filepath.Join(dir, "experiments"), "-seeds", strconv.Itoa(seedsPerConfig), "-matrices", path)
	cmd.Stderr = os.Stderr
	if out, err := cmd.Output(); err != nil {
		return nil, fmt.Errorf("export suite matrices: %w (%s)", err, strings.TrimSpace(string(out)))
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ms []sweep.Matrix
	if err := json.Unmarshal(blob, &ms); err != nil {
		return nil, fmt.Errorf("decode exported suite %s: %w", path, err)
	}
	return ms, nil
}

// workloadSpec selects w's matrices from the exported suite and shifts
// the small-n matrices' seeds for the benchmark seed. The returned bytes are the input
// the program receives; protocols lists every protocol the full suite
// runs, so per-protocol metrics keep one name set across workloads.
func workloadSpec(suite []sweep.Matrix, w workload, seed int64) (spec []byte, protocols []string, err error) {
	var ms []sweep.Matrix
	seen := map[string]bool{}
	for _, m := range suite {
		if !seen[m.Protocol] {
			seen[m.Protocol] = true
			protocols = append(protocols, m.Protocol)
		}
		if !w.keep(m) {
			continue
		}
		if isLargeMatrix(m) {
			ms = append(ms, m)
			continue
		}
		shifted := make([]int64, len(m.Seeds))
		for i, s := range m.Seeds {
			shifted[i] = s + seed*seedStride
		}
		m.Seeds = shifted
		ms = append(ms, m)
	}
	if len(ms) == 0 {
		return nil, nil, fmt.Errorf("workload %s selects no matrices", w.name)
	}
	sort.Strings(protocols)
	spec, err = json.Marshal(ms)
	return spec, protocols, err
}

// setupReps is how many times a run decodes and expands its spec before
// each pass. One decode+expand takes about a millisecond; the median of
// many, spread over the whole run like the passes themselves, is steady
// where a single sub-millisecond event is not.
const setupReps = 25

// setupTimes holds the per-repetition set-up timings of a run.
type setupTimes struct {
	decode, expand []float64 // seconds
	matrices       []sweep.Matrix
	cells          int
}

// time decodes the spec and expands every matrix's cells, reps times,
// after a GC so every round starts from the same heap state. On a
// traced run each repetition is a span with one child per decode and per
// Matrix.Cells call.
func (st *setupTimes) time(spec []byte, reps int, log *spanLog) error {
	runtime.GC()
	for r := 0; r < reps; r++ {
		rep := log.reserve(0, "sweep", "setup")
		t0 := time.Now()
		var ms []sweep.Matrix
		if err := json.Unmarshal(spec, &ms); err != nil {
			return fmt.Errorf("decode spec: %w", err)
		}
		t1 := time.Now()
		log.add(rep, "sweep", "decode", t0, t1)
		cells := 0
		for i := range ms {
			c0 := time.Now()
			cs, err := ms[i].Cells()
			if err != nil {
				return err
			}
			log.add(rep, "sweep", "cells:"+ms[i].Name, c0, time.Now())
			cells += len(cs)
		}
		t2 := time.Now()
		log.finish(rep, t0, t2)
		st.decode = append(st.decode, t1.Sub(t0).Seconds())
		st.expand = append(st.expand, t2.Sub(t1).Seconds())
		st.matrices, st.cells = ms, cells
	}
	return nil
}

// total is the median set-up time: decode plus expansion, per repetition.
func (st setupTimes) total() float64 {
	sums := make([]float64, len(st.decode))
	for i := range sums {
		sums[i] = st.decode[i] + st.expand[i]
	}
	return median(sums)
}
