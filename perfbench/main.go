// Command perfbench is fdgrid's end-to-end and per-layer benchmark. It
// builds its inputs from a seed, runs one workload (or all three) from a
// single process for a fixed time, checks every output, and prints its
// metrics by name and unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload suite --seed 0 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured untraced. --trace 1
// is a separate run that alternates untraced and traced passes and
// prints the per-layer metrics, from spans the benchmark records around
// its own calls into each layer; the program is not instrumented. See
// perfbench/README.md for the metric list and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fdgrid/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// config is what one invocation was asked to do.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// dir holds the built experiments and sweepd binaries; the run
	// writes its exported specs, count records and span dumps there too.
	dir string
}

// goldenPath is the committed suite golden, relative to the repository
// root the benchmark runs from.
const goldenPath = "cmd/experiments/testdata/suite.golden.json"

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "all", "suite, paper, fleet or all")
	fs.Int64Var(&cfg.seed, "seed", 0, "workload seed; 0 runs the suite golden's own cell seeds")
	fs.Float64Var(&cfg.seconds, "seconds", 40, "measured time per workload")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&cfg.dir, "dir", ".bench_build/perfbench", "directory holding the built experiments and sweepd binaries, and the run's specs, count records and span dumps")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if cfg.seed < 0 || cfg.seconds <= 0 {
		return fmt.Errorf("--seed must be ≥ 0 and --seconds > 0")
	}
	cfg.traced = trace == 1
	var names []string
	if cfg.workload == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := workloadByName(cfg.workload); ok {
		names = []string{cfg.workload}
	} else {
		return fmt.Errorf("unknown --workload %q (want suite, paper, fleet or all)", cfg.workload)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	source, err := sourceDigest(".")
	if err != nil {
		return fmt.Errorf("fingerprint sources: %w", err)
	}

	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		w, _ := workloadByName(name)
		b, err := newBench(cfg, w, source)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		res, err := b.run()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		b.printReport(stdout, res)
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one workload's run: its inputs, settings and set-up timings.
type bench struct {
	cfg    config
	w      workload
	source string
	log    *spanLog // nil unless traced

	pool         int // sweep pool size in-process: nproc
	fleetWorkers int // subprocess workers: nproc
	fleetPool    int // each worker's sweep pool: GOMAXPROCS ÷ workers, as sweepd computes it
	sweepd       string

	spec       []byte
	protocols  []string
	protocolOf map[string]string // matrix name → protocol
	matrices   []sweep.Matrix
	golden     *goldenCheck // nil unless the workload is checked against the golden

	setup  setupTimes
	spawns []float64 // fleet: spawn-to-hello of every fleet started
	passes []*pass
}

func newBench(cfg config, w workload, source string) (*bench, error) {
	b := &bench{cfg: cfg, w: w, source: source, pool: runtime.NumCPU(), fleetWorkers: runtime.NumCPU()}
	b.fleetPool = max(1, runtime.GOMAXPROCS(0)/b.fleetWorkers)
	b.sweepd = filepath.Join(cfg.dir, "sweepd")
	if cfg.traced {
		b.log = newSpanLog()
	}
	suite, err := exportSuite(cfg.dir, w.seedsPerConfig)
	if err != nil {
		return nil, err
	}
	if b.spec, b.protocols, err = workloadSpec(suite, w, cfg.seed); err != nil {
		return nil, err
	}
	return b, nil
}

// run sets up, measures passes for the configured time and checks them.
func (b *bench) run() (result, error) {
	if err := b.setup.time(b.spec, setupReps, b.log); err != nil {
		return result{}, err
	}
	b.matrices = b.setup.matrices
	if b.w.cellSet == "suite" {
		var err error
		if b.golden, err = newGoldenCheck(goldenPath, b.matrices, b.cfg.seed); err != nil {
			return result{}, err
		}
	}
	b.protocolOf = map[string]string{}
	for _, m := range b.matrices {
		b.protocolOf[m.Name] = m.Protocol
	}
	if err := b.measure(); err != nil {
		return result{}, err
	}
	res := b.check()
	if b.cfg.traced {
		res.Metrics = b.layerMetrics()
		if err := b.dumpSpans(); err != nil {
			return result{}, err
		}
	} else {
		res.Metrics = b.endToEndMetrics()
	}
	return res, nil
}

// spawnReps is how many empty fleets a fleet run spawns before each
// pass, on top of the pass's own, so the spawn time is a median of many
// spread over the run.
const spawnReps = 5

// measure runs passes until the next one would overrun the configured
// time, with a round of set-up repetitions (and, in fleet, of empty
// spawns) before each. A traced run alternates untraced and traced
// passes, untraced first, so the tracing overhead is measured within one
// run.
func (b *bench) measure() error {
	start := time.Now()
	minPasses := 1
	if b.cfg.traced {
		minPasses = 2
	}
	for {
		var log *spanLog
		if b.cfg.traced && len(b.passes)%2 == 1 {
			log = b.log
		}
		if len(b.passes) > 0 {
			if err := b.setup.time(b.spec, setupReps, log); err != nil {
				return err
			}
		}
		if b.w.fleet {
			for i := 0; i < spawnReps; i++ {
				d, err := b.spawnTime()
				if err != nil {
					return err
				}
				b.spawns = append(b.spawns, d)
			}
		}
		t0 := time.Now()
		var p *pass
		var err error
		if b.w.fleet {
			p, err = b.fleetPass(log)
		} else {
			p, err = b.inprocPass(log)
		}
		if err != nil {
			return err
		}
		p.elapsed = time.Since(t0).Seconds()
		b.passes = append(b.passes, p)
		fmt.Fprintf(os.Stderr, "perfbench: %s pass %d traced=%t wall %.4fs cpu %.4fs peak %.1fMB\n",
			b.w.name, len(b.passes)-1, p.traced, p.wall, p.cpu, float64(p.peakRSS)/(1<<20))
		if b.w.fleet {
			b.spawns = append(b.spawns, p.spawn)
		}
		elapsed := time.Since(start).Seconds()
		typical := median(b.collect(func(p *pass) float64 { return p.elapsed }, nil))
		if len(b.passes) >= minPasses && elapsed+typical > b.cfg.seconds {
			return nil
		}
	}
}

// collect gathers one value per pass; keep (nil: all) filters passes.
func (b *bench) collect(f func(*pass) float64, keep func(*pass) bool) []float64 {
	var out []float64
	for _, p := range b.passes {
		if keep == nil || keep(p) {
			out = append(out, f(p))
		}
	}
	return out
}

func untraced(p *pass) bool { return !p.traced }
func traced(p *pass) bool   { return p.traced }

// dumpSpans writes the traced run's spans, kept in memory until now.
func (b *bench) dumpSpans() error {
	blob, err := json.Marshal(b.log.snapshot())
	if err != nil {
		return err
	}
	path := filepath.Join(b.cfg.dir, fmt.Sprintf("spans-%s-seed%d.json", b.w.name, b.cfg.seed))
	return os.WriteFile(path, blob, 0o644)
}
