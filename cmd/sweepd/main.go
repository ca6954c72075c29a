// Command sweepd is the fault-tolerant distributed sweep dispatcher: it
// reads a suite of sweep matrices (the JSON array `experiments
// -matrices` exports), fans the work out across worker processes over a
// length-prefixed JSON wire protocol, and merges the streamed results
// into bytes identical to the single-process run — surviving worker
// crashes, hangs, stragglers and corrupt frames along the way via the
// heartbeat suspector, bounded retries, speculative re-dispatch and
// local fallback in internal/dispatch.
//
// Dispatcher mode (default):
//
//	sweepd -matrices suite-spec.json -workers 3 -report suite.json
//	sweepd -matrices ... -connect host:a,host:b   # TCP workers instead of subprocesses
//	sweepd ... -fault "0:crash@5;2:slow=50ms"     # deterministic fault injection
//	sweepd ... -golden suite.golden.json          # byte-compare the merged suite
//	sweepd ... -stats stats.json                  # scheduling stats (separate artifact)
//
// Worker modes:
//
//	sweepd -worker            # serve the protocol on stdin/stdout
//	sweepd -serve :7070       # serve one dispatcher connection over TCP
//
// The merged report carries no scheduling detail — retries, worker
// assignment and duplicates land in the -stats artifact — so its bytes
// stay comparable against the unsharded golden no matter what faults
// the run absorbed.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fdgrid/internal/dispatch"
	"fdgrid/internal/sweep"
)

func main() {
	var (
		matricesF = flag.String("matrices", "", "suite spec: JSON array of sweep matrices (see `experiments -matrices`)")
		workersN  = flag.Int("workers", 3, "subprocess workers to spawn (ignored with -connect)")
		connect   = flag.String("connect", "", "comma-separated worker addresses to dial instead of spawning subprocesses")
		units     = flag.Int("units", 4, "work units (shards) per matrix")
		retries   = flag.Int("retries", 2, "re-dispatch attempts per unit before local fallback")
		suspect   = flag.Duration("suspect", time.Second, "suspector base timeout (heartbeat and progress)")
		suspectMx = flag.Duration("suspect-max", 0, "silence that hardens suspicion into dismissal (0 = 10x -suspect)")
		speculate = flag.Bool("speculate", true, "speculatively re-dispatch units held by stragglers")
		fallback  = flag.Bool("local-fallback", true, "run undispatchable units in-process instead of failing")
		faults    = flag.String("fault", "", "fault injection schedule, e.g. \"0:crash@5;2:slow=50ms\" (subprocess workers only)")
		reportF   = flag.String("report", "", "write the merged suite JSON here")
		golden    = flag.String("golden", "", "byte-compare the merged suite against this file and fail on any difference")
		statsF    = flag.String("stats", "", "write the scheduling stats JSON here")
		pool      = flag.Int("pool", 0, "per-worker sweep pool size (0 = split GOMAXPROCS across subprocess workers)")
		verbose   = flag.Bool("v", false, "log scheduling decisions to stderr")

		worker    = flag.Bool("worker", false, "worker mode: serve the dispatch protocol on stdin/stdout")
		serve     = flag.String("serve", "", "worker mode: listen on this address and serve one dispatcher connection")
		name      = flag.String("name", "", "worker mode: self-reported worker name")
		heartbeat = flag.Duration("heartbeat", 500*time.Millisecond, "worker mode: heartbeat interval")
		faultSpec = flag.String("worker-fault", "", "worker mode: arm one fault, e.g. \"crash@5\" (for tests)")
	)
	flag.Parse()

	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *worker || *serve != "" {
		if err := runWorker(*serve, *name, *pool, *heartbeat, *faultSpec); err != nil {
			fatal(err)
		}
		return
	}
	if err := runDispatcher(dispatcherFlags{
		matricesF: *matricesF, workersN: *workersN, connect: *connect,
		units: *units, retries: *retries, suspect: *suspect, suspectMax: *suspectMx,
		speculate: *speculate, fallback: *fallback, faults: *faults,
		reportF: *reportF, golden: *golden, statsF: *statsF, pool: *pool, verbose: *verbose,
	}); err != nil {
		fatal(err)
	}
}

// runWorker is both worker modes: stdio (the subprocess fleet) and TCP
// (-serve, one dispatcher connection then exit).
func runWorker(serveAddr, name string, pool int, heartbeat time.Duration, faultSpec string) error {
	var fault dispatch.Fault
	if faultSpec != "" {
		f, err := dispatch.ParseFault(faultSpec)
		if err != nil {
			return err
		}
		fault = f
	}
	opt := dispatch.WorkerOptions{Name: name, Pool: pool, Heartbeat: heartbeat, Fault: fault}
	if serveAddr == "" {
		if opt.Name == "" {
			opt.Name = fmt.Sprintf("stdio-%d", os.Getpid())
		}
		return dispatch.ServeWorker(dispatch.Stdio{}, opt)
	}
	ln, err := net.Listen("tcp", serveAddr)
	if err != nil {
		return err
	}
	defer ln.Close()
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	if opt.Name == "" {
		opt.Name = conn.LocalAddr().String()
	}
	return dispatch.ServeWorker(conn, opt)
}

type dispatcherFlags struct {
	matricesF, connect, faults, reportF, golden, statsF string
	workersN, units, retries, pool                      int
	suspect, suspectMax                                 time.Duration
	speculate, fallback, verbose                        bool
}

func runDispatcher(f dispatcherFlags) error {
	matrices, err := loadMatrices(f.matricesF)
	if err != nil {
		return err
	}
	schedule, err := dispatch.ParseFaults(f.faults)
	if err != nil {
		return err
	}
	if f.connect == "" {
		// A fault aimed past the fleet would arm nothing and leave a
		// "crash test" testing nothing; refuse it before spawning.
		bad := -1
		for w := range schedule {
			if w >= f.workersN && (bad < 0 || w < bad) {
				bad = w
			}
		}
		if bad >= 0 {
			return fmt.Errorf("sweepd: -fault arms worker %d, but -workers %d spawns no such worker (indices start at 0)", bad, f.workersN)
		}
	}

	var fleet []dispatch.Transport
	if f.connect != "" {
		if f.faults != "" {
			return fmt.Errorf("sweepd: -fault injects into spawned subprocess workers; arm TCP workers with -worker-fault instead")
		}
		for _, addr := range strings.Split(f.connect, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return fmt.Errorf("sweepd: dial %s: %w", addr, err)
			}
			c := conn
			fleet = append(fleet, dispatch.Transport{Name: addr, RW: conn, Kill: func() { c.Close() }})
		}
		if len(fleet) == 0 {
			return fmt.Errorf("sweepd: -connect %q names no addresses", f.connect)
		}
	} else if f.workersN > 0 {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		pool := f.pool
		if pool == 0 {
			pool = runtime.GOMAXPROCS(0) / f.workersN
			if pool < 1 {
				pool = 1
			}
		}
		for i := 0; i < f.workersN; i++ {
			args := []string{"-worker", "-name", fmt.Sprintf("sub%d", i), "-pool", strconv.Itoa(pool)}
			if fault, armed := schedule[i]; armed {
				args = append(args, "-worker-fault", fault.String())
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			tr, err := dispatch.SpawnWorker(fmt.Sprintf("sub%d", i), cmd)
			if err != nil {
				return err
			}
			fleet = append(fleet, tr)
		}
	}

	cfg := dispatch.Config{
		Matrices:       matrices,
		UnitsPerMatrix: f.units,
		MaxRetries:     f.retries,
		SuspectAfter:   f.suspect,
		SuspectMax:     f.suspectMax,
		Speculate:      f.speculate,
		LocalFallback:  f.fallback,
		LocalPool:      f.pool,
	}
	if f.verbose {
		cfg.Logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}

	start := time.Now()
	reports, stats, err := dispatch.Run(cfg, fleet)
	if stats != nil && f.statsF != "" {
		// Stats are written even for a failed run (they say why it
		// failed); a stats write error joins the run's own.
		blob, serr := json.MarshalIndent(stats, "", "  ")
		if serr == nil {
			serr = os.WriteFile(f.statsF, blob, 0o644)
		}
		if serr != nil {
			err = errors.Join(err, fmt.Errorf("sweepd: -stats: %w", serr))
		}
	}
	if err != nil {
		return err
	}

	suite, err := sweep.SuiteJSON(reports)
	if err != nil {
		return err
	}
	if f.reportF != "" {
		if err := os.WriteFile(f.reportF, suite, 0o644); err != nil {
			return err
		}
	}
	if f.golden != "" {
		want, err := os.ReadFile(f.golden)
		if err != nil {
			return err
		}
		if string(suite) != string(want) {
			return fmt.Errorf("sweepd: merged suite differs from golden %s (got %d bytes, want %d)", f.golden, len(suite), len(want))
		}
		fmt.Printf("merged suite matches golden %s\n", f.golden)
	}

	cells := 0
	for _, r := range reports {
		cells += len(r.Cells)
	}
	fmt.Printf("dispatched %d matrices (%d units, %d cells) across %d workers (%d retries, %d speculated, %d lost, %d local, %.2fs)\n",
		len(reports), stats.Units, cells, len(fleet), stats.Retries, stats.Speculated, stats.WorkersLost, stats.LocalUnits, time.Since(start).Seconds())
	return nil
}

// loadMatrices reads and sanity-checks the suite spec. It decodes
// strictly: a misspelled field (say "gts" for "gst") or trailing data
// is an error, not a matrix silently run with that edit dropped.
func loadMatrices(path string) ([]sweep.Matrix, error) {
	if path == "" {
		return nil, fmt.Errorf("sweepd: -matrices is required (export one with `experiments -matrices suite-spec.json`)")
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var matrices []sweep.Matrix
	if err := dec.Decode(&matrices); err != nil {
		return nil, fmt.Errorf("sweepd: %s: %w (want a JSON array of sweep matrices)", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("sweepd: %s: trailing data after the matrix array", path)
	}
	if len(matrices) == 0 {
		return nil, fmt.Errorf("sweepd: %s holds no matrices", path)
	}
	return matrices, nil
}
