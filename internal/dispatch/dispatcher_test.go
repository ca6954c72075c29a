package dispatch

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
	"fdgrid/internal/sweep"
)

// TestMain doubles as the subprocess worker entry point: when
// DISPATCH_TEST_WORKER=1 the test binary re-execs into ServeWorker on
// stdio instead of running tests, which is how the subprocess tests get
// a real worker process without building anything.
func TestMain(m *testing.M) {
	if os.Getenv("DISPATCH_TEST_WORKER") == "1" {
		var fault Fault
		if spec := os.Getenv("DISPATCH_TEST_FAULT"); spec != "" {
			f, err := ParseFault(spec)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			fault = f
		}
		err := ServeWorker(Stdio{}, WorkerOptions{
			Name:      os.Getenv("DISPATCH_TEST_NAME"),
			Pool:      2,
			Heartbeat: 50 * time.Millisecond,
			Fault:     fault,
		})
		if err != nil && err != errWorkerCrash {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testSuite is a small two-matrix suite: quick cells, enough of them
// (12) that faults keyed on cell counts fire mid-run.
func testSuite() []sweep.Matrix {
	base := sweep.Matrix{
		Protocol: "kset-omega",
		Seeds:    []int64{0, 1, 2},
		Sizes:    []sweep.Size{{N: 5, T: 2}},
		Combos:   []sweep.Combo{{Z: 2}, {Z: 3}},
		GST:      400,
		MaxSteps: 500_000,
	}
	a, b := base, base
	a.Name, b.Name = "dispatch-a", "dispatch-b"
	b.Patterns = []sweep.CrashPattern{{Name: "late-crash", Crashes: []sweep.CrashSpec{{Proc: 0, At: 450}}}}
	return []sweep.Matrix{a, b}
}

// heldMatrix is a testSuite-shaped matrix whose one pattern holds
// explicit hold sets, which must cross the wire intact. (The hold
// silences the last process towards the others until after GST, which
// changes every cell it touches.)
func heldMatrix() sweep.Matrix {
	held := testSuite()[0]
	held.Name = "held"
	held.Patterns = []sweep.CrashPattern{{Name: "silenced", Holds: []sim.Hold{
		{From: ids.NewSet(5), To: ids.NewSet(1, 2, 3, 4), Until: 900},
	}}}
	return held
}

// baselineSuite runs the suite unsharded in-process — the byte-identity
// reference every dispatched run is diffed against.
func baselineSuite(t *testing.T, matrices []sweep.Matrix) []byte {
	t.Helper()
	var reports []*sweep.Report
	for _, m := range matrices {
		r, err := sweep.Run(m, sweep.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, r)
	}
	blob, err := sweep.SuiteJSON(reports)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// pipeFleet starts n in-process workers over net.Pipe, arming the given
// per-worker faults.
func pipeFleet(n int, faults map[int]Fault) []Transport {
	fleet := make([]Transport, n)
	for i := 0; i < n; i++ {
		host, worker := net.Pipe()
		opt := WorkerOptions{
			Name:      fmt.Sprintf("pipe%d", i),
			Pool:      2,
			Heartbeat: 40 * time.Millisecond,
			Fault:     faults[i],
		}
		go ServeWorker(worker, opt)
		w := worker
		fleet[i] = Transport{Name: opt.Name, RW: host, Kill: func() { w.Close() }}
	}
	return fleet
}

func testConfig(matrices []sweep.Matrix) Config {
	return Config{
		Matrices:       matrices,
		UnitsPerMatrix: 3,
		MaxRetries:     3,
		SuspectAfter:   150 * time.Millisecond,
		SuspectMax:     600 * time.Millisecond,
		Speculate:      true,
		LocalFallback:  true,
		LocalPool:      2,
	}
}

// TestDispatchFaultMatrix is the tentpole's acceptance test: under
// every fault schedule in the injection matrix, the dispatched suite's
// merged reports are byte-identical to the unsharded run. The suite
// includes the held matrix, so hold sets survive every fault too.
func TestDispatchFaultMatrix(t *testing.T) {
	matrices := append(testSuite(), heldMatrix())
	want := baselineSuite(t, matrices)

	cases := []struct {
		name    string
		workers int
		faults  map[int]Fault
		check   func(t *testing.T, s *Stats)
	}{
		{name: "clean", workers: 3, check: func(t *testing.T, s *Stats) {
			if s.WorkersLost != 0 || s.Retries != 0 || s.LocalUnits != 0 {
				t.Errorf("clean run reported churn: %+v", s)
			}
			if s.Cells != 18 || s.Units != 9 {
				t.Errorf("clean run: %d cells in %d units, want 18 in 9", s.Cells, s.Units)
			}
		}},
		// Every unit holds two cells, so After: 1 fires inside worker 0's
		// first unit however the others race it through the queue: a
		// larger After lets worker 0 finish before its fault is due.
		{name: "crash", workers: 3, faults: map[int]Fault{0: {Kind: FaultCrash, After: 1}},
			check: func(t *testing.T, s *Stats) {
				if s.WorkersLost == 0 {
					t.Error("crashed worker not counted as lost")
				}
			}},
		{name: "hang", workers: 3, faults: map[int]Fault{0: {Kind: FaultHang, After: 1}}},
		{name: "corrupt-frame", workers: 3, faults: map[int]Fault{0: {Kind: FaultCorrupt, After: 1}},
			check: func(t *testing.T, s *Stats) {
				if s.WorkersLost == 0 {
					t.Error("corrupting worker not dismissed")
				}
			}},
		{name: "duplicate-delivery", workers: 3, faults: map[int]Fault{1: {Kind: FaultDup, After: 1}},
			check: func(t *testing.T, s *Stats) {
				if s.Duplicates == 0 {
					t.Error("duplicate delivery not observed")
				}
			}},
		{name: "straggler", workers: 3, faults: map[int]Fault{0: {Kind: FaultSlow, Delay: 400 * time.Millisecond}}},
		{name: "two-faults", workers: 3, faults: map[int]Fault{
			0: {Kind: FaultCrash, After: 1},
			1: {Kind: FaultDup, After: 0},
		}},
		{name: "total-fleet-loss", workers: 3, faults: map[int]Fault{
			0: {Kind: FaultCrash, After: 0},
			1: {Kind: FaultCrash, After: 0},
			2: {Kind: FaultCrash, After: 0},
		}, check: func(t *testing.T, s *Stats) {
			if s.WorkersLost != 3 {
				t.Errorf("lost %d workers, want 3", s.WorkersLost)
			}
			if s.LocalUnits == 0 {
				t.Error("no units fell back to local execution")
			}
		}},
		{name: "zero-workers", workers: 0, check: func(t *testing.T, s *Stats) {
			if s.LocalUnits != s.Units {
				t.Errorf("%d of %d units ran locally, want all", s.LocalUnits, s.Units)
			}
		}},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fleet := pipeFleet(c.workers, c.faults)
			cfg := testConfig(matrices)
			if testing.Verbose() {
				cfg.Logf = t.Logf
			}
			reports, stats, err := Run(cfg, fleet)
			if err != nil {
				t.Fatalf("dispatch failed: %v (stats %+v)", err, stats)
			}
			got, err := sweep.SuiteJSON(reports)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("dispatched suite differs from unsharded run (stats %+v)", stats)
			}
			if c.check != nil {
				c.check(t, stats)
			}
		})
	}
}

// TestDispatchDismissesStrayCell: a worker that sends a cell index its
// unit does not own is dismissed on that frame and its unit re-run by
// a peer; the stray cell never counts toward the unit's coverage, so
// the merged suite still equals the unsharded run.
func TestDispatchDismissesStrayCell(t *testing.T) {
	matrices := testSuite()
	want := baselineSuite(t, matrices)

	host, worker := net.Pipe()
	go func() {
		defer worker.Close()
		for {
			m, err := ReadFrame(worker)
			if err != nil {
				return
			}
			if m.Kind != KindUnit {
				continue
			}
			// Every unit's shard count is above 1, so the next shard's
			// first index is never this unit's.
			stray := sweep.CellResult{Index: m.Unit.Shard.Index + 1, Verdict: sweep.Pass}
			for _, f := range []*Msg{
				{Kind: KindCell, Worker: "stray", UnitID: m.Unit.ID, Cell: &stray},
				{Kind: KindDone, Worker: "stray", UnitID: m.Unit.ID},
			} {
				if WriteFrame(worker, f) != nil {
					return
				}
			}
		}
	}()
	fleet := append(pipeFleet(1, nil), Transport{Name: "stray", RW: host, Kill: func() { worker.Close() }})

	var logs []string
	cfg := testConfig(matrices)
	cfg.Logf = func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
	reports, stats, err := Run(cfg, fleet)
	if err != nil {
		t.Fatalf("dispatch failed: %v (stats %+v)", err, stats)
	}
	got, err := sweep.SuiteJSON(reports)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("dispatched suite differs from unsharded run (stats %+v)", stats)
	}
	if stats.WorkersLost != 1 {
		t.Errorf("lost %d workers, want the stray sender only", stats.WorkersLost)
	}
	dismissed := false
	for _, l := range logs {
		dismissed = dismissed || strings.Contains(l, "dismissing w1:stray: cell") && strings.Contains(l, "is not owned by")
	}
	if !dismissed {
		t.Errorf("stray sender not dismissed for its stray cell; log:\n%s", strings.Join(logs, "\n"))
	}
}

// TestDispatchNoFallbackFails: with the fleet gone and local fallback
// disabled, the run fails loudly instead of silently shrinking.
func TestDispatchNoFallbackFails(t *testing.T) {
	matrices := testSuite()
	fleet := pipeFleet(2, map[int]Fault{
		0: {Kind: FaultCrash, After: 0},
		1: {Kind: FaultCrash, After: 0},
	})
	cfg := testConfig(matrices)
	cfg.LocalFallback = false
	_, _, err := Run(cfg, fleet)
	if err == nil {
		t.Fatal("fleet loss without fallback did not fail the run")
	}
	if !strings.Contains(err.Error(), "workers lost") && !strings.Contains(err.Error(), "local fallback") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestDispatchRejectsBadSuites: duplicate matrix names and invalid
// matrices are rejected up front.
func TestDispatchRejectsBadSuites(t *testing.T) {
	m := testSuite()[0]
	if _, _, err := Run(Config{Matrices: []sweep.Matrix{m, m}}, nil); err == nil || !strings.Contains(err.Error(), "duplicate matrix name") {
		t.Errorf("duplicate names: err=%v", err)
	}

	bad := m
	bad.Name = "bad"
	bad.Seeds = nil // Cells() rejects seedless matrices
	if _, _, err := Run(Config{Matrices: []sweep.Matrix{bad}}, nil); err == nil {
		t.Error("invalid matrix accepted")
	}
}

// TestDispatchHeldMatrix: a matrix with explicit pattern holds crosses
// the wire with its hold sets intact, so the dispatched report equals
// the unsharded one.
func TestDispatchHeldMatrix(t *testing.T) {
	matrices := []sweep.Matrix{heldMatrix()}
	want := baselineSuite(t, matrices)
	reports, stats, err := Run(testConfig(matrices), pipeFleet(2, nil))
	if err != nil {
		t.Fatalf("dispatch failed: %v (stats %+v)", err, stats)
	}
	if stats.LocalUnits != 0 {
		t.Fatalf("%d units ran locally; the held matrix must run on the workers", stats.LocalUnits)
	}
	got, err := sweep.SuiteJSON(reports)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("dispatched held matrix differs from the unsharded run")
	}
}

// TestDispatchSubprocessWorkers runs the suite through real stdio
// subprocess workers (this test binary re-exec'd via TestMain), one of
// them crashing mid-run — the cmd/sweepd topology in miniature. Worker 0
// crashes on the second cell of its first unit: the dispatcher assigns
// every worker one two-cell unit as it starts, so the crash fires however
// fast the others drain the rest of the suite. A later trigger would
// need a second unit, which fast peers can leave worker 0 without.
func TestDispatchSubprocessWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fleet in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	matrices := testSuite()
	want := baselineSuite(t, matrices)

	var fleet []Transport
	for i := 0; i < 3; i++ {
		cmd := exec.Command(exe)
		cmd.Stderr = os.Stderr
		cmd.Env = append(os.Environ(),
			"DISPATCH_TEST_WORKER=1",
			fmt.Sprintf("DISPATCH_TEST_NAME=sub%d", i),
		)
		if i == 0 {
			cmd.Env = append(cmd.Env, "DISPATCH_TEST_FAULT=crash@1")
		}
		tr, err := SpawnWorker(fmt.Sprintf("sub%d", i), cmd)
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, tr)
	}

	cfg := testConfig(matrices)
	if testing.Verbose() {
		cfg.Logf = t.Logf
	}
	reports, stats, err := Run(cfg, fleet)
	if err != nil {
		t.Fatalf("dispatch failed: %v (stats %+v)", err, stats)
	}
	got, err := sweep.SuiteJSON(reports)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("subprocess-dispatched suite differs from unsharded run (stats %+v)", stats)
	}
	if stats.WorkersLost == 0 {
		t.Errorf("injected subprocess crash not observed: %+v", stats)
	}
}
