package sweep

import (
	"bytes"
	"fmt"
	"testing"

	"fdgrid/internal/sim"
)

// smokeMatrix is a small but real workload: the two-wheels addition over
// two class combos, two seeds, with an early-stop predicate — it
// exercises the simulator's wake hints, clock jumps, sparse tracing and
// the trace checkers.
func smokeMatrix() Matrix {
	return Matrix{
		Name: "smoke", Protocol: "two-wheels",
		Seeds: []int64{0, 1}, Sizes: []Size{{N: 5, T: 2}},
		Patterns: []CrashPattern{{Name: "late-crash", Crashes: []CrashSpec{{Proc: 4, At: 700}}}},
		Combos:   []Combo{{X: 2, Y: 1}, {X: 1, Y: 1}},
		GST:      500, MaxSteps: 100_000,
		Params: map[string]int64{"stable_for": 8_000, "margin": 5_000},
	}
}

// TestDeterministicReport is the regression guard for the scheduler
// refactor: running the same Matrix twice — with different worker counts
// — must produce byte-identical canonical reports. Any nondeterminism in
// the lockstep engine (delivery order, proc interleaving, map iteration
// in a protocol) shows up here.
func TestDeterministicReport(t *testing.T) {
	m := smokeMatrix()
	r1, err := Run(m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(m, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.OK() {
		for _, c := range r1.Cells {
			t.Logf("cell %d: %s %s", c.Index, c.Verdict, c.Detail)
		}
		t.Fatal("smoke matrix failed")
	}
	j1, err := r1.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := r2.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("reports differ between runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", j1, j2)
	}
}

// ksetSmokeMatrix is a small kset-omega workload, with a late crash of
// the last process.
func ksetSmokeMatrix() Matrix {
	return Matrix{
		Name: "kset-smoke", Protocol: "kset-omega",
		Seeds: []int64{0, 1, 2}, Sizes: []Size{{N: 5, T: 2}},
		Patterns: []CrashPattern{{Name: "late-crash", Crashes: []CrashSpec{{Proc: 0, At: 400}}}},
		Combos:   []Combo{{Z: 2}},
		GST:      300, MaxSteps: 500_000,
	}
}

// kset256Matrix is one kset-omega cell at n = 256.
func kset256Matrix() Matrix {
	m := ksetSmokeMatrix()
	m.Name, m.Seeds, m.Sizes, m.MaxSteps = "kset-smoke-256", []int64{0}, []Size{{N: 256, T: 127}}, 4_000_000
	return m
}

// TestDeterministicAgreement repeats the determinism check on an
// agreement workload (decided values, rounds and message counts are all
// part of the canonical bytes).
func TestDeterministicAgreement(t *testing.T) {
	m := ksetSmokeMatrix()
	r1, err := Run(m, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.OK() {
		t.Fatalf("kset smoke failed: %s", r1.Summary())
	}
	j1, _ := r1.CanonicalJSON()
	j2, _ := r2.CanonicalJSON()
	if !bytes.Equal(j1, j2) {
		t.Fatal("agreement reports differ between runs")
	}
}

// TestSmokeN256 runs one kset-omega cell at the simulator's size cap:
// n = 256 is a first-class size for the one-pass delivery loop, and this
// single-cell smoke keeps it exercised in every `go test` run (the big
// EXP-SCALE cells only run in the experiments suite).
func TestSmokeN256(t *testing.T) {
	m := kset256Matrix()
	r, err := Run(m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 1 {
		t.Fatalf("expected 1 cell, got %d", len(r.Cells))
	}
	if !r.OK() {
		t.Fatalf("n=256 smoke failed: %s", r.Summary())
	}
}

// TestResultsOrderedByIndex: the report lists cells in matrix order no
// matter which worker finished first.
func TestResultsOrderedByIndex(t *testing.T) {
	m := smokeMatrix()
	r, err := Run(m, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range r.Cells {
		if c.Index != i {
			t.Fatalf("cell at position %d has index %d", i, c.Index)
		}
	}
}

// TestPanickingCellIsContained: a protocol bug in one cell yields one
// errored cell, not a crashed sweep.
func TestPanickingCellIsContained(t *testing.T) {
	m := stubMatrix()
	r, err := Run(m, Options{Runner: func(c *Cell, res *CellResult) {
		if c.Seed == 1 {
			panic(fmt.Sprintf("bug in seed %d", c.Seed))
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Passed != 1 || r.Errored != 1 {
		t.Fatalf("passed=%d errored=%d, want 1/1", r.Passed, r.Errored)
	}
	if r.Cells[1].Verdict != Errored || r.Cells[1].Detail == "" {
		t.Fatalf("panicking cell reported as %+v", r.Cells[1])
	}
	if r.OK() {
		t.Fatal("report with an errored cell claims OK")
	}
}

// stubMatrix is a two-cell matrix of a protocol the table lacks ("p"),
// for tests that run it with their own runner or only expand it.
func stubMatrix() Matrix {
	return Matrix{Name: "stub", Protocol: "p", Seeds: []int64{0, 1},
		Sizes: []Size{{N: 3, T: 1}}, MaxSteps: 100}
}

// TestWallClockExcludedFromCanonicalBytes: WallNS varies run to run and
// must not leak into the canonical report.
func TestWallClockExcludedFromCanonicalBytes(t *testing.T) {
	m := smokeMatrix()
	r, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := r.CanonicalJSON()
	if bytes.Contains(j, []byte("wall")) || bytes.Contains(j, []byte("Wall")) {
		t.Fatal("canonical JSON mentions wall-clock fields")
	}
	if r.WallNS <= 0 {
		t.Fatal("report did not record wall-clock cost")
	}
	for _, c := range r.Cells {
		if c.WallNS <= 0 {
			t.Fatalf("cell %d did not record wall-clock cost", c.Index)
		}
	}
}

// TestSchedulerCountsExcludedFromCanonicalBytes: a cell records its
// runs' wakes and switches, and neither reaches the canonical report —
// the report renders to the same bytes with the counts set or zeroed.
func TestSchedulerCountsExcludedFromCanonicalBytes(t *testing.T) {
	r, err := Run(smokeMatrix(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	withCounts, err := r.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Wakes <= 0 || c.Switches <= 0 {
			t.Fatalf("cell %d recorded %d wakes and %d switches, want both positive", c.Index, c.Wakes, c.Switches)
		}
		c.Wakes, c.Switches = 0, 0
	}
	without, err := r.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(withCounts, without) {
		t.Error("canonical JSON changes with the cells' wake and switch counts")
	}
}

// TestPoolLendsWorkerBuffers: a pool worker lends one sim.Buffers to
// every cell it runs, so capacity a cell grows carries over to the
// next; two workers never share one.
func TestPoolLendsWorkerBuffers(t *testing.T) {
	m := smokeMatrix()
	cells, err := m.Cells()
	if err != nil {
		t.Fatal(err)
	}
	n := len(cells)
	for _, workers := range []int{1, 2} {
		seen := make([]*sim.Buffers, n)
		_, err := Run(m, Options{Workers: workers, Runner: func(c *Cell, res *CellResult) {
			seen[c.Index] = c.buf
		}})
		if err != nil {
			t.Fatal(err)
		}
		distinct := map[*sim.Buffers]bool{}
		for i, b := range seen {
			if b == nil {
				t.Fatalf("workers=%d: cell %d ran without the worker's buffers", workers, i)
			}
			distinct[b] = true
		}
		if len(distinct) > workers || (workers == 1 && len(distinct) != 1) {
			t.Errorf("workers=%d: cells saw %d distinct Buffers", workers, len(distinct))
		}
	}
}
