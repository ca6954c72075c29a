package sweep

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOwnedIndices pins the shard→cell-index mapping that Run selects
// a shard's cells by and the dispatcher checks deliveries against.
func TestOwnedIndices(t *testing.T) {
	cases := []struct {
		shard Shard
		total int
		want  []int
	}{
		{Shard{}, 3, []int{0, 1, 2}},
		{Shard{Index: 0, Count: 2}, 5, []int{0, 2, 4}},
		{Shard{Index: 1, Count: 2}, 5, []int{1, 3}},
		{Shard{Index: 2, Count: 4}, 2, nil},
		{Shard{Index: 1, Count: 3}, 0, nil},
	}
	for _, c := range cases {
		got := c.shard.OwnedIndices(c.total)
		if len(got) != len(c.want) {
			t.Errorf("OwnedIndices(%+v, %d) = %v, want %v", c.shard, c.total, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("OwnedIndices(%+v, %d) = %v, want %v", c.shard, c.total, got, c.want)
				break
			}
		}
	}
}

// splitSmoke runs the smoke matrix unsharded and as a two-way shard
// split. It returns the unsharded canonical bytes, the total cell
// count and the two shards' cells.
func splitSmoke(t *testing.T) (Matrix, []byte, int, []CellResult, []CellResult) {
	t.Helper()
	m := smokeMatrix()
	full, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(m, Options{Shard: Shard{Index: 0, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(m, Options{Shard: Shard{Index: 1, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return m, want, len(full.Cells), a.Cells, b.Cells
}

// scrambled concatenates the parts in reverse arrival order.
func scrambled(parts ...[]CellResult) []CellResult {
	var out []CellResult
	for i := len(parts) - 1; i >= 0; i-- {
		for j := len(parts[i]) - 1; j >= 0; j-- {
			out = append(out, parts[i][j])
		}
	}
	return out
}

// reportRejection is one set of cells NewReport must refuse, with a
// substring its error must contain besides the matrix name.
type reportRejection struct {
	name  string
	total int
	cells []CellResult
	want  string
}

func checkRejections(t *testing.T, m Matrix, cases []reportRejection) {
	t.Helper()
	for _, c := range cases {
		_, err := NewReport(m, c.total, c.cells)
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), m.Name) {
			t.Errorf("%s: error %v, want one naming %q and containing %q", c.name, err, m.Name, c.want)
		}
	}
}

// TestAssembleShardReport is the dispatcher's byte-identity foundation:
// the cells of a two-way shard split, joined with NewReport in
// scrambled arrival order, build the canonical bytes of the unsharded
// Run.
func TestAssembleShardReport(t *testing.T) {
	m, want, total, a, b := splitSmoke(t)
	rep, err := NewReport(m, total, scrambled(a, b))
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("built report differs from the unsharded run:\n--- built ---\n%s\n--- run ---\n%s", got, want)
	}
}

// TestAssembleShardReportRejects: a short cell set, a duplicate index
// and a stray index are errors naming the matrix, not silently wrong
// reports.
func TestAssembleShardReportRejects(t *testing.T) {
	m, _, total, a, b := splitSmoke(t)
	stray := append([]CellResult(nil), b...)
	stray[0].Index = total
	checkRejections(t, m, []reportRejection{
		{"short", total, scrambled(a, b[:len(b)-1]), "covers 3 of 4 cells"},
		{"duplicate", total, scrambled(a, b, a[:1]), "more than once"},
		{"stray", total, scrambled(a, stray), "outside the matrix"},
	})
}

// TestMergeRejectsOverlap: two parts covering the same cell index fail
// with an error that names the matrix and calls out the duplicate.
func TestMergeRejectsOverlap(t *testing.T) {
	m, _, total, a, b := splitSmoke(t)
	// Part b carries a cell part a already owns.
	overlap := append(append([]CellResult(nil), b...), a[0])
	checkRejections(t, m, []reportRejection{
		{"overlap", total, scrambled(a, overlap), "duplicate result"},
	})
}

// TestMergeRejectsGap: parts that skip a cell index fail with an error
// that names the missing cell, whether the gap is interior or the
// last cell.
func TestMergeRejectsGap(t *testing.T) {
	m, _, total, a, b := splitSmoke(t)
	checkRejections(t, m, []reportRejection{
		{"interior gap", total, scrambled(a, b[1:]), "cell 1 is missing"},
		{"missing last cell", total, scrambled(a, b[:len(b)-1]), "covers 3 of 4 cells"},
	})
}

// TestShardErrors: Run refuses a shard outside its count, and a report
// built from an incomplete shard family, from a wrong total or from
// nothing is an error.
func TestShardErrors(t *testing.T) {
	m, _, total, a, b := splitSmoke(t)
	if _, err := Run(m, Options{Shard: Shard{Index: 4, Count: 4}}); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if _, err := Run(m, Options{Shard: Shard{Index: -1, Count: 2}}); err == nil {
		t.Error("negative shard accepted")
	}
	checkRejections(t, m, []reportRejection{
		{"missing part", total, a, "is missing"},
		{"wrong total", total + 1, scrambled(a, b), "covers 4 of 5 cells"},
		{"nothing", total, nil, "covers 0 of 4 cells"},
	})
}

// TestOnResultStreamsEveryCell: the OnResult hook sees each completed
// cell exactly once, and the report is unaffected by the hook.
func TestOnResultStreamsEveryCell(t *testing.T) {
	m := smokeMatrix()
	var mu sync.Mutex
	seen := map[int]int{}
	r, err := Run(m, Options{Workers: 3, OnResult: func(c CellResult) {
		mu.Lock()
		seen[c.Index]++
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(r.Cells) {
		t.Fatalf("OnResult saw %d cells, report has %d", len(seen), len(r.Cells))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("cell %d streamed %d times", i, n)
		}
	}
	plain, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := plain.CanonicalJSON()
	got, _ := r.CanonicalJSON()
	if !bytes.Equal(got, want) {
		t.Fatal("OnResult changed the canonical report")
	}
}

// cancelMatrix is an eight-seed kset-omega sweep for cancellation.
func cancelMatrix() Matrix {
	return Matrix{
		Name: "cancel", Protocol: "kset-omega",
		Seeds: []int64{0, 1, 2, 3, 4, 5, 6, 7}, Sizes: []Size{{N: 5, T: 2}},
		Combos: []Combo{{Z: 2}},
		GST:    300, MaxSteps: 500_000,
	}
}

// TestRunCancellation: a context cancelled mid-run stops the pool,
// returns the completed cells as a consistent partial report alongside
// the context error, and leaks no worker goroutines.
func TestRunCancellation(t *testing.T) {
	m := cancelMatrix()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	var completedAtCancel atomic.Int64
	r, err := Run(m, Options{Workers: 2, Context: ctx, OnResult: func(CellResult) {
		if completedAtCancel.Add(1) == 1 {
			cancel() // cancel after the first cell lands
		}
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run returned err=%v, want context.Canceled", err)
	}
	if r == nil {
		t.Fatal("cancelled Run returned no partial report")
	}
	if len(r.Cells) == 0 || len(r.Cells) >= 8 {
		t.Fatalf("partial report has %d of 8 cells; want a strict, non-empty subset", len(r.Cells))
	}
	if got := r.Passed + r.Failed + r.Errored + r.ConfigErrors; got != len(r.Cells) {
		t.Fatalf("partial tallies cover %d cells, report has %d", got, len(r.Cells))
	}
	for i := 1; i < len(r.Cells); i++ {
		if r.Cells[i-1].Index >= r.Cells[i].Index {
			t.Fatal("partial cells not in ascending index order")
		}
	}

	// Worker-count assertion: Run joins its pool before returning, so
	// the goroutine count must settle back to the baseline (allow the
	// runtime a moment to retire exiting goroutines).
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked by cancelled Run: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A cancelled context refuses new work outright but still returns
	// the (empty) report shape.
	already, cancelled := context.WithCancel(context.Background())
	cancelled()
	r2, err := Run(m, Options{Context: already})
	if !errors.Is(err, context.Canceled) || r2 == nil || len(r2.Cells) != 0 {
		t.Fatalf("pre-cancelled Run: report=%+v err=%v", r2, err)
	}
}
