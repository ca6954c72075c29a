package main

import (
	"reflect"
	"testing"

	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/sweep"
)

// TestPsiOmegaHintedTraceMatchesDense proves the psi-omega runner's
// hinted sampling loses nothing: for every psi-omega cell of the suite
// (F8, SCALE-psi, ORACLE-psi-burst), and for F8 at 12 seeds, the trace
// sampled at the oracle chain's change ticks equals the one sampled on
// every tick — the same samples for every process and the same horizon.
// The Ω_z check reads nothing else, so it is exactly as strong as it was
// with dense sampling.
func TestPsiOmegaHintedTraceMatchesDense(t *testing.T) {
	var cells []sweep.Cell
	add := func(m sweep.Matrix) {
		cs, err := m.Cells()
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		cells = append(cells, cs...)
	}
	for _, m := range suiteMatrices(goldenSeeds) {
		if m.Protocol == "psi-omega" {
			add(m)
		}
	}
	for _, m := range suiteMatrices(12) {
		if m.Name == "F8-psi-omega" {
			add(m)
		}
	}
	if len(cells) != 63+36 {
		t.Fatalf("%d psi-omega cells, want the suite's 63 plus F8's 36 at 12 seeds", len(cells))
	}
	changes := 0
	for _, c := range cells {
		hinted, err := sweep.PsiOmegaTrace(c, fd.WatchLeader)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := sweep.PsiOmegaTrace(c, fd.WatchLeaderDense)
		if err != nil {
			t.Fatal(err)
		}
		if hinted.Horizon() != dense.Horizon() || dense.Horizon() != c.MaxSteps-1 {
			t.Errorf("%s cell %d: horizon %d hinted, %d dense, want MaxSteps−1 = %d",
				c.Matrix, c.Index, hinted.Horizon(), dense.Horizon(), c.MaxSteps-1)
		}
		for p := 1; p <= c.Size.N; p++ {
			id := ids.ProcID(p)
			hs, ds := hinted.Samples(id), dense.Samples(id)
			if !reflect.DeepEqual(hs, ds) {
				t.Errorf("%s cell %d: %v samples differ:\nhinted %v\ndense  %v", c.Matrix, c.Index, id, hs, ds)
				break
			}
			changes += len(ds)
		}
	}
	// Guard against a vacuous comparison: the anarchy before
	// stabilization must actually churn the outputs.
	if changes < 10*len(cells) {
		t.Errorf("only %d sampled changes over %d cells", changes, len(cells))
	}
}
