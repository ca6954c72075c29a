package sweep

import (
	"strings"
	"testing"
)

// regionMatrix is one Theorem 9 cell per region E at n = 5, t = 2,
// y = 1, where φ_1 is informative on regions of t−y < |E| ≤ t
// processes: ∅ and {5} are too small, {3,4,5} too large, and {4,5},
// the suite's T9 region, fits.
func regionMatrix() Matrix {
	var combos []Combo
	for _, region := range [][]int{nil, {5}, {3, 4, 5}, {4, 5}} {
		combos = append(combos, Combo{X: 3, Y: 1, Region: region})
	}
	return Matrix{
		Name: "irreducibility-regions", Protocol: "irreducibility",
		Seeds: []int64{0}, Sizes: []Size{{N: 5, T: 2}}, Combos: combos,
		MaxSteps: 2_500, Bandwidth: 1,
		Params: map[string]int64{"tau": 500, "crash_at": 100, "slack": 2_000},
	}
}

// TestIrreducibilityRegionBounds: a Theorem 9 cell whose region E is
// outside t−y < |E| ≤ t is a config error naming the bound it breaks,
// not a vacuous pass (|E| ≤ t−y) or a panic of the crash schedule
// (|E| > t); the informative region passes.
func TestIrreducibilityRegionBounds(t *testing.T) {
	r, err := Run(regionMatrix(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ verdict, detail string }{
		{ConfigError, "region E={} has 0 ≤ t−y = 1 processes"},
		{ConfigError, "region E={5} has 1 ≤ t−y = 1 processes"},
		{ConfigError, "region E={3,4,5} has 3 > t = 2 processes"},
		{Pass, ""},
	}
	if len(r.Cells) != len(want) {
		t.Fatalf("%d cells, want %d", len(r.Cells), len(want))
	}
	for i, w := range want {
		c := r.Cells[i]
		if c.Verdict != w.verdict || !strings.Contains(c.Detail, w.detail) || (w.detail == "") != (c.Detail == "") {
			t.Errorf("region %v: verdict %s (%q), want %s (%q)", c.Combo.Region, c.Verdict, c.Detail, w.verdict, w.detail)
		}
	}
}
