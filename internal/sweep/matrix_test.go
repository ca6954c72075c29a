package sweep

import (
	"strings"
	"testing"

	"fdgrid/internal/core"
	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
	"fdgrid/internal/trace"
)

// expansionCase is one row of TestMatrixExpansion: an edit of
// expansionBase, and the cell count and cells its expansion must give.
type expansionCase struct {
	name   string
	mutate func(*Matrix)
	cells  int
	check  func(t *testing.T, cells []Cell)
}

// expansionBase is the matrix expansionCases edit.
func expansionBase() Matrix {
	return Matrix{
		Name: "m", Protocol: "p",
		Seeds: []int64{0, 1}, Sizes: []Size{{N: 5, T: 2}},
		MaxSteps: 1000,
	}
}

// expansionCases are TestMatrixExpansion's rows.
var expansionCases = []expansionCase{
	{
		name:   "defaulted pattern and combo dimensions",
		mutate: func(*Matrix) {},
		cells:  2,
		check: func(t *testing.T, cells []Cell) {
			if cells[0].Pattern.Name != "none" {
				t.Errorf("default pattern name %q", cells[0].Pattern.Name)
			}
			if cells[0].Seed != 0 || cells[1].Seed != 1 {
				t.Errorf("seed order: %d, %d", cells[0].Seed, cells[1].Seed)
			}
		},
	},
	{
		name: "full cross product, seeds innermost",
		mutate: func(m *Matrix) {
			m.Sizes = []Size{{N: 4, T: 1}, {N: 6, T: 2}}
			m.Patterns = []CrashPattern{{Name: "a"}, {Name: "b"}, {Name: "c"}}
			m.Combos = []Combo{{X: 1}, {X: 2}}
		},
		cells: 2 * 3 * 2 * 2,
		check: func(t *testing.T, cells []Cell) {
			// sizes × patterns × combos × seeds, seeds innermost.
			if cells[0].Seed != 0 || cells[1].Seed != 1 {
				t.Error("seeds are not the innermost dimension")
			}
			if cells[0].Combo.X != 1 || cells[2].Combo.X != 2 {
				t.Error("combos are not the second-innermost dimension")
			}
			if cells[0].Pattern.Name != "a" || cells[4].Pattern.Name != "b" {
				t.Error("patterns do not vary above combos")
			}
			if cells[0].Size.N != 4 || cells[12].Size.N != 6 {
				t.Error("sizes are not the outermost dimension")
			}
			for i, c := range cells {
				if c.Index != i {
					t.Fatalf("cell %d has index %d", i, c.Index)
				}
			}
		},
	},
	{
		name: "relative crash specs resolve against each size",
		mutate: func(m *Matrix) {
			m.Sizes = []Size{{N: 4, T: 1}, {N: 7, T: 3}}
			m.Seeds = []int64{3}
			m.Patterns = []CrashPattern{{Name: "last-and-secondlast",
				Crashes: []CrashSpec{{Proc: 0, At: 100}}}}
		},
		cells: 2,
		check: func(t *testing.T, cells []Cell) {
			cfg0, err := cells[0].Config()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := cfg0.Crashes[ids.ProcID(4)]; !ok {
				t.Errorf("n=4: Proc 0 should resolve to p4, got %v", cfg0.Crashes)
			}
			cfg1, _ := cells[1].Config()
			if _, ok := cfg1.Crashes[ids.ProcID(7)]; !ok {
				t.Errorf("n=7: Proc 0 should resolve to p7, got %v", cfg1.Crashes)
			}
		},
	},
	{
		name: "holds pass through to the config",
		mutate: func(m *Matrix) {
			m.Seeds = []int64{0}
			m.Patterns = []CrashPattern{{Name: "held", Holds: []sim.Hold{
				{From: ids.NewSet(1), To: ids.NewSet(2), Until: 400}}}}
		},
		cells: 1,
		check: func(t *testing.T, cells []Cell) {
			cfg, err := cells[0].Config()
			if err != nil {
				t.Fatal(err)
			}
			if len(cfg.Holds) != 1 || cfg.Holds[0].Until != 400 {
				t.Errorf("holds not propagated: %+v", cfg.Holds)
			}
		},
	},
	{
		name: "bandwidth 0 becomes n",
		mutate: func(m *Matrix) {
			m.Seeds = []int64{0}
		},
		cells: 1,
		check: func(t *testing.T, cells []Cell) {
			cfg, _ := cells[0].Config()
			if cfg.Bandwidth != 5 {
				t.Errorf("bandwidth = %d, want n=5", cfg.Bandwidth)
			}
		},
	},
}

// TestMatrixExpansion is the table-driven conformance suite for Cells():
// cell counts, cross-product order, defaulted dimensions, and the
// relative crash-spec / hold encodings.
func TestMatrixExpansion(t *testing.T) {
	for _, tc := range expansionCases {
		t.Run(tc.name, func(t *testing.T) {
			m := expansionBase()
			tc.mutate(&m)
			cells, err := m.Cells()
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) != tc.cells {
				t.Fatalf("got %d cells, want %d", len(cells), tc.cells)
			}
			tc.check(t, cells)
		})
	}
}

// expansionErrors are TestMatrixExpansionErrors' rows: an edit of
// stubMatrix that makes it invalid, and what the error must mention.
var expansionErrors = []struct {
	name   string
	mutate func(*Matrix)
	want   string
}{
	{"no protocol", func(m *Matrix) { m.Protocol = "" }, "no protocol"},
	{"no seeds", func(m *Matrix) { m.Seeds = nil }, "no seeds"},
	{"no sizes", func(m *Matrix) { m.Sizes = nil }, "no sizes"},
	{"no budget", func(m *Matrix) { m.MaxSteps = 0 }, "MaxSteps"},
	{"crash outside size", func(m *Matrix) {
		m.Patterns = []CrashPattern{{Name: "bad", Crashes: []CrashSpec{{Proc: 9, At: 1}}}}
	}, "outside"},
	{"relative crash underflows", func(m *Matrix) {
		m.Patterns = []CrashPattern{{Name: "bad", Crashes: []CrashSpec{{Proc: -5, At: 1}}}}
	}, "outside"},
	{"duplicate crash", func(m *Matrix) {
		m.Sizes = []Size{{N: 5, T: 2}}
		m.Patterns = []CrashPattern{{Name: "dup",
			Crashes: []CrashSpec{{Proc: 5, At: 1}, {Proc: 0, At: 2}}}}
	}, "twice"},
}

// TestMatrixExpansionErrors: invalid matrices are rejected at expansion,
// not at run time in a worker.
func TestMatrixExpansionErrors(t *testing.T) {
	for _, tc := range expansionErrors {
		t.Run(tc.name, func(t *testing.T) {
			m := stubMatrix()
			tc.mutate(&m)
			if _, err := m.Cells(); err == nil {
				t.Fatal("expansion accepted an invalid matrix")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestComboString: labels used for grouping are stable and distinct.
func TestComboString(t *testing.T) {
	cases := []struct {
		combo Combo
		want  string
	}{
		{Combo{Name: "abd", X: 2}, "abd"},
		{Combo{Family: core.FamOmega, Param: 2}, "Omega_2"},
		{Combo{X: 1, Y: 2, Z: 3}, "x=1,y=2,z=3"},
	}
	for _, tc := range cases {
		if got := tc.combo.String(); got != tc.want {
			t.Errorf("Combo%+v.String() = %q, want %q", tc.combo, got, tc.want)
		}
	}
}

// refusedMatrices are stubMatrix with an unknown protocol, and on
// consensus-ds with a param key it does not declare.
func refusedMatrices() (unknown, misspelled Matrix) {
	unknown, misspelled = stubMatrix(), stubMatrix()
	unknown.Protocol = "no-such-protocol"
	misspelled.Protocol = "consensus-ds"
	misspelled.Params = map[string]int64{"stab_0": 9}
	return unknown, misspelled
}

// TestRunUnknownProtocol: Run and Replay refuse a matrix naming an
// unregistered protocol, with the available names, and one setting a
// param its protocol does not declare, with the key and the declared
// ones: both go through Lookup, so they fail with the same message.
func TestRunUnknownProtocol(t *testing.T) {
	unknown, misspelled := refusedMatrices()
	for _, tc := range []struct {
		m    Matrix
		want string
	}{
		{unknown, `no protocol "no-such-protocol" (have [add-s consensus-ds`},
		{misspelled, `protocol "consensus-ds" declares no param "stab_0" (its params: [])`},
	} {
		_, runErr := Run(tc.m, Options{})
		_, replayErr := Replay(tc.m, 0, nil, trace.Decisions)
		if runErr == nil || !strings.Contains(runErr.Error(), tc.want) {
			t.Errorf("Run error %v, want one containing %q", runErr, tc.want)
		}
		if replayErr == nil || runErr == nil || replayErr.Error() != runErr.Error() {
			t.Errorf("Replay error %v, want Run's %v", replayErr, runErr)
		}
	}
}
