package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
	"fdgrid/internal/sweep"
)

func TestLoadMatrices(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	good := write("good.json", `[{"name":"m","protocol":"kset-omega","seeds":[0],"sizes":[{"n":5,"t":2}]}]`)
	ms, err := loadMatrices(good)
	if err != nil || len(ms) != 1 || ms[0].Name != "m" || ms[0].Protocol != "kset-omega" {
		t.Fatalf("good spec: %+v %v", ms, err)
	}

	cases := []struct {
		path string
		want string // substring of the error
	}{
		{"", "-matrices is required"},
		{filepath.Join(dir, "missing.json"), "no such file"},
		{write("bad.json", `{"not":"an array"}`), "JSON array"},
		{write("empty.json", `[]`), "no matrices"},
	}
	for _, c := range cases {
		_, err := loadMatrices(c.path)
		if err == nil {
			t.Errorf("loadMatrices(%q) accepted", c.path)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("loadMatrices(%q) error %q does not mention %q", c.path, err, c.want)
		}
	}
}

// TestMatrixSpecRoundTrip pins the contract between `experiments
// -matrices` and sweepd: a Matrix survives the JSON spec file with its
// schedulable content intact.
func TestMatrixSpecRoundTrip(t *testing.T) {
	m := sweep.Matrix{
		Name: "rt", Protocol: "kset-omega",
		Seeds: []int64{0, 1}, Sizes: []sweep.Size{{N: 5, T: 2}},
		Patterns: []sweep.CrashPattern{
			{Name: "late", Crashes: []sweep.CrashSpec{{Proc: 0, At: 450}}},
			// Hold sets cross the spec file as id lists; before sets had
			// JSON methods they decoded empty and the hold vanished.
			{Name: "held", Holds: []sim.Hold{{From: ids.NewSet(5), To: ids.NewSet(1, 2, 3, 4), Until: 1_500}}},
		},
		Combos: []sweep.Combo{{Z: 2}},
		GST:    400, MaxSteps: 500_000,
	}
	dir := t.TempDir()
	p := filepath.Join(dir, "spec.json")
	blob := `[` + mustJSON(t, m) + `]`
	if err := os.WriteFile(p, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	ms, err := loadMatrices(p)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := ms[0].Cells()
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(want) {
		t.Fatalf("round-tripped matrix expands to %d cells, want %d", len(cells), len(want))
	}
	if !reflect.DeepEqual(cells, want) {
		t.Errorf("round-tripped matrix expands to different cells:\n%+v\nwant\n%+v", cells, want)
	}
}

func mustJSON(t *testing.T, m sweep.Matrix) string {
	t.Helper()
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}
