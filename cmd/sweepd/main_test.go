package main

import (
	"encoding/json"
	"os"
	"os/exec"
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
		{write("trailing.json", `[{"name":"m","protocol":"kset-omega","seeds":[0],"sizes":[{"n":5,"t":2}]}] x`), "trailing data"},
		{write("two.json", `[{"name":"m","protocol":"kset-omega","seeds":[0],"sizes":[{"n":5,"t":2}]}][]`), "trailing data"},
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

// TestLoadMatricesStrict: the suite's own -matrices export loads at the
// suite's seed count (3) and the paper benchmark's (12), and one
// exported matrix with a misspelled field ("gts" for "gst") or a stray
// one ("bandwith") is refused instead of running as the unedited matrix.
func TestLoadMatricesStrict(t *testing.T) {
	dir := t.TempDir()
	exe := filepath.Join(dir, "experiments")
	if out, err := exec.Command("go", "build", "-o", exe, "../experiments").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/experiments: %v\n%s", err, out)
	}
	for _, seeds := range []string{"3", "12"} {
		p := filepath.Join(dir, "suite-"+seeds+".json")
		if out, err := exec.Command(exe, "-seeds", seeds, "-matrices", p).CombinedOutput(); err != nil {
			t.Fatalf("experiments -seeds %s -matrices: %v\n%s", seeds, err, out)
		}
		ms, err := loadMatrices(p)
		if err != nil {
			t.Fatalf("suite export at %s seeds: %v", seeds, err)
		}
		if len(ms) != 28 {
			t.Errorf("suite export at %s seeds: %d matrices, want 28", seeds, len(ms))
		}
	}

	// F2-additivity: the export's second matrix, with gst and bandwidth set.
	blob, err := os.ReadFile(filepath.Join(dir, "suite-3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var exported []json.RawMessage
	if err := json.Unmarshal(blob, &exported); err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(exported[1], &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["gst"]; !ok {
		t.Fatalf("exported matrix has no gst field: %s", exported[1])
	}
	edit := func(name string, change func(map[string]json.RawMessage)) string {
		m := map[string]json.RawMessage{}
		for k, v := range fields {
			m[k] = v
		}
		change(m)
		blob, err := json.Marshal([]map[string]json.RawMessage{m})
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := loadMatrices(edit("same.json", func(map[string]json.RawMessage) {})); err != nil {
		t.Fatalf("unedited matrix refused: %v", err)
	}
	for _, c := range []struct {
		name, field string
		change      func(map[string]json.RawMessage)
	}{
		{"gts.json", "gts", func(m map[string]json.RawMessage) { m["gts"] = m["gst"]; delete(m, "gst") }},
		{"bandwith.json", "bandwith", func(m map[string]json.RawMessage) { m["bandwith"] = json.RawMessage("10") }},
	} {
		_, err := loadMatrices(edit(c.name, c.change))
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+c.field+`"`) {
			t.Errorf("matrix with field %q: error %v, want an unknown-field error", c.field, err)
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

// tinySpec writes a one-matrix, one-cell suite spec.
func tinySpec(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "one.json")
	body := `[{"name":"one","protocol":"kset-omega","seeds":[0],"sizes":[{"n":5,"t":2}],"combos":[{"z":2}],"gst":400,"max_steps":500000}]`
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDispatcherRejectsFaultPastFleet: a -fault entry naming a worker
// the run never spawns arms nothing, so it is refused up front rather
// than reported as a clean fault-free run.
func TestDispatcherRejectsFaultPastFleet(t *testing.T) {
	spec := tinySpec(t)
	for _, c := range []struct {
		workers int
		faults  string
	}{
		{1, "4:crash@1"},
		{0, "0:crash@1"},
		{3, "0:crash@5;3:hang@1"},
	} {
		err := runDispatcher(dispatcherFlags{matricesF: spec, workersN: c.workers, faults: c.faults, units: 1})
		if err == nil || !strings.Contains(err.Error(), "no such worker") {
			t.Errorf("-workers %d -fault %q: err=%v, want a no-such-worker error", c.workers, c.faults, err)
		}
	}
}

// TestDispatcherReportsStatsWriteError: an unwritable -stats path fails
// the run instead of exiting 0 with no artifact.
func TestDispatcherReportsStatsWriteError(t *testing.T) {
	spec, dir := tinySpec(t), t.TempDir()
	ok := filepath.Join(dir, "stats.json")
	if err := runDispatcher(dispatcherFlags{matricesF: spec, units: 1, fallback: true, statsF: ok}); err != nil {
		t.Fatalf("writable -stats path: %v", err)
	}
	if _, err := os.Stat(ok); err != nil {
		t.Fatalf("stats artifact not written: %v", err)
	}
	stats := filepath.Join(dir, "missing-dir", "stats.json")
	err := runDispatcher(dispatcherFlags{matricesF: spec, units: 1, fallback: true, statsF: stats})
	if err == nil {
		t.Fatal("unwritable -stats path accepted")
	}
	if !strings.Contains(err.Error(), "missing-dir") {
		t.Errorf("error does not name the stats path: %v", err)
	}
}
