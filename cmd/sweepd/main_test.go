package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
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

// exportSuite builds cmd/experiments into dir and returns the path of
// its -matrices export of the suite at the given seed count.
func exportSuite(tb testing.TB, dir, seeds string) string {
	tb.Helper()
	exe := filepath.Join(dir, "experiments")
	if _, err := os.Stat(exe); err != nil {
		if out, err := exec.Command("go", "build", "-o", exe, "../experiments").CombinedOutput(); err != nil {
			tb.Fatalf("building cmd/experiments: %v\n%s", err, out)
		}
	}
	p := filepath.Join(dir, "suite-"+seeds+".json")
	if out, err := exec.Command(exe, "-seeds", seeds, "-matrices", p).CombinedOutput(); err != nil {
		tb.Fatalf("experiments -seeds %s -matrices: %v\n%s", seeds, err, out)
	}
	return p
}

// goldenSpec returns the matrices of the committed suite golden as a
// suite spec: the suite's -matrices export at its own 3 seeds, as
// TestLoadMatricesStrict checks, read without building cmd/experiments.
func goldenSpec(tb testing.TB) []byte {
	tb.Helper()
	blob, err := os.ReadFile("../experiments/testdata/suite.golden.json")
	if err != nil {
		tb.Fatal(err)
	}
	var reports []struct {
		Matrix json.RawMessage `json:"matrix"`
	}
	if err := json.Unmarshal(blob, &reports); err != nil {
		tb.Fatal(err)
	}
	matrices := make([]json.RawMessage, len(reports))
	for i, r := range reports {
		matrices[i] = r.Matrix
	}
	spec, err := json.Marshal(matrices)
	if err != nil {
		tb.Fatal(err)
	}
	return spec
}

// matrixEdits returns one-matrix specs cut from a suite export: its
// second matrix (F2-additivity, which sets gst, bandwidth and params)
// as exported, and with each of the edits a hand-written spec may
// carry: "gst" misspelled "gts", a stray "bandwith", an unknown param
// key "stab_0", and the protocol misspelled "two-wheel".
func matrixEdits(tb testing.TB, export []byte) map[string][]byte {
	tb.Helper()
	var exported []json.RawMessage
	if err := json.Unmarshal(export, &exported); err != nil {
		tb.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(exported[1], &fields); err != nil {
		tb.Fatal(err)
	}
	if _, ok := fields["gst"]; !ok {
		tb.Fatalf("exported matrix has no gst field: %s", exported[1])
	}
	edits := map[string]func(map[string]json.RawMessage){
		"same":     func(map[string]json.RawMessage) {},
		"gts":      func(m map[string]json.RawMessage) { m["gts"] = m["gst"]; delete(m, "gst") },
		"bandwith": func(m map[string]json.RawMessage) { m["bandwith"] = json.RawMessage("10") },
		"stab_0": func(m map[string]json.RawMessage) {
			m["params"] = json.RawMessage(strings.Replace(string(m["params"]), "{", `{"stab_0":9,`, 1))
		},
		"two-wheel": func(m map[string]json.RawMessage) { m["protocol"] = json.RawMessage(`"two-wheel"`) },
	}
	specs := map[string][]byte{}
	for name, edit := range edits {
		m := maps.Clone(fields)
		edit(m)
		blob, err := json.Marshal([]map[string]json.RawMessage{m})
		if err != nil {
			tb.Fatal(err)
		}
		specs[name] = blob
	}
	return specs
}

// TestLoadMatricesStrict: the suite's own -matrices export loads at the
// suite's seed count (3) and the paper benchmark's (12), and one
// exported matrix with a misspelled field ("gts" for "gst"), a stray
// one ("bandwith"), a param key its protocol does not declare ("stab_0"
// for "stab0") or an unknown protocol ("two-wheel") is refused instead
// of running as the unedited matrix or reaching the workers. Params
// were a free map, which ran "stab_0" silently on the default; now each
// protocol declares its keys and sweep.Lookup checks them. The export
// at 3 seeds holds the suite golden's matrices, which FuzzMatrixJSON
// seeds from.
func TestLoadMatricesStrict(t *testing.T) {
	dir := t.TempDir()
	for _, seeds := range []string{"3", "12"} {
		ms, err := loadMatrices(exportSuite(t, dir, seeds))
		if err != nil {
			t.Fatalf("suite export at %s seeds: %v", seeds, err)
		}
		if len(ms) != 28 {
			t.Errorf("suite export at %s seeds: %d matrices, want 28", seeds, len(ms))
		}
		if seeds != "3" {
			continue
		}
		golden, err := decodeMatrices(goldenSpec(t))
		if err != nil {
			t.Fatalf("suite golden's matrices: %v", err)
		}
		if !reflect.DeepEqual(ms, golden) {
			t.Error("the suite export at 3 seeds differs from the suite golden's matrices")
		}
	}

	export, err := os.ReadFile(filepath.Join(dir, "suite-3.json"))
	if err != nil {
		t.Fatal(err)
	}
	specs := matrixEdits(t, export)
	if _, err := decodeMatrices(specs["same"]); err != nil {
		t.Errorf("unedited matrix refused: %v", err)
	}
	for edit, want := range map[string]string{
		"gts":       `unknown field "gts"`,
		"bandwith":  `unknown field "bandwith"`,
		"stab_0":    `protocol "two-wheels" declares no param "stab_0" (its params: [stable_for margin`,
		"two-wheel": `no protocol "two-wheel"`,
	} {
		_, err := decodeMatrices(specs[edit])
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("matrix edit %q: error %v, want one containing %q", edit, err, want)
		}
	}
}

// FuzzMatrixJSON: decoding a suite spec never panics, and a spec it
// accepts encodes to bytes that decode and re-encode to the same bytes
// (equal as encoded, since an empty list or map under omitempty comes
// back nil). Seeds are the suite's -matrices export (read from the
// suite golden, see goldenSpec), each of its matrices alone, and the
// hand edits of matrixEdits, all of which but the unedited one
// TestLoadMatricesStrict requires refused.
func FuzzMatrixJSON(f *testing.F) {
	export := goldenSpec(f)
	f.Add(export)
	var exported []json.RawMessage
	if err := json.Unmarshal(export, &exported); err != nil {
		f.Fatal(err)
	}
	for _, m := range exported {
		f.Add([]byte("[" + string(m) + "]"))
	}
	specs := matrixEdits(f, export)
	for _, name := range slices.Sorted(maps.Keys(specs)) {
		f.Add(specs[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ms, err := decodeMatrices(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(ms)
		if err != nil {
			t.Fatalf("decoded %+v, which does not encode: %v", ms, err)
		}
		back, err := decodeMatrices(enc)
		if err != nil {
			t.Fatalf("encoded spec %s does not decode: %v", enc, err)
		}
		if again, err := json.Marshal(back); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("spec %s decodes to matrices that encode to %s (%v)", enc, again, err)
		}
	})
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

// TestDispatcherRefusesBadSpec: a spec naming an unknown protocol, or
// a param its protocol does not declare, fails the run before the
// fleet is spawned, not after every unit's retries.
func TestDispatcherRefusesBadSpec(t *testing.T) {
	for body, want := range map[string]string{
		`"protocol":"consensus-dss"`:                      `no protocol "consensus-dss"`,
		`"protocol":"consensus-ds","params":{"stab_0":9}`: `protocol "consensus-ds" declares no param "stab_0"`,
	} {
		p := filepath.Join(t.TempDir(), "bad.json")
		spec := `[{"name":"bad",` + body + `,"seeds":[0],"sizes":[{"n":5,"t":2}],"max_steps":400000}]`
		if err := os.WriteFile(p, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		err := runDispatcher(dispatcherFlags{matricesF: p, workersN: 2, units: 3})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("spec %s: err=%v, want one containing %q", spec, err, want)
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
