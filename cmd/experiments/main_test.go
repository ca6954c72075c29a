package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fdgrid/internal/sweep"
)

// The committed suite golden pins the canonical JSON of every
// experiment matrix at the CI seed count. CI's dispatch job runs the
// suite through sweepd and diffs the merged report against the same
// file, so any behavioural drift — scheduler, oracle, protocol or
// adversary generator — surfaces as a byte diff both locally and in CI.
//
// Regenerate (only when a behaviour change is intended and understood):
//
//	go test ./cmd/experiments -run TestSuiteGolden -update-suite-golden
var updateSuiteGolden = flag.Bool("update-suite-golden", false, "rewrite the experiments suite golden")

const goldenSeeds = 3 // must match the CI invocation's -seeds

func goldenPath(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "suite.golden.json")
}

func buildSuiteJSON(t *testing.T, seeds int) []byte {
	t.Helper()
	_, reports, err := buildSuite(seeds, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := sweep.SuiteJSON(reports)
	if err != nil {
		t.Fatal(err)
	}
	return suite
}

// experimentsMD is the committed rendering of the suite at goldenSeeds.
const experimentsMD = "../../EXPERIMENTS.md"

// TestSuiteGolden runs the suite once and pins both of its outputs: the
// rendered markdown against the committed EXPERIMENTS.md and the
// canonical JSON against the suite golden.
func TestSuiteGolden(t *testing.T) {
	md, reports, err := buildSuite(goldenSeeds, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if !r.OK() {
			t.Errorf("matrix %s", r.Summary())
		}
	}
	wantMD, err := os.ReadFile(experimentsMD)
	if err != nil {
		t.Fatal(err)
	}
	if md != string(wantMD) {
		got, want := strings.Split(md, "\n"), strings.Split(string(wantMD), "\n")
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		var gotLine, wantLine string
		if i < len(got) {
			gotLine = got[i]
		}
		if i < len(want) {
			wantLine = want[i]
		}
		t.Errorf("rendered suite differs from %s at line %d:\n got  %q\n want %q\na deliberate change regenerates it with `go run ./cmd/experiments`",
			experimentsMD, i+1, gotLine, wantLine)
	}

	got, err := sweep.SuiteJSON(reports)
	if err != nil {
		t.Fatal(err)
	}
	path := goldenPath(t)
	if *updateSuiteGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing suite golden (run with -update-suite-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("suite differs from %s (got %d bytes, want %d) — a deliberate change needs -update-suite-golden", path, len(got), len(want))
	}
}

// TestShardMergeMatchesUnsharded checks shard/merge byte-identity over
// the full suite: every matrix runs as independent shards whose cells
// travel through their JSON form, sweep.NewReport joins them, and the
// merged suite reproduces the unsharded suite bytes. This is the
// contract sweepd's units and merge rest on.
func TestShardMergeMatchesUnsharded(t *testing.T) {
	const seeds = 2 // smaller than the golden run: this test checks the pipeline, not the values
	want := buildSuiteJSON(t, seeds)

	const count = 3
	var merged []*sweep.Report
	for _, m := range suiteMatrices(seeds) {
		all, err := m.Cells()
		if err != nil {
			t.Fatal(err)
		}
		var cells []sweep.CellResult
		for i := 0; i < count; i++ {
			r, err := sweep.Run(m, sweep.Options{Shard: sweep.Shard{Index: i, Count: count}})
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(r.Cells)
			if err != nil {
				t.Fatal(err)
			}
			var part []sweep.CellResult
			if err := json.Unmarshal(blob, &part); err != nil {
				t.Fatal(err)
			}
			cells = append(cells, part...)
		}
		r, err := sweep.NewReport(m, len(all), cells)
		if err != nil {
			t.Fatalf("matrix %s: %v", m.Name, err)
		}
		merged = append(merged, r)
	}
	got, err := sweep.SuiteJSON(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("merged shard suites differ from the unsharded run")
	}
}

// TestMatricesExportRoundTrip pins the hand-off between this tool and
// cmd/sweepd: the exact bytes -matrices writes, decoded with unknown
// fields disallowed as sweepd loads them, expand every suite matrix
// into the cells the original matrix expands to. Seed counts are 1,
// the suite's (3) and the paper benchmark workload's (12); at 1 seed
// every decoded matrix also runs to the original's canonical report.
func TestMatricesExportRoundTrip(t *testing.T) {
	for _, seeds := range []int{1, goldenSeeds, 12} {
		path := filepath.Join(t.TempDir(), "suite-spec.json")
		if _, err := writeMatrices(path, seeds); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var decoded []sweep.Matrix
		dec := json.NewDecoder(bytes.NewReader(blob))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&decoded); err != nil {
			t.Fatal(err)
		}
		orig := suiteMatrices(seeds)
		if len(decoded) != len(orig) {
			t.Fatalf("seeds=%d: decoded %d matrices, want %d", seeds, len(decoded), len(orig))
		}
		for i, m := range orig {
			want, err := m.Cells()
			if err != nil {
				t.Fatal(err)
			}
			got, err := decoded[i].Cells()
			if err != nil {
				t.Fatalf("seeds=%d: decoded %s: %v", seeds, m.Name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seeds=%d: matrix %s expands to different cells after the export round trip", seeds, m.Name)
			}
			if seeds == 1 && !bytes.Equal(canonicalRun(t, decoded[i]), canonicalRun(t, m)) {
				t.Errorf("matrix %s runs to a different report after the export round trip", m.Name)
			}
		}
	}
}

// canonicalRun runs m and returns its canonical report.
func canonicalRun(t *testing.T, m sweep.Matrix) []byte {
	t.Helper()
	r, err := sweep.Run(m, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := r.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestSuiteMatrixNamesUnique: -replay and EXP-CF resolve a matrix by
// its first name match, so a duplicate name would shadow a suite cell.
func TestSuiteMatrixNamesUnique(t *testing.T) {
	for _, seeds := range []int{1, goldenSeeds, 12} {
		seen := map[string]bool{}
		for _, m := range suiteMatrices(seeds) {
			if seen[m.Name] {
				t.Errorf("seeds=%d: two suite matrices named %q", seeds, m.Name)
			}
			seen[m.Name] = true
		}
	}
}

// TestRunReplay drives -replay end to end: a replayed cell reports the
// seed, size, verdict and step count the suite golden holds for that
// cell, with tracing on; a perturbed replay's base run is that same
// cell, byte for byte; bad names and indices are refused.
func TestRunReplay(t *testing.T) {
	blob, err := os.ReadFile(goldenPath(t))
	if err != nil {
		t.Fatal(err)
	}
	var golden []*sweep.Report
	if err := json.Unmarshal(blob, &golden); err != nil {
		t.Fatal(err)
	}
	// suiteCell renders the untraced prefix of a replay line from the
	// golden's copy of the cell.
	suiteCell := func(label, name string, index int) string {
		for _, r := range golden {
			if r.Matrix.Name == name {
				c := r.Cells[index]
				return fmt.Sprintf("  %-9s seed=%d n=%d t=%d verdict=%s steps=%d trace_events=",
					label, c.Seed, c.Size.N, c.Size.T, c.Verdict, c.Steps)
			}
		}
		t.Fatalf("no golden matrix %q", name)
		return ""
	}
	replay := func(spec, perturb string) []string {
		t.Helper()
		var out bytes.Buffer
		if err := runReplay(&out, spec, perturb, "", goldenSeeds); err != nil {
			t.Fatalf("-replay %s -perturb %q: %v", spec, perturb, err)
		}
		return strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	}

	plain := replay("F3-scaling:0", "")
	if len(plain) != 2 || plain[0] != "replay F3-scaling:0 (kset-omega, trace=decisions)" ||
		!strings.HasPrefix(plain[1], suiteCell("cell", "F3-scaling", 0)) {
		t.Errorf("-replay F3-scaling:0 printed\n%s", strings.Join(plain, "\n"))
	}

	cell := replay("F2-additivity:3", "")
	pert := replay("F2-additivity:3", "crash=2@600")
	if len(pert) != 4 || pert[0] != "replay F2-additivity:3 (two-wheels, trace=decisions, perturb crash=2@600)" ||
		!strings.HasPrefix(pert[1], suiteCell("base", "F2-additivity", 3)) ||
		!strings.HasPrefix(pert[2], "  perturbed ") ||
		!strings.HasPrefix(pert[3], "divergence: diverge after ") {
		t.Fatalf("-replay F2-additivity:3 -perturb crash=2@600 printed\n%s", strings.Join(pert, "\n"))
	}
	if strings.TrimPrefix(cell[1], "  cell     ") != strings.TrimPrefix(pert[1], "  base     ") {
		t.Errorf("perturbed replay's base run differs from the plain replay of the cell:\n%s\n%s", cell[1], pert[1])
	}

	for _, c := range []struct{ spec, perturb, want string }{
		{"nope:0", "", `no suite matrix named "nope"`},
		{"nope:0", "gst+1", `no suite matrix named "nope"`},
		{"F3-scaling:12", "", `replay index 12 outside matrix "F3-scaling" (12 cells)`},
		{"F3-scaling:12", "gst+1", `replay index 12 outside matrix "F3-scaling" (12 cells)`},
	} {
		var out bytes.Buffer
		err := runReplay(&out, c.spec, c.perturb, "", goldenSeeds)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-replay %s -perturb %q: error %v, want one containing %q", c.spec, c.perturb, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("-replay %s -perturb %q printed %q before failing", c.spec, c.perturb, out.String())
		}
	}
}

// TestReplayDigestsPinned pins the decision-trace digests of two replayed
// cells whose emulated outputs are sampled twice on one emulation, by
// the trace sampler and the run's watcher (two-wheels at trace level
// full, add-s at decisions). Neither sampler may consume a change the
// other still needs, and sampling only what changed must record the same
// events as sampling every process: a digest that moves here means the
// samplers of an emulation disagree with each other or with its outputs.
func TestReplayDigestsPinned(t *testing.T) {
	for _, c := range []struct{ spec, level, digest string }{
		{"F2-additivity:3", "full", "d3abcd134372636a3e3e627dbff96612"},
		{"F9-add-s:1", "decisions", "bf970a770d55aaa12fd10611e37e1338"},
	} {
		var out bytes.Buffer
		if err := runReplay(&out, c.spec, "", c.level, goldenSeeds); err != nil {
			t.Fatalf("-replay %s -trace %s: %v", c.spec, c.level, err)
		}
		if !strings.HasSuffix(strings.TrimSpace(out.String()), "trace_digest="+c.digest) {
			t.Errorf("-replay %s -trace %s printed\n%s\nwant trace_digest=%s", c.spec, c.level, out.String(), c.digest)
		}
	}
}

func TestParseReplaySpec(t *testing.T) {
	name, idx, err := parseReplaySpec("kset-grid:12")
	if err != nil || name != "kset-grid" || idx != 12 {
		t.Fatalf("kset-grid:12 -> %q %d %v", name, idx, err)
	}
	// Matrix names can contain dashes and dots but no colon, so the
	// LAST colon splits; everything left of it is the name.
	name, idx, err = parseReplaySpec("odd:name:3")
	if err != nil || name != "odd:name" || idx != 3 {
		t.Fatalf("odd:name:3 -> %q %d %v", name, idx, err)
	}
	for _, bad := range []string{
		"", "kset-grid", ":5", "kset-grid:", "kset-grid:abc",
		"kset-grid:1.5", "kset-grid:-1", "kset-grid:5x",
		// Non-canonical spellings of an index strconv.Atoi would take.
		"kset-grid:+3", "kset-grid:03", "kset-grid:-0", "kset-grid:00",
		"kset-grid: 3", "kset-grid:99999999999999999999",
	} {
		if _, _, err := parseReplaySpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	if name, idx, err := parseReplaySpec("kset-grid:0"); err != nil || name != "kset-grid" || idx != 0 {
		t.Fatalf("kset-grid:0 -> %q %d %v", name, idx, err)
	}
}

// FuzzParseReplaySpec: every spec parseReplaySpec accepts is the one
// canonical spelling of its (matrix, index) pair — rendering the pair
// back as name + ":" + index reproduces the input byte for byte.
func FuzzParseReplaySpec(f *testing.F) {
	for i, m := range suiteMatrices(1) {
		f.Add(m.Name + ":" + strconv.Itoa(i))
	}
	for _, s := range []string{"kset-grid:+3", "kset-grid:03", "kset-grid:-0", "odd:name:3", ":0", "x:"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		name, idx, err := parseReplaySpec(spec)
		if err != nil {
			return
		}
		if idx < 0 {
			t.Fatalf("%q accepted with negative index %d", spec, idx)
		}
		if got := name + ":" + strconv.Itoa(idx); got != spec {
			t.Fatalf("%q accepted but renders back as %q", spec, got)
		}
	})
}
