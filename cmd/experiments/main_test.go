package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
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

func buildSuiteJSON(t *testing.T, seeds int) ([]byte, []*sweep.Report) {
	t.Helper()
	_, reports, err := buildSuite(seeds, 0, "no-such-bench-record.json", false)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := sweep.SuiteJSON(reports)
	if err != nil {
		t.Fatal(err)
	}
	return suite, reports
}

func TestSuiteGolden(t *testing.T) {
	got, reports := buildSuiteJSON(t, goldenSeeds)
	for _, r := range reports {
		if !r.OK() {
			t.Errorf("matrix %s", r.Summary())
		}
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
// the full suite: every matrix runs as independent shards whose reports
// travel through their JSON form, sweep.MergeReports recombines them,
// and the merged suite reproduces the unsharded suite bytes. This is
// the contract sweepd's units and merge rest on.
func TestShardMergeMatchesUnsharded(t *testing.T) {
	const seeds = 2 // smaller than the golden run: this test checks the pipeline, not the values
	want, _ := buildSuiteJSON(t, seeds)

	const count = 3
	var merged []*sweep.Report
	for _, m := range suiteMatrices(seeds) {
		parts := make([]*sweep.Report, count)
		for i := range parts {
			r, err := sweep.Run(m, sweep.Options{Shard: sweep.Shard{Index: i, Count: count}})
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(blob, &parts[i]); err != nil {
				t.Fatal(err)
			}
		}
		r, err := sweep.MergeReports(parts)
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
// cmd/sweepd: the exact bytes -matrices writes, decoded the way sweepd
// loads them, expand every suite matrix into the cells the original
// matrix expands to. Seed counts are the suite's (3) and the paper
// benchmark workload's (12).
func TestMatricesExportRoundTrip(t *testing.T) {
	for _, seeds := range []int{goldenSeeds, 12} {
		path := filepath.Join(t.TempDir(), "suite-spec.json")
		if _, err := writeMatrices(path, seeds); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var decoded []sweep.Matrix
		if err := json.Unmarshal(blob, &decoded); err != nil {
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
