package detlint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// repoRoot is the module root, where package patterns resolve.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// fixtures loads every package under testdata/src in one go list
// invocation and indexes them by directory base name. Loaded once and
// shared: the go list round trip dominates the cost.
var fixtures struct {
	once sync.Once
	pkgs map[string]*Package
	err  error
}

func fixture(t *testing.T, name string) *Package {
	t.Helper()
	fixtures.once.Do(func() {
		root, err := filepath.Abs("../..")
		if err != nil {
			fixtures.err = err
			return
		}
		entries, err := os.ReadDir(filepath.Join(root, "internal/detlint/testdata/src"))
		if err != nil {
			fixtures.err = err
			return
		}
		var patterns []string
		for _, e := range entries {
			if e.IsDir() {
				patterns = append(patterns, "./internal/detlint/testdata/src/"+e.Name())
			}
		}
		pkgs, err := Load(root, patterns...)
		if err != nil {
			fixtures.err = err
			return
		}
		fixtures.pkgs = make(map[string]*Package, len(pkgs))
		for _, p := range pkgs {
			fixtures.pkgs[filepath.Base(p.Dir)] = p
		}
	})
	if fixtures.err != nil {
		t.Fatalf("loading fixtures: %v", fixtures.err)
	}
	p, ok := fixtures.pkgs[name]
	if !ok {
		t.Fatalf("no fixture package %q under testdata/src", name)
	}
	return p
}

// wantRe matches the expected-diagnostic markers in fixture sources:
// a trailing "// want rule [rule...]" names the rules that must fire
// on that line.
var wantRe = regexp.MustCompile(`// want ([a-z ]+)$`)

// wants parses a fixture package's expected diagnostics as a multiset
// of "file:line:rule" keys.
func wants(t *testing.T, p *Package) map[string]int {
	t.Helper()
	out := make(map[string]int)
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, rule := range strings.Fields(m[1]) {
				out[fmt.Sprintf("%s:%d:%s", filepath.Base(name), i+1, rule)]++
			}
		}
	}
	return out
}

// got renders actual diagnostics in the same multiset form.
func got(diags []Diagnostic) map[string]int {
	out := make(map[string]int)
	for _, d := range diags {
		out[fmt.Sprintf("%s:%d:%s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Rule)]++
	}
	return out
}

func diffMultisets(t *testing.T, want, have map[string]int, diags []Diagnostic) {
	t.Helper()
	keys := make(map[string]bool)
	for k := range want {
		keys[k] = true
	}
	for k := range have {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		if want[k] != have[k] {
			t.Errorf("%s: want %d diagnostic(s), got %d", k, want[k], have[k])
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
}

// TestFixtures pins every analyzer against its positive (seeded-bug)
// and negative fixture packages: each // want marker must produce
// exactly one diagnostic of that rule on that line, and the negative
// package must be silent.
func TestFixtures(t *testing.T) {
	for _, a := range Registry {
		t.Run(a.Name+"_pos", func(t *testing.T) {
			p := fixture(t, a.Name+"_pos")
			diags := CheckWith(p, a)
			if len(diags) == 0 {
				t.Fatalf("analyzer %s caught nothing in its seeded-bug fixture", a.Name)
			}
			diffMultisets(t, wants(t, p), got(diags), diags)
		})
		t.Run(a.Name+"_neg", func(t *testing.T) {
			p := fixture(t, a.Name+"_neg")
			if diags := CheckWith(p, a); len(diags) != 0 {
				t.Errorf("analyzer %s flagged the clean fixture:", a.Name)
				for _, d := range diags {
					t.Logf("  %s", d)
				}
			}
		})
	}
}

// TestRegistryFixtureCoverage is the registry gate: every registered
// rule must ship a positive fixture with at least one expected
// diagnostic (the seeded bug it provably catches) and a negative
// fixture proving it stays quiet on the legal pattern. A new analyzer
// cannot land without its fixtures.
func TestRegistryFixtureCoverage(t *testing.T) {
	for _, a := range Registry {
		pos := fixture(t, a.Name+"_pos")
		if len(wants(t, pos)) == 0 {
			t.Errorf("rule %s: positive fixture has no // want markers", a.Name)
		}
		fixture(t, a.Name+"_neg") // must exist; TestFixtures asserts silence
	}
	if len(Registry) == 0 {
		t.Fatal("empty analyzer registry")
	}
}

// TestAllowFixtures pins the escape hatch: well-formed allows
// suppress in both placements; malformed allows are diagnostics
// themselves and suppress nothing.
func TestAllowFixtures(t *testing.T) {
	if diags := CheckWith(fixture(t, "allow_ok"), registered("wallclock")); len(diags) != 0 {
		t.Errorf("allow_ok: want no diagnostics, got:")
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
	p := fixture(t, "allow_bad")
	diags := CheckWith(p, registered("wallclock"))
	diffMultisets(t, wants(t, p), got(diags), diags)
}

// TestRepoClean is the self-hosting gate inside the test suite: the
// repository carries zero unannotated diagnostics. The same check
// runs as `go run ./cmd/detlint ./...` from make vet; here it fails
// `go test ./...` too, so a violation cannot hide behind a skipped
// make target.
func TestRepoClean(t *testing.T) {
	pkgs, err := Load(repoRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	diags := Check(pkgs)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestScopes pins the package scoping: deterministic rules skip
// cmd/* and host-side utility packages, maporder covers the whole
// module, tracecanon covers exactly internal/trace.
func TestScopes(t *testing.T) {
	cases := []struct {
		rule     string
		rel      string
		inModule bool
		want     bool
	}{
		{"wallclock", "internal/sim", true, true},
		{"wallclock", "cmd/experiments", true, false},
		{"wallclock", "internal/cliutil", true, false},
		{"wallclock", "internal/dispatch", true, false},
		{"wallclock", "cmd/sweepd", true, false},
		{"globalrand", "internal/sweep", true, true},
		{"globalrand", "internal/dispatch", true, false},
		{"runtoken", "internal/fd", true, true},
		{"runtoken", "cmd/detlint", true, false},
		{"runtoken", "internal/dispatch", true, false},
		{"maporder", "cmd/experiments", true, true},
		{"maporder", "internal/dispatch", true, true},
		{"maporder", "cmd/sweepd", true, true},
		{"maporder", "examples/quickstart", true, true},
		{"maporder", "", true, true}, // the module root package
		{"stepblock", "internal/reduction", true, true},
		{"stepblock", "cmd/experiments", true, false},
		{"tracecanon", "internal/trace", true, true},
		{"tracecanon", "internal/sim", true, false},
	}
	for _, c := range cases {
		a := registered(c.rule)
		if a == nil {
			t.Fatalf("unknown rule %q", c.rule)
		}
		if got := a.applies(c.rel, c.inModule); got != c.want {
			t.Errorf("%s.applies(%q) = %v, want %v", c.rule, c.rel, got, c.want)
		}
	}
}

// TestInternalPackagesClassified enforces the scope partition: every
// package under internal/ is either deterministic (run-token-owned,
// full rule set) or host-side (wall clock, goroutines and I/O legal) —
// listed in exactly one of the two registry maps. A new internal
// package cannot land without someone deciding which side of the
// determinism boundary it lives on, and stale entries for deleted
// packages fail too.
func TestInternalPackagesClassified(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join(repoRoot(t), "internal"))
	if err != nil {
		t.Fatal(err)
	}
	onDisk := make(map[string]bool)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rel := "internal/" + e.Name()
		onDisk[rel] = true
		det, host := deterministicPkgs[rel], hostSidePkgs[rel]
		switch {
		case det && host:
			t.Errorf("%s is in both deterministicPkgs and hostSidePkgs; pick one", rel)
		case !det && !host:
			t.Errorf("%s is unclassified: add it to deterministicPkgs (run-token-owned) or hostSidePkgs (wall clock/goroutines/I-O legal) in registry.go", rel)
		}
	}
	for rel := range deterministicPkgs {
		if !onDisk[rel] {
			t.Errorf("deterministicPkgs lists %s, which does not exist", rel)
		}
	}
	for rel := range hostSidePkgs {
		if !onDisk[rel] {
			t.Errorf("hostSidePkgs lists %s, which does not exist", rel)
		}
	}
}

func TestHasVerbV(t *testing.T) {
	cases := []struct {
		format string
		want   bool
	}{
		{"%v", true},
		{"x=%+v", true},
		{"%#v", true},
		{"%-10v", true},
		{"%d %s %q", false},
		{"100%% vanilla", false},
		{"verbatim", false},
		{"", false},
	}
	for _, c := range cases {
		if got := hasVerbV(c.format); got != c.want {
			t.Errorf("hasVerbV(%q) = %v, want %v", c.format, got, c.want)
		}
	}
}
