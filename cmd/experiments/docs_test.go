package main

import (
	"encoding/json"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"fdgrid/internal/sweep"
)

// schemaDoc is the key reference the suite artifact is documented by.
const schemaDoc = "../../docs/REPORT_SCHEMA.md"

// docKeyRe matches a schema-table row's key column: `| `key` | ...`.
var docKeyRe = regexp.MustCompile("(?m)^\\| `([a-z_]+)` \\|")

// documentedKeys parses the backticked key column of every table in
// REPORT_SCHEMA.md.
func documentedKeys(t *testing.T) map[string]bool {
	t.Helper()
	blob, err := os.ReadFile(schemaDoc)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, m := range docKeyRe.FindAllStringSubmatch(string(blob), -1) {
		keys[m[1]] = true
	}
	if len(keys) == 0 {
		t.Fatalf("no documented keys parsed from %s", schemaDoc)
	}
	return keys
}

// TestReportSchemaDocumented cross-checks REPORT_SCHEMA.md against the
// committed suite golden: every key that actually appears at the
// report, matrix, or cell level must have a table row, and the trace
// keys — absent from the golden by design, since the suite runs
// untraced — must be documented too.
func TestReportSchemaDocumented(t *testing.T) {
	keys := documentedKeys(t)
	blob, err := os.ReadFile(goldenPath(t))
	if err != nil {
		t.Fatal(err)
	}
	var suite []struct {
		Matrix map[string]json.RawMessage   `json:"matrix"`
		Cells  []map[string]json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(blob, &suite); err != nil {
		t.Fatal(err)
	}
	var reports []map[string]json.RawMessage
	if err := json.Unmarshal(blob, &reports); err != nil {
		t.Fatal(err)
	}

	seen := map[string]string{} // key -> level, for the failure message
	for _, r := range reports {
		for k := range r {
			seen[k] = "report"
		}
	}
	for _, r := range suite {
		for k := range r.Matrix {
			seen[k] = "matrix"
		}
		for _, c := range r.Cells {
			for k := range c {
				seen[k] = "cell"
			}
		}
	}
	if len(seen) < 20 {
		t.Fatalf("implausibly few keys (%d) collected from the suite golden", len(seen))
	}
	for k, level := range seen {
		if !keys[k] {
			t.Errorf("%s-level key %q appears in the suite golden but has no row in %s", level, k, schemaDoc)
		}
	}
	// Keys the golden cannot show (untraced suite, replay-only field)
	// still need rows: they are the artifact's documented extension.
	for _, k := range []string{"trace_level", "trace_digest", "trace_events", "divergence"} {
		if !keys[k] {
			t.Errorf("key %q must be documented in %s", k, schemaDoc)
		}
	}
}

// paramRowRe matches a row of REPORT_SCHEMA.md's params table:
// `| `protocol` | `key` | default | meaning |`.
var paramRowRe = regexp.MustCompile("(?m)^\\| `([a-z0-9-]+)` \\| `([a-z_0-9]+)` \\| ([^|]+) \\| ([^|]+) \\|$")

// TestParamsDocumented cross-checks REPORT_SCHEMA.md's params table
// against the params the protocol table declares: every declared key
// has a row and every row names a declared key, with the same meaning,
// and the same default where the default is a number (a default the
// cell derives is documented in words).
func TestParamsDocumented(t *testing.T) {
	blob, err := os.ReadFile(schemaDoc)
	if err != nil {
		t.Fatal(err)
	}
	type row struct{ def, meaning string }
	documented := map[[2]string]row{}
	for _, m := range paramRowRe.FindAllStringSubmatch(string(blob), -1) {
		documented[[2]string{m[1], m[2]}] = row{m[3], m[4]}
	}
	declared := sweep.DeclaredParams()
	if len(declared) == 0 {
		t.Fatal("no protocol declares a param")
	}
	for _, d := range declared {
		id := [2]string{d.Protocol, d.Key}
		r, ok := documented[id]
		switch {
		case !ok:
			t.Errorf("protocol %q declares param %q, which has no row in %s", d.Protocol, d.Key, schemaDoc)
		case r.meaning != d.Doc:
			t.Errorf("%s param %q: documented meaning %q, declared %q", d.Protocol, d.Key, r.meaning, d.Doc)
		case d.Default != "" && r.def != d.Default:
			t.Errorf("%s param %q: documented default %q, declared %s", d.Protocol, d.Key, r.def, d.Default)
		case d.Default == "" && strings.Trim(r.def, "0123456789") == "":
			t.Errorf("%s param %q: documented default %q is a number, but the cell derives it", d.Protocol, d.Key, r.def)
		}
		delete(documented, id)
	}
	for id := range documented {
		t.Errorf("%s documents param %q of protocol %q, which no protocol declares", schemaDoc, id[1], id[0])
	}
}

// linkRe matches markdown links; images and autolinks don't occur in
// these docs.
var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestDocLinksResolve walks every relative link in README.md and
// docs/*.md and checks its target exists, so doc moves and renames
// can't leave dangling references.
func TestDocLinksResolve(t *testing.T) {
	docs := []string{"../../README.md", "../../docs/ARCHITECTURE.md", "../../docs/REPORT_SCHEMA.md"}
	extra, err := filepath.Glob("../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range extra {
		if d != "../../docs/ARCHITECTURE.md" && d != "../../docs/REPORT_SCHEMA.md" {
			docs = append(docs, d)
		}
	}
	checked := 0
	for _, doc := range docs {
		blob, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(blob), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if unescaped, err := url.PathUnescape(target); err == nil {
				target = unescaped
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(doc), target)); err != nil {
				t.Errorf("%s links to %q: %v", filepath.Base(doc), m[1], err)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no relative links checked; the link regexp or doc list is broken")
	}
}
