package cliutil

import (
	"strings"
	"testing"
)

// TestTablePlain: read as plain text, each column is padded to its
// widest cell so rows line up under the header.
func TestTablePlain(t *testing.T) {
	tab := &Table{Headers: []string{"a", "long-header"}}
	tab.Add(1, "x")
	tab.Add("yy", 234)
	s := tab.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[0], "long-header") {
		t.Errorf("header missing: %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "| 1  | ") {
		t.Errorf("row misaligned: %q", lines[2])
	}
	for i, l := range lines {
		if len(l) != len(lines[0]) {
			t.Errorf("line %d width %d, header width %d:\n%s", i, len(l), len(lines[0]), s)
		}
	}
}

// TestTableMarkdown: the header, separator and rows render as a
// markdown table whose columns are padded to the widest cell.
func TestTableMarkdown(t *testing.T) {
	tab := &Table{Headers: []string{"h1", "long-header"}}
	tab.Add("v", 2)
	tab.Add("yyy", 234)
	want := "" +
		"| h1  | long-header |\n" +
		"| --- | ----------- |\n" +
		"| v   | 2           |\n" +
		"| yyy | 234         |\n"
	if got := tab.String(); got != want {
		t.Errorf("table rendered\n%s\nwant\n%s", got, want)
	}
}

func TestTableShortRow(t *testing.T) {
	tab := &Table{Headers: []string{"a", "b", "c"}}
	tab.Add("only")
	if s := tab.String(); !strings.Contains(s, "| only | ") || strings.Count(s, "\n") != 3 {
		t.Errorf("short row mangled:\n%s", s)
	}
}
