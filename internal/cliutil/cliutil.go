// Package cliutil holds the markdown table renderer the repository's
// command-line tools share.
package cliutil

import (
	"fmt"
	"strings"
)

// Table renders rows as a GitHub-flavoured markdown table, columns
// padded to align in plain text too.
type Table struct {
	Headers []string
	Rows    [][]string
}

// Add appends a row; values are stringified with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	cols := len(t.Headers)
	width := make([]int, cols)
	for i, h := range t.Headers {
		width[i] = len(h)
	}
	for _, r := range t.Rows {
		for i := 0; i < cols && i < len(r); i++ {
			if len(r[i]) > width[i] {
				width[i] = len(r[i])
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			b.WriteString("| ")
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", width[i]-len(cell)))
			b.WriteString(" ")
		}
		b.WriteString("|\n")
	}
	writeRow(t.Headers)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
