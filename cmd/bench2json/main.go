// Command bench2json converts `go test -bench` text output into the
// committed benchmark record (BENCH_PR3.json by default, via the
// Makefile's BENCH_OUT): per-benchmark ns/op samples (benchstat-
// compatible — the raw lines are carried verbatim) and custom metrics
// (vticks/run, msgs/run, …). End-to-end suite timings are perfbench's
// job (perfbench/README.md), not this record's.
//
// If the output file already exists and carries a "baseline" section,
// that section is preserved, so re-running `make bench` refreshes the
// current numbers without losing the recorded PR-1 reference point.
//
// Usage:
//
//	bench2json -bench bench.txt -out BENCH_PR3.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"fdgrid/internal/benchrec"
)

func parseBench(path string, rec *benchrec.Record) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	parsed, err := benchrec.ParseBenchOutput(f)
	if err != nil {
		return err
	}
	for name, b := range parsed {
		rec.Benchmarks[name] = b
	}
	return nil
}

func main() {
	var (
		bench   = flag.String("bench", "", "go test -bench output file")
		out     = flag.String("out", "BENCH_PR3.json", "output JSON file")
		note    = flag.String("note", "", "free-form note recorded in the file")
		machine = flag.String("machine", "", "machine description recorded in the file")
	)
	flag.Parse()

	rec := &benchrec.Record{Note: *note, Machine: *machine, Benchmarks: map[string]*benchrec.Benchmark{}}
	if prev, err := os.ReadFile(*out); err == nil {
		var old benchrec.Record
		if json.Unmarshal(prev, &old) == nil {
			rec.Baseline = old.Baseline
			if rec.Note == "" {
				rec.Note = old.Note
			}
			if rec.Machine == "" {
				rec.Machine = old.Machine
			}
		}
	}
	if *bench != "" {
		if err := parseBench(*bench, rec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %d benchmarks\n", *out, len(rec.Benchmarks))
}
