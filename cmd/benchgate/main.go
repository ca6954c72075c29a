// Command benchgate is the micro-benchmark regression gate: it runs two
// `go test -c` binaries of the root package, the parent commit's
// (-base) and the change's (-head), on the same machine, and fails when
// any gated benchmark's median ns/op regressed by more than a quarter.
//
// A shared runner drifts by tens of percent over a minute, so the two
// sides are sampled in lockstep: for each gated benchmark, sample i runs
// base then head, sample i+1 head then base, and so on (see baseFirst).
// Both sides of a pair see the same host, and a comparison against a
// record taken elsewhere (or on the same host at another time) cannot
// false-fail.
//
// The gated set, sample count, benchtime and threshold are constants
// below, not flags: the gate means one thing wherever it runs. The raw
// `go test -bench` output of each side lands beside its binary as
// base.txt and head.txt, ready for `benchstat base.txt head.txt`.
//
// Usage (make bench-gate builds both binaries and calls this):
//
//	benchgate -base DIR/base.test -head DIR/head.test
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

const (
	// gatedRE selects the gated benchmarks: the scheduler, delivery and
	// fan-out hot paths every sweep cell multiplies by millions.
	// TestGateCoversHotPaths keeps every such benchmark inside it.
	gatedRE = `^(BenchmarkScheduler|BenchmarkDeliverBatch|BenchmarkDeliverBacklog|BenchmarkBroadcastFanout)`
	// samples is the number of runs per side of each benchmark. It is
	// even, so each side runs first in half of a benchmark's pairs.
	samples = 6
	// benchtime is each run's -test.benchtime: long enough to amortize
	// the nanosecond benchmarks' setup, short enough for ~1 min per gate.
	benchtime = "200ms"
	// threshold is the largest tolerated median ns/op regression
	// (0.25 = +25%).
	threshold = 0.25
)

var gated = regexp.MustCompile(gatedRE)

func main() {
	base := flag.String("base", "", "`go test -c` binary of the parent commit")
	head := flag.String("head", "", "`go test -c` binary of the change")
	flag.Parse()
	if *base == "" || *head == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchgate -base base.test -head head.test")
		os.Exit(2)
	}
	if err := gate(*base, *head, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// gate runs both binaries over the gated benchmarks in alternating
// order, writes each side's raw output beside its binary and compares
// the two.
func gate(baseBin, headBin string, w io.Writer) error {
	bins := [2]string{baseBin, headBin}
	var lists [2][]string
	for side, bin := range bins {
		abs, err := filepath.Abs(bin)
		if err != nil {
			return err
		}
		bins[side] = abs
		if lists[side], err = listGated(abs); err != nil {
			return err
		}
	}
	names := union(lists[0], lists[1])

	var raw [2]strings.Builder
	for bi, name := range names {
		fmt.Fprintf(os.Stderr, "benchgate: %s, %d samples per side\n", name, samples)
		for i := range samples {
			order := [2]int{0, 1}
			if !baseFirst(bi, i) {
				order = [2]int{1, 0}
			}
			for _, side := range order {
				if !slices.Contains(lists[side], name) {
					continue
				}
				out, err := runBench(bins[side], name)
				if err != nil {
					return err
				}
				raw[side].Write(out)
			}
		}
	}
	for side, file := range [2]string{"base.txt", "head.txt"} {
		path := filepath.Join(filepath.Dir(bins[side]), file)
		if err := os.WriteFile(path, []byte(raw[side].String()), 0o644); err != nil {
			return err
		}
	}
	return compare(w, parseBenchOutput(raw[0].String()), parseBenchOutput(raw[1].String()))
}

// baseFirst reports whether sample i of the bi-th gated benchmark runs
// base before head. The order alternates from sample to sample, and the
// first sample's order from benchmark to benchmark; with an even sample
// count each side goes first in exactly half of every benchmark's pairs,
// so a first-in-pair advantage cannot tilt a median.
func baseFirst(bi, i int) bool {
	return (bi+i)%2 == 0
}

// listGated returns the binary's top-level benchmarks that gatedRE
// selects.
func listGated(bin string) ([]string, error) {
	out, err := exec.Command(bin, "-test.list", gatedRE).Output()
	if err != nil {
		return nil, fmt.Errorf("benchgate: %s -test.list: %w", bin, err)
	}
	var names []string
	for _, line := range strings.Fields(string(out)) {
		if strings.HasPrefix(line, "Benchmark") {
			names = append(names, line)
		}
	}
	return names, nil
}

// runBench runs one top-level benchmark (with its sub-benchmarks) once.
func runBench(bin, name string) ([]byte, error) {
	cmd := exec.Command(bin, "-test.run", "^$", "-test.bench", "^"+regexp.QuoteMeta(name)+"$",
		"-test.benchtime", benchtime, "-test.count", "1", "-test.timeout", "5m")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("benchgate: %s %s: %w\n%s", bin, name, err, out)
	}
	return out, nil
}

// compare gates head against base, both ns/op samples per benchmark
// name, over the benchmarks gatedRE selects. It prints one line per
// benchmark and fails on a median regression beyond threshold, on a
// benchmark the base has and the head lacks (deleting or renaming a
// gated benchmark must not shrink the gate silently), and when nothing
// was compared. A benchmark only the head has is new: it passes.
func compare(w io.Writer, base, head map[string][]float64) error {
	compared, failed, missing := 0, 0, 0
	worst := 0.0
	for _, name := range union(slices.Collect(maps.Keys(base)), slices.Collect(maps.Keys(head))) {
		if !gated.MatchString(name) {
			continue
		}
		b, h := median(base[name]), median(head[name])
		switch {
		case b == 0:
			fmt.Fprintf(w, "NEW  %-40s %12s → %10.1f ns/op  no parent sample\n", name, "", h)
			continue
		case h == 0:
			fmt.Fprintf(w, "MISS %-40s gated in the parent but absent from the head run\n", name)
			missing++
			continue
		}
		compared++
		ratio := h / b
		worst = max(worst, ratio)
		verdict := "ok  "
		if ratio > 1+threshold {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%s %-40s %12.1f → %10.1f ns/op  (%+.1f%%)\n", verdict, name, b, h, (ratio-1)*100)
	}
	switch {
	case missing > 0:
		return fmt.Errorf("benchgate: %d gated benchmarks of the parent missing from the head run", missing)
	case compared == 0:
		return errors.New("benchgate: no benchmark matched " + gatedRE + " on both sides; the gate gated nothing")
	case failed > 0:
		return fmt.Errorf("benchgate: %d of %d gated benchmarks regressed beyond +%.0f%%", failed, compared, threshold*100)
	}
	fmt.Fprintf(w, "benchgate: %d benchmarks within +%.0f%% of the parent (largest ratio %.3f)\n", compared, threshold*100, worst)
	return nil
}

// union returns the sorted, de-duplicated names of a and b.
func union(a, b []string) []string {
	names := slices.Concat(a, b)
	slices.Sort(names)
	return slices.Compact(names)
}

// median of a sample slice (0 when empty): the upper-middle element of
// the sorted samples for an even count. The input is not reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

// benchLine matches one `go test -bench` result line. The name group is
// lazy so the `-N` GOMAXPROCS suffix (absent on a 1-CPU box) lands in
// its own group and is stripped.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+\d+\s+(.*)$`)

// parseBenchOutput collects the ns/op samples of `go test -bench` text
// per benchmark name (GOMAXPROCS suffix stripped). Other lines, and
// result lines with no ns/op pair, add no sample.
func parseBenchOutput(text string) map[string][]float64 {
	out := map[string][]float64{}
	for line := range strings.Lines(text) {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
				out[m[1]] = append(out[m[1]], v)
			}
		}
	}
	return out
}
