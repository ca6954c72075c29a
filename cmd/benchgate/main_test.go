package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{42}, 42},
		{"odd", []float64{3, 1, 2}, 2},
		// Even length: the upper-middle element (index len/2 of the
		// sorted samples).
		{"even", []float64{4, 1, 3, 2}, 3},
		{"unsorted duplicates", []float64{5, 5, 1, 5}, 5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("%s: median(%v) = %v, want %v", c.name, c.in, got, c.want)
		}
	}
	// median must not reorder the caller's slice.
	in := []float64{9, 1, 5}
	median(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Errorf("median mutated its input: %v", in)
	}
}

func TestParseBenchOutput(t *testing.T) {
	out := parseBenchOutput(`
goos: linux
goarch: amd64
BenchmarkSchedulerTick-8     	 1000000	        52.7 ns/op	       0 B/op	       0 allocs/op
BenchmarkSchedulerTick-8     	 1000000	        54.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkSchedulerSend       	  500000	       642.5 ns/op
BenchmarkDeliverBatch/n=64-16       	    3000	 350000 ns/op	     4096 msgs/op
PASS
ok  	fdgrid	12.3s
`)
	// The GOMAXPROCS suffix is stripped, and a suffix-less 1-CPU line
	// lands under the same kind of name.
	if tick := out["BenchmarkSchedulerTick"]; len(tick) != 2 || tick[0] != 52.7 || tick[1] != 54.1 {
		t.Errorf("tick samples %v (keys %v)", tick, out)
	}
	if got := out["BenchmarkSchedulerSend"]; len(got) != 1 {
		t.Errorf("suffix-less benchmark not parsed: %v", got)
	}
	if got := out["BenchmarkDeliverBatch/n=64"]; len(got) != 1 || got[0] != 350000 {
		t.Errorf("sub-benchmark with a custom metric parsed as %v", got)
	}
	if len(out) != 3 {
		t.Errorf("parsed %d benchmarks, want 3: %v", len(out), out)
	}
}

// TestParseBenchOutputTruncated: a result line cut off mid-way (a
// crashed run, a full disk) must not produce phantom samples, and its
// parseable prefix is kept.
func TestParseBenchOutputTruncated(t *testing.T) {
	out := parseBenchOutput(
		"BenchmarkSchedulerTick-8 \t 1000000\t        52.7 ns/op\t     17 B\n" + // unit cut off mid-pair
			"BenchmarkSchedulerSend-8 \t  500000\t       642.5\n" + // value with no unit at all
			"BenchmarkTrunca")
	if tick := out["BenchmarkSchedulerTick"]; len(tick) != 1 || tick[0] != 52.7 {
		t.Errorf("truncated-line benchmark parsed as %v", tick)
	}
	if send, ok := out["BenchmarkSchedulerSend"]; ok {
		t.Errorf("value with no unit counted as ns/op: %v", send)
	}
	if _, ok := out["BenchmarkTrunca"]; ok {
		t.Error("name-only fragment produced a benchmark")
	}
}

// TestParseBenchOutputNoResults: a run that produced no benchmark lines
// (build failure output, -bench matching nothing) parses to an empty
// map; compare's "gated nothing" check handles it.
func TestParseBenchOutputNoResults(t *testing.T) {
	for _, in := range []string{"PASS\nok  \tfdgrid\t0.01s\n", ""} {
		if out := parseBenchOutput(in); len(out) != 0 {
			t.Errorf("parsed %v from a result-free run %q", out, in)
		}
	}
}

// TestCompare drives the gate's verdict on synthetic `go test -bench`
// text for both sides.
func TestCompare(t *testing.T) {
	const (
		tick100 = "BenchmarkSchedulerTick-2 1000000 100 ns/op\n"
		send200 = "BenchmarkSchedulerSend-2 1000000 200 ns/op\n"
	)
	cases := []struct {
		name       string
		base, head string
		ok         bool
		want       []string // line prefixes the output must contain
	}{
		{"within threshold", tick100 + send200,
			"BenchmarkSchedulerTick-2 1 124 ns/op\nBenchmarkSchedulerSend-2 1 150 ns/op\n",
			true, []string{"ok   BenchmarkSchedulerTick ", "ok   BenchmarkSchedulerSend ", "benchgate: 2 benchmarks"}},
		{"regression", tick100 + send200,
			"BenchmarkSchedulerTick-2 1 126 ns/op\n" + send200,
			false, []string{"FAIL BenchmarkSchedulerTick ", "ok   BenchmarkSchedulerSend "}},
		{"median decides", strings.Repeat(tick100, 3),
			"BenchmarkSchedulerTick-2 1 400 ns/op\nBenchmarkSchedulerTick-2 1 101 ns/op\nBenchmarkSchedulerTick-2 1 99 ns/op\n",
			true, []string{"ok   BenchmarkSchedulerTick "}},
		{"missing in head", tick100 + send200, tick100,
			false, []string{"MISS BenchmarkSchedulerSend ", "ok   BenchmarkSchedulerTick "}},
		{"head only", tick100, tick100 + send200,
			true, []string{"NEW  BenchmarkSchedulerSend ", "ok   BenchmarkSchedulerTick "}},
		{"only new", "", tick100,
			false, []string{"NEW  BenchmarkSchedulerTick "}},
		{"nothing matched", "BenchmarkGridLine-2 1 100 ns/op\n", "BenchmarkGridLine-2 1 900 ns/op\n",
			false, nil},
	}
	for _, c := range cases {
		var out strings.Builder
		err := compare(&out, parseBenchOutput(c.base), parseBenchOutput(c.head))
		if (err == nil) != c.ok {
			t.Errorf("%s: err %v, want ok=%v\n%s", c.name, err, c.ok, out.String())
		}
		for _, w := range c.want {
			if !strings.Contains("\n"+out.String(), "\n"+w) {
				t.Errorf("%s: output lacks a line starting %q:\n%s", c.name, w, out.String())
			}
		}
		if strings.Contains(out.String(), "GridLine") {
			t.Errorf("%s: an ungated benchmark was compared:\n%s", c.name, out.String())
		}
	}
}

// TestRunOrderBalanced: for every benchmark index, base runs first in
// exactly half of the benchmark's sample pairs, and consecutive
// benchmarks start on different sides.
func TestRunOrderBalanced(t *testing.T) {
	if samples%2 != 0 {
		t.Fatalf("samples = %d is odd: one side would run first more often", samples)
	}
	for bi := range 64 {
		first := 0
		for i := range samples {
			if baseFirst(bi, i) {
				first++
			}
		}
		if first != samples/2 {
			t.Errorf("benchmark %d: base runs first in %d of %d pairs, want %d", bi, first, samples, samples/2)
		}
		if baseFirst(bi, 0) == baseFirst(bi+1, 0) {
			t.Errorf("benchmarks %d and %d start on the same side", bi, bi+1)
		}
	}
}

// TestGateCoversHotPaths: every scheduler, delivery and fan-out
// micro-benchmark in the root package's bench_test.go, and the lower
// wheel, two-wheels and Fig. 9 protocol-step benchmarks, are inside
// gatedRE, so a new one cannot silently fall outside the gate.
func TestGateCoversHotPaths(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "bench_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	hot := regexp.MustCompile(`^Benchmark(Scheduler|Deliver|BroadcastFanout|LowerWheel|TwoWheels|AddToS)`)
	n := 0
	protocol := map[string]bool{"BenchmarkLowerWheel": false, "BenchmarkTwoWheels": false, "BenchmarkAddToS": false}
	for _, m := range regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`).FindAllStringSubmatch(string(src), -1) {
		if !hot.MatchString(m[1]) {
			continue
		}
		n++
		if _, ok := protocol[m[1]]; ok {
			protocol[m[1]] = true
		}
		if !gated.MatchString(m[1]) {
			t.Errorf("%s is a hot-path benchmark outside the gate's %s", m[1], gatedRE)
		}
	}
	for name, found := range protocol {
		if !found {
			t.Errorf("bench_test.go has no %s, a protocol-step benchmark the gate requires", name)
		}
	}
	if n == 0 {
		t.Error("bench_test.go has no scheduler, delivery or fan-out benchmark")
	}
}
