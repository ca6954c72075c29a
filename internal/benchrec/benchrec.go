// Package benchrec defines the on-disk layout of the committed
// benchmark record (BENCH_PR3.json) and the parser for `go test -bench`
// text output. cmd/bench2json writes the record, cmd/experiments
// renders it (the EXP-PERF section) and cmd/benchgate gates CI on it,
// so the schema and parser live here, shared, rather than drifting
// apart in three mirrors.
package benchrec

import (
	"bufio"
	"encoding/json"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark aggregates one benchmark's samples across -count runs.
type Benchmark struct {
	NsOp    []float64            `json:"ns_op"`
	Metrics map[string][]float64 `json:"metrics,omitempty"`
	Raw     []string             `json:"raw"` // benchstat-compatible lines
}

// Record is the file layout. Baseline, when present, is a Record-shaped
// reference measurement (the PR-1 scheduler) preserved across
// regenerations of the current numbers. Older records also carry suite
// wall times (sweep_cells, sweep_151_cells_wall_s); nothing reads them
// any more, so decoding ignores them.
type Record struct {
	Note       string                `json:"note,omitempty"`
	Machine    string                `json:"machine,omitempty"`
	Benchmarks map[string]*Benchmark `json:"benchmarks"`
	Baseline   json.RawMessage       `json:"baseline,omitempty"`
}

// Median of a sample slice (0 when empty).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// benchLine matches one `go test -bench` result line. The name group is
// lazy so the `-N` GOMAXPROCS suffix (absent on a 1-CPU box, present
// everywhere else) lands in its own group and is stripped — baseline
// keys must compare equal across machines.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+\d+\s+(.*)$`)

// ParseBenchOutput parses `go test -bench` text into per-benchmark
// sample aggregates keyed by benchmark name (GOMAXPROCS suffix
// stripped). Non-benchmark lines are ignored.
func ParseBenchOutput(r io.Reader) (map[string]*Benchmark, error) {
	out := map[string]*Benchmark{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b := out[m[1]]
		if b == nil {
			b = &Benchmark{Metrics: map[string][]float64{}}
			out[m[1]] = b
		}
		b.Raw = append(b.Raw, line)
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsOp = append(b.NsOp, v)
			default:
				b.Metrics[unit] = append(b.Metrics[unit], v)
			}
		}
	}
	return out, sc.Err()
}
