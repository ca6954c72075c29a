package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"fdgrid/internal/sweep"
)

// counts are the exact numbers a pass must repeat: a drift between passes
// of one run, or between runs of one seed on the same sources, fails the
// run.
type counts struct {
	Cells       int    `json:"sweep_cells"`
	Msgs        int64  `json:"sim_msgs"`
	VTicks      int64  `json:"sim_vticks"`
	RenderBytes int    `json:"sweep_render_bytes"`
	SHA256      string `json:"suite_sha256"`
}

func (p *pass) counts() counts {
	return counts{Cells: p.cells, Msgs: p.msgs, VTicks: p.vticks, RenderBytes: p.renderBytes, SHA256: hex.EncodeToString(p.digest[:])}
}

// goldenCheck compares a rendered suite with the committed golden: byte
// for byte at seed 0, and at every other seed matrix by matrix for the
// large matrices, whose seeds no benchmark seed shifts.
type goldenCheck struct {
	whole []byte
	parts []json.RawMessage
	fixed []bool // matrix i keeps the golden's seeds at this seed
}

func newGoldenCheck(path string, matrices []sweep.Matrix, seed int64) (*goldenCheck, error) {
	whole, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read golden: %w", err)
	}
	g := &goldenCheck{whole: whole}
	if seed == 0 {
		return g, nil
	}
	if err := json.Unmarshal(whole, &g.parts); err != nil {
		return nil, fmt.Errorf("decode golden %s: %w", path, err)
	}
	if len(g.parts) != len(matrices) {
		return nil, fmt.Errorf("golden %s holds %d matrices, the workload runs %d", path, len(g.parts), len(matrices))
	}
	for _, m := range matrices {
		g.fixed = append(g.fixed, isLargeMatrix(m))
	}
	return g, nil
}

func (g *goldenCheck) matches(suite []byte) bool {
	if g.fixed == nil {
		return bytes.Equal(suite, g.whole)
	}
	var got []json.RawMessage
	if json.Unmarshal(suite, &got) != nil || len(got) != len(g.parts) {
		return false
	}
	for i := range got {
		if g.fixed[i] && !sameJSON(got[i], g.parts[i]) {
			return false
		}
	}
	return true
}

// sameJSON compares two JSON texts byte for byte once whitespace between
// tokens is removed (array elements carry their enclosing indentation).
func sameJSON(a, b []byte) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// check verifies every pass and tallies attempted and failed cells. A
// cell fails when its verdict is not pass. Every cell of a pass fails
// when the pass's rendered suite differs from the golden (suite and
// fleet; see goldenCheck), or its counts or bytes differ from the run's
// first pass. Every cell of the run fails when the run's counts differ
// from the record an earlier run of the same seed and sources left.
func (b *bench) check() result {
	var res result
	first := b.passes[0].counts()
	for i, p := range b.passes {
		res.Attempted += p.cells
		switch {
		case p.goldenMismatch:
			b.complain("pass %d: rendered suite differs from the golden %s", i, goldenPath)
			res.Failed += p.cells
		case p.counts() != first:
			b.complain("pass %d: counts %+v drifted from the first pass's %+v", i, p.counts(), first)
			res.Failed += p.cells
		default:
			res.Failed += p.failedCells
			if p.failedCells > 0 {
				b.complain("pass %d: %d cells did not pass", i, p.failedCells)
			}
		}
	}
	if err := b.checkRecord(first); err != nil {
		b.complain("%v", err)
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0
	return res
}

func (b *bench) complain(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %s: "+format+"\n", append([]any{b.w.name}, args...)...)
}

// checkRecord compares the run's counts with the record of earlier runs
// of the same cell set, seed and sources, or leaves the first record.
// suite and fleet share a cell set, so each checks the other's bytes.
func (b *bench) checkRecord(c counts) error {
	dir := filepath.Join(b.cfg.dir, "counts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.json", b.source[:16], b.w.cellSet, b.cfg.seed))
	blob, err := os.ReadFile(path)
	if err == nil {
		var want counts
		if err := json.Unmarshal(blob, &want); err != nil {
			return fmt.Errorf("count record %s: %w", path, err)
		}
		if c != want {
			return fmt.Errorf("counts %+v drifted from the record %s of an earlier run: %+v", c, path, want)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return err
	}
	if blob, err = json.Marshal(c); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// sourceDigest fingerprints the program the benchmark runs: the SHA-256
// of every .go, go.mod and go.sum file under root (with its path),
// skipping hidden directories and build output. It names the sources
// when no commit is known, and keys the count records.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a repository, else "unknown". The source hash still names the
// code exactly.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// envInfo records the settings a run's numbers belong to, so numbers
// from different machines or settings are never mistaken for each other.
type envInfo struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Traced       bool    `json:"traced"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Pool         int     `json:"pool"`
	FleetWorkers int     `json:"fleet_workers"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	Source       string  `json:"source_sha256"`
	Cells        int     `json:"cells"`
	Matrices     int     `json:"matrices"`
	Passes       int     `json:"passes"`
	TracedPasses int     `json:"traced_passes"`
}

func (b *bench) env() envInfo {
	e := envInfo{
		Workload: b.w.name, Seed: b.cfg.seed, Seconds: b.cfg.seconds, Traced: b.cfg.traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Pool: b.pool,
		GoVersion: runtime.Version(), Commit: commit(), Source: b.source,
		Cells: b.setup.cells, Matrices: len(b.matrices), Passes: len(b.passes),
	}
	if b.w.fleet {
		e.Pool, e.FleetWorkers = b.fleetPool, b.fleetWorkers
	}
	for _, p := range b.passes {
		if p.traced {
			e.TracedPasses++
		}
	}
	return e
}
