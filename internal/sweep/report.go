package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"fdgrid/internal/sim"
)

// Cell verdicts.
const (
	// Pass: the run exhibited the property the cell checks.
	Pass = "pass"
	// Fail: the run completed but the property did not hold.
	Fail = "fail"
	// ConfigError: the cell's declaration is inconsistent — an oracle
	// script of the wrong role or scope for the combo, a protocol that
	// does not consume the declared dimension, conflicting pinning
	// params. A matrix-author mistake, reported distinctly so summaries
	// and goldens never conflate it with a paper-claim counterexample.
	ConfigError = "config_error"
	// Errored: the cell could not run (bad config, protocol panic).
	Errored = "error"
)

// CellResult is the structured outcome of one cell: the verdict, a
// metrics snapshot, the decided-value set (for agreement protocols) and
// virtual/wall durations. Every field except WallNS, Wakes and Switches
// is a deterministic function of the cell; those three are excluded
// from the canonical JSON so reports stay byte-reproducible.
type CellResult struct {
	Index   int    `json:"index"`
	Seed    int64  `json:"seed"`
	Size    Size   `json:"size"`
	Pattern string `json:"pattern"`
	Combo   Combo  `json:"combo"`

	// Oracle keys the cell's generated-oracle dimension point (empty
	// for matrices without OracleFamilies); OracleClass is the class the
	// script declares and OracleConformance the fd/check.go verdict —
	// "conforms", or "violates: <reason>" when the script leaves its
	// declared class under this cell's failure pattern. Paired scripts
	// additionally carry per-role verdicts in OracleS and OraclePhi,
	// with OracleConformance the joint verdict.
	Oracle            string `json:"oracle,omitempty"`
	OracleClass       string `json:"oracle_class,omitempty"`
	OracleConformance string `json:"oracle_conformance,omitempty"`
	OracleS           string `json:"oracle_s,omitempty"`
	OraclePhi         string `json:"oracle_phi,omitempty"`

	Verdict string `json:"verdict"`
	Detail  string `json:"detail,omitempty"`

	Steps        sim.Time         `json:"steps"`
	StoppedEarly bool             `json:"stopped_early"`
	Messages     int64            `json:"messages_sent"`
	SentByTag    map[string]int64 `json:"sent_by_tag,omitempty"`

	// Agreement outcomes (empty for transformation-only cells).
	Decided   []int `json:"decided,omitempty"` // sorted distinct decided values
	Decisions int   `json:"decisions,omitempty"`
	MaxRound  int   `json:"max_round,omitempty"`

	// Measures carries runner-specific observations (stabilization
	// ticks, traffic at a time mark, probe times, …).
	Measures map[string]int64 `json:"measures,omitempty"`

	// TraceDigest fingerprints the cell's decision trace (first 128
	// bits of the SHA-256 of its canonical JSON) and TraceEvents counts
	// its events; both appear only when the matrix sets TraceLevel, so
	// untraced reports keep their pre-tracing bytes. Divergence is the
	// trace.Diff summary against a baseline run — set only on the
	// perturbed result of a counterfactual Replay, never by a sweep.
	TraceDigest string `json:"trace_digest,omitempty"`
	TraceEvents int    `json:"trace_events,omitempty"`
	Divergence  string `json:"divergence,omitempty"`

	// WallNS is the cell's wall-clock cost. Not part of the canonical
	// report: it varies run to run.
	WallNS int64 `json:"-"`

	// Wakes and Switches are the scheduler diagnostics of the cell's
	// runs (sim.Report's), summed over every system the cell ran. Not
	// part of the canonical report: they describe how the simulator ran
	// the cell, not what the cell computed.
	Wakes    int64 `json:"-"`
	Switches int64 `json:"-"`
}

// measure records a named observation, allocating lazily.
func (r *CellResult) measure(name string, v int64) {
	if r.Measures == nil {
		r.Measures = make(map[string]int64)
	}
	r.Measures[name] = v
}

// fail marks the cell failed, appending the reason to Detail.
func (r *CellResult) fail(why string) {
	r.Verdict = Fail
	if r.Detail == "" {
		r.Detail = why
	} else {
		r.Detail += "; " + why
	}
}

// failConfig marks the cell as misconfigured (see ConfigError),
// appending the reason to Detail.
func (r *CellResult) failConfig(why string) {
	r.fail(why)
	r.Verdict = ConfigError
}

// ShardMeta records which slice of the matrix a sharded run covered.
type ShardMeta struct {
	Index      int `json:"index"`
	Count      int `json:"count"`
	TotalCells int `json:"total_cells"`
}

// Report aggregates a matrix run. A sharded run's report carries only
// its own cells plus Shard metadata; MergeReports recombines a full
// shard family into the unsharded report.
type Report struct {
	Matrix  Matrix       `json:"matrix"`
	Shard   *ShardMeta   `json:"shard,omitempty"`
	Cells   []CellResult `json:"cells"`
	Passed  int          `json:"passed"`
	Failed  int          `json:"failed"`
	Errored int          `json:"errored"`

	// ConfigErrors counts misconfigured cells (ConfigError verdicts);
	// omitted while zero so pre-existing reports keep their bytes.
	ConfigErrors int `json:"config_errors,omitempty"`

	// WallNS is the sweep's wall-clock cost (not canonical).
	WallNS int64 `json:"-"`
}

// OK reports whether every cell passed (a ConfigError cell is not
// passed, so it fails OK like any other non-pass verdict).
func (r *Report) OK() bool { return r.Failed == 0 && r.Errored == 0 && r.Passed == len(r.Cells) }

// CanonicalJSON renders the report as deterministic bytes: struct fields
// in declaration order, map keys sorted (encoding/json's contract), no
// wall-clock content. Same matrix, same binary → same bytes.
func (r *Report) CanonicalJSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Summary is a one-line human rendering.
func (r *Report) Summary() string {
	shard := ""
	if r.Shard != nil {
		shard = fmt.Sprintf(" [shard %d/%d]", r.Shard.Index, r.Shard.Count)
	}
	cfg := ""
	if r.ConfigErrors > 0 {
		cfg = fmt.Sprintf(", %d config", r.ConfigErrors)
	}
	return fmt.Sprintf("%s%s: %d/%d pass (%d fail, %d error%s)",
		r.Matrix.Name, shard, r.Passed, len(r.Cells), r.Failed, r.Errored, cfg)
}

// MergeReports recombines the reports of a complete shard family into
// the report the unsharded run would have produced: same matrix, cells
// reassembled in index order, tallies recomputed, shard metadata
// dropped. Canonical JSON of the merged report is byte-identical to the
// unsharded run's — the property the sharded CI sweep verifies.
//
// Every part must cover the same matrix, and together the parts must
// cover each cell index exactly once. The same-matrix check compares
// the matrices' JSON forms — as strong as the report artifact itself,
// which carries every matrix field, explicit Hold From/To sets
// included. Shards of the same invocation, the intended use, always
// carry identical matrix bytes.
func MergeReports(parts []*Report) (*Report, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("sweep: merge of zero reports")
	}
	refMatrix, err := json.Marshal(parts[0].Matrix)
	if err != nil {
		return nil, err
	}
	total := -1
	if parts[0].Shard != nil {
		total = parts[0].Shard.TotalCells
	}
	seen := make(map[int]bool)
	merged := &Report{Matrix: parts[0].Matrix}
	for i, p := range parts {
		m, err := json.Marshal(p.Matrix)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(m, refMatrix) {
			return nil, fmt.Errorf("sweep: merge part %d covers matrix %q, part 0 covers %q", i, p.Matrix.Name, parts[0].Matrix.Name)
		}
		if p.Shard != nil {
			if total >= 0 && p.Shard.TotalCells != total {
				return nil, fmt.Errorf("sweep: merge part %d expects %d total cells, part 0 expects %d", i, p.Shard.TotalCells, total)
			}
			total = p.Shard.TotalCells
		}
		for _, c := range p.Cells {
			if seen[c.Index] {
				return nil, fmt.Errorf("sweep: merge of %q: cell %d appears in more than one part (overlapping shards — each cell must be covered exactly once)", merged.Matrix.Name, c.Index)
			}
			seen[c.Index] = true
			merged.Cells = append(merged.Cells, c)
			merged.WallNS += c.WallNS
		}
	}
	if total < 0 {
		total = len(merged.Cells) // no shard metadata: trust the parts
	}
	if len(merged.Cells) != total {
		return nil, fmt.Errorf("sweep: merge of %q covers %d of %d cells (missing shard or truncated part)", merged.Matrix.Name, len(merged.Cells), total)
	}
	sort.Slice(merged.Cells, func(i, j int) bool { return merged.Cells[i].Index < merged.Cells[j].Index })
	for i, c := range merged.Cells {
		if c.Index != i {
			return nil, fmt.Errorf("sweep: merge of %q has a gap in coverage: cell %d is missing (parts do not form a complete shard family)", merged.Matrix.Name, i)
		}
		switch c.Verdict {
		case Pass:
			merged.Passed++
		case Fail:
			merged.Failed++
		case ConfigError:
			merged.ConfigErrors++
		default:
			merged.Errored++
		}
	}
	return merged, nil
}
