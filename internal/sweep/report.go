package sweep

import (
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

// Report aggregates a matrix run: its cells in index order and their
// verdict tallies. Run builds it for the cells it ran; NewReport builds
// it from cells collected elsewhere (a dispatched fleet's shards).
type Report struct {
	Matrix  Matrix       `json:"matrix"`
	Cells   []CellResult `json:"cells"`
	Passed  int          `json:"passed"`
	Failed  int          `json:"failed"`
	Errored int          `json:"errored"`

	// ConfigErrors counts misconfigured cells (ConfigError verdicts);
	// omitted while zero so pre-existing reports keep their bytes.
	ConfigErrors int `json:"config_errors,omitempty"`

	// WallNS is the sweep's wall-clock cost (not canonical; set by Run
	// only).
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
	cfg := ""
	if r.ConfigErrors > 0 {
		cfg = fmt.Sprintf(", %d config", r.ConfigErrors)
	}
	return fmt.Sprintf("%s: %d/%d pass (%d fail, %d error%s)",
		r.Matrix.Name, r.Passed, len(r.Cells), r.Failed, r.Errored, cfg)
}

// tally counts the report's cells by verdict.
func (r *Report) tally() {
	for i := range r.Cells {
		switch r.Cells[i].Verdict {
		case Pass:
			r.Passed++
		case Fail:
			r.Failed++
		case ConfigError:
			r.ConfigErrors++
		default:
			r.Errored++
		}
	}
}

// NewReport builds matrix m's report from its cells, collected in any
// order from any number of runs (the shards of a dispatched sweep):
// sorted by index, they must be exactly 0..total−1, where total is m's
// cell count. A duplicate, a stray index or a missing cell is an error,
// never a silently partial report. Canonical JSON of the result is
// byte-identical to Run(m)'s, which is what lets a dispatcher merge a
// remote fleet's streamed cells as if one process had run the matrix.
func NewReport(m Matrix, total int, cells []CellResult) (*Report, error) {
	for _, c := range cells {
		if c.Index < 0 || c.Index >= total {
			return nil, fmt.Errorf("sweep: report of %q: cell index %d outside the matrix's %d cells (stray result)", m.Name, c.Index, total)
		}
	}
	sorted := append(make([]CellResult, 0, len(cells)), cells...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	for i, c := range sorted {
		switch {
		case c.Index < i:
			return nil, fmt.Errorf("sweep: report of %q: cell %d appears more than once (duplicate result)", m.Name, c.Index)
		case c.Index > i:
			return nil, fmt.Errorf("sweep: report of %q: cell %d is missing (gap in coverage)", m.Name, i)
		}
	}
	if len(sorted) != total {
		return nil, fmt.Errorf("sweep: report of %q covers %d of %d cells (missing part)", m.Name, len(sorted), total)
	}
	rep := &Report{Matrix: m, Cells: sorted}
	rep.tally()
	return rep, nil
}
