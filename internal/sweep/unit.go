package sweep

import (
	"encoding/json"
)

// This file is the sweep side of distributed dispatch
// (internal/dispatch): a dispatcher splits a matrix into shard-shaped
// work units, collects each unit's CellResults as they stream back from
// remote workers (possibly out of order, possibly duplicated, possibly
// from a retried or speculatively re-dispatched attempt), and builds
// each matrix's report from the collected cells with NewReport, the
// same tally Run uses, so the merged suite is byte-identical to a local
// run's.

// OwnedIndices lists the cell indices shard s owns out of total cells,
// ascending. The zero-value (disabled) shard owns everything.
func (s Shard) OwnedIndices(total int) []int {
	if !s.enabled() {
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, total/s.Count+1)
	for i := s.Index; i < total; i += s.Count {
		out = append(out, i)
	}
	return out
}

// SuiteJSON renders a suite — one report per matrix, in suite order —
// as a JSON array of the canonical per-matrix reports. This is the
// byte format of cmd/experiments' -report artifact, the committed
// suite golden, and the dispatcher's merged output; all three must
// come from this one renderer so they stay byte-comparable.
func SuiteJSON(reports []*Report) ([]byte, error) {
	blobs := make([]json.RawMessage, 0, len(reports))
	for _, r := range reports {
		blob, err := r.CanonicalJSON()
		if err != nil {
			return nil, err
		}
		blobs = append(blobs, blob)
	}
	return json.MarshalIndent(blobs, "", "  ")
}
