package sweep

import (
	"bytes"
	"encoding/json"
	"testing"

	"fdgrid/internal/adversary"
)

// shardCells runs every shard of a count-way split of m and returns the
// shards' cells, in shard order, with m's total cell count.
func shardCells(t *testing.T, m Matrix, count int) ([]CellResult, int) {
	t.Helper()
	all, err := m.Cells()
	if err != nil {
		t.Fatal(err)
	}
	var cells []CellResult
	for i := 0; i < count; i++ {
		r, err := Run(m, Options{Workers: 2, Shard: Shard{Index: i, Count: count}})
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, r.Cells...)
	}
	return cells, len(all)
}

// TestShardMergeByteIdentical is the sharding contract: running every
// shard of m independently and joining their cells with NewReport
// yields canonical bytes identical to the unsharded run — for several
// shard counts, including one larger than the cell count (some shards
// own nothing).
func TestShardMergeByteIdentical(t *testing.T) {
	m := smokeMatrix()
	full, err := Run(m, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []int{1, 2, 3, 4, 16} {
		cells, total := shardCells(t, m, count)
		merged, err := NewReport(m, total, cells)
		if err != nil {
			t.Fatalf("merge %d shards: %v", count, err)
		}
		got, err := merged.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("merged %d-shard report differs from the unsharded run", count)
		}
	}
}

// TestShardMergeSurvivesJSONRoundTrip mirrors the dispatcher's wire:
// cells travel between processes as JSON, so joining must work on
// unmarshaled cells and still reproduce the unsharded bytes.
func TestShardMergeSurvivesJSONRoundTrip(t *testing.T) {
	m := smokeMatrix()
	full, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := full.CanonicalJSON()
	cells, total := shardCells(t, m, 3)
	blob, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []CellResult
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	merged, err := NewReport(m, total, decoded)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := merged.CanonicalJSON()
	if !bytes.Equal(got, want) {
		t.Fatal("merged round-tripped shards differ from the unsharded run")
	}
}

// TestShardPartition: each cell is owned by exactly one shard, and the
// shard dimension is deterministic.
func TestShardPartition(t *testing.T) {
	m := smokeMatrix()
	cells, err := m.Cells()
	if err != nil {
		t.Fatal(err)
	}
	const count = 3
	owned := make(map[int]int)
	for i := 0; i < count; i++ {
		r, err := Run(m, Options{Shard: Shard{Index: i, Count: count}})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range r.Cells {
			if prev, dup := owned[c.Index]; dup {
				t.Fatalf("cell %d owned by shards %d and %d", c.Index, prev, i)
			}
			owned[c.Index] = i
			if c.Index%count != i {
				t.Fatalf("cell %d landed in shard %d, want %d", c.Index, i, c.Index%count)
			}
		}
	}
	if len(owned) != len(cells) {
		t.Fatalf("shards covered %d of %d cells", len(owned), len(cells))
	}
}

// familyMatrix sweeps, at two sizes, a hand-written pattern and the
// staggered and partition schedules of two adversary families.
func familyMatrix() Matrix {
	return Matrix{
		Name: "fam", Protocol: "p",
		Seeds: []int64{0}, Sizes: []Size{{N: 6, T: 2}, {N: 10, T: 4}},
		Patterns: []CrashPattern{{Name: "hand-written"}},
		AdversaryFamilies: []adversary.Family{
			{Kind: adversary.KindStaggered, Count: 2, Variants: 2, Seed: 5},
			{Kind: adversary.KindPartition, Seed: 5},
		},
		MaxSteps: 100,
	}
}

// TestAdversaryFamilyExpansion: a matrix with AdversaryFamilies sweeps
// the generated schedules — per size, appended after explicit patterns,
// deterministically.
func TestAdversaryFamilyExpansion(t *testing.T) {
	m := familyMatrix()
	cells, err := m.Cells()
	if err != nil {
		t.Fatal(err)
	}
	// Per size: 1 explicit + 2 staggered + 1 partition = 4 patterns.
	if len(cells) != 2*4 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	if cells[0].Pattern.Name != "hand-written" {
		t.Fatalf("explicit pattern not first: %q", cells[0].Pattern.Name)
	}
	if cells[1].Pattern.Name != "staggered-c2-s5-v0" || cells[2].Pattern.Name != "staggered-c2-s5-v1" {
		t.Fatalf("generated patterns misnamed: %q, %q", cells[1].Pattern.Name, cells[2].Pattern.Name)
	}
	for _, c := range cells[1:3] {
		if len(c.Pattern.Crashes) != 2 {
			t.Fatalf("staggered pattern has %d crashes", len(c.Pattern.Crashes))
		}
		if _, err := c.Config(); err != nil {
			t.Fatalf("generated cell invalid: %v", err)
		}
	}
	if len(cells[3].Pattern.Holds) != 2 || len(cells[3].Pattern.Crashes) != 0 {
		t.Fatalf("partition pattern malformed: %+v", cells[3].Pattern)
	}
	// The n=10 expansion generates against its own size.
	if got := cells[7].Pattern.Holds[0].From.Size() + cells[7].Pattern.Holds[0].To.Size(); got != 10 {
		t.Fatalf("partition at n=10 covers %d processes", got)
	}
	// Determinism: a second expansion is identical.
	again, err := m.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i].Pattern.Name != again[i].Pattern.Name {
			t.Fatalf("expansion not deterministic at cell %d", i)
		}
	}
}

// badFamilyMatrix asks for 3 staggered crashes at t = 1.
func badFamilyMatrix() Matrix {
	return Matrix{
		Name: "fam-bad", Protocol: "p",
		Seeds: []int64{0}, Sizes: []Size{{N: 6, T: 1}},
		AdversaryFamilies: []adversary.Family{{Kind: adversary.KindStaggered, Count: 3}},
		MaxSteps:          100,
	}
}

// TestAdversaryFamilyErrors: a family the size cannot satisfy fails at
// expansion with the matrix and size named.
func TestAdversaryFamilyErrors(t *testing.T) {
	m := badFamilyMatrix()
	if _, err := m.Cells(); err == nil {
		t.Fatal("family with count > t accepted")
	}
}

// familySweepMatrix runs kset-omega over staggered and clustered
// generated schedules.
func familySweepMatrix() Matrix {
	return Matrix{
		Name: "fam-sweep", Protocol: "kset-omega",
		Seeds: []int64{0, 1}, Sizes: []Size{{N: 5, T: 2}},
		AdversaryFamilies: []adversary.Family{
			{Kind: adversary.KindStaggered, Count: 2, Variants: 2, Seed: 9, Start: 200},
			{Kind: adversary.KindClustered, Count: 2, Seed: 9, Start: 300},
		},
		Combos: []Combo{{Z: 2}},
		GST:    400, MaxSteps: 1_000_000,
	}
}

// TestShardedFamilySweepMerges: sharding composes with generated
// adversaries end to end (families expand identically in every shard).
func TestShardedFamilySweepMerges(t *testing.T) {
	m := familySweepMatrix()
	full, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !full.OK() {
		t.Fatalf("family sweep failed: %s", full.Summary())
	}
	want, _ := full.CanonicalJSON()
	cells, total := shardCells(t, m, 3)
	merged, err := NewReport(m, total, cells)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := merged.CanonicalJSON()
	if !bytes.Equal(got, want) {
		t.Fatal("sharded family sweep does not merge to the unsharded bytes")
	}
}
