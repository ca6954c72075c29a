package adversary

import (
	"reflect"
	"testing"

	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

// TestExpandDeterministic: expansion is a pure function of
// (family, n, t) — repeated expansions are deep-equal, and expansion
// order across families does not matter.
func TestExpandDeterministic(t *testing.T) {
	g := NewScheduleGen(16, 5)
	fams := []Family{
		{Kind: KindStaggered, Count: 3, Variants: 4, Seed: 7},
		{Kind: KindClustered, Count: 2, Variants: 2, Seed: 7},
		{Kind: KindCascade, Variants: 3, Seed: 9},
		{Kind: KindPartition, Count: 5, Variants: 2, Seed: 1},
		{Kind: KindSilence, Count: 2, Variants: 2, Seed: 2},
	}
	first, err := g.ExpandAll(fams)
	if err != nil {
		t.Fatal(err)
	}
	second, err := g.ExpandAll(fams)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("repeated expansion differs")
	}
	// Reversed family order: each family's own schedules are unchanged.
	rev := []Family{fams[4], fams[0]}
	got, err := g.ExpandAll(rev)
	if err != nil {
		t.Fatal(err)
	}
	silCount := fams[4].Variants
	if !reflect.DeepEqual(got[silCount:], first[:fams[0].Variants]) {
		t.Fatal("expansion depends on family order")
	}
}

// TestExpandShapes checks each kind's structural contract.
func TestExpandShapes(t *testing.T) {
	const n, tt = 12, 4
	g := NewScheduleGen(n, tt)

	t.Run("staggered", func(t *testing.T) {
		ss, err := g.Expand(Family{Kind: KindStaggered, Count: 3, Variants: 5, Seed: 3, Start: 100, Spacing: 200})
		if err != nil {
			t.Fatal(err)
		}
		if len(ss) != 5 {
			t.Fatalf("got %d variants", len(ss))
		}
		for _, s := range ss {
			if len(s.Crashes) != 3 || len(s.Holds) != 0 {
				t.Fatalf("schedule %s: %d crashes, %d holds", s.Name, len(s.Crashes), len(s.Holds))
			}
			seen := map[ids.ProcID]bool{}
			for i, c := range s.Crashes {
				if seen[c.P] {
					t.Fatalf("%s crashes %v twice", s.Name, c.P)
				}
				seen[c.P] = true
				lo := sim.Time(100 + i*200)
				if c.At < lo || c.At > lo+100 {
					t.Fatalf("%s crash %d at %d outside [%d,%d]", s.Name, i, c.At, lo, lo+100)
				}
			}
		}
	})

	t.Run("clustered", func(t *testing.T) {
		ss, err := g.Expand(Family{Kind: KindClustered, Count: 4, Variants: 3, Seed: 5, Start: 300})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range ss {
			if len(s.Crashes) != 4 {
				t.Fatalf("%s has %d crashes", s.Name, len(s.Crashes))
			}
			for i, c := range s.Crashes {
				if c.At != 300 {
					t.Fatalf("%s crash at %d, want simultaneous 300", s.Name, c.At)
				}
				if i > 0 && c.P != s.Crashes[i-1].P+1 {
					t.Fatalf("%s victims not contiguous: %v", s.Name, s.Crashes)
				}
			}
		}
	})

	t.Run("cascade", func(t *testing.T) {
		ss, err := g.Expand(Family{Kind: KindCascade, Count: 3, Seed: 1, Start: 100, Spacing: 50})
		if err != nil {
			t.Fatal(err)
		}
		want := []sim.Time{100, 150, 250} // Start + Spacing·(2^i − 1)
		for i, c := range ss[0].Crashes {
			if c.At != want[i] {
				t.Fatalf("cascade crash %d at %d, want %d", i, c.At, want[i])
			}
		}
	})

	t.Run("partition", func(t *testing.T) {
		ss, err := g.Expand(Family{Kind: KindPartition, Count: 5, Seed: 2, Start: 400, Window: 600})
		if err != nil {
			t.Fatal(err)
		}
		s := ss[0]
		if len(s.Crashes) != 0 || len(s.Holds) != 2 {
			t.Fatalf("partition: %d crashes, %d holds", len(s.Crashes), len(s.Holds))
		}
		a, b := s.Holds[0], s.Holds[1]
		if !a.From.Equal(b.To) || !a.To.Equal(b.From) {
			t.Fatal("partition holds are not symmetric")
		}
		if a.From.Intersects(a.To) {
			t.Fatal("partition blocks overlap")
		}
		if got := a.From.Size() + a.To.Size(); got != n {
			t.Fatalf("partition blocks cover %d of %d", got, n)
		}
		for _, h := range s.Holds {
			if h.Since != 400 || h.Until != 1000 {
				t.Fatalf("partition window [%d,%d), want [400,1000)", h.Since, h.Until)
			}
		}
	})

	t.Run("silence", func(t *testing.T) {
		ss, err := g.Expand(Family{Kind: KindSilence, Count: 2, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		s := ss[0]
		if len(s.Holds) != 1 || s.Holds[0].From.Size() != 2 || !s.Holds[0].To.Equal(ids.FullSet(n)) {
			t.Fatalf("silence schedule malformed: %+v", s)
		}
	})
}

// TestExpandVariantsDiffer: variants of a drawing family are not all
// identical (the generator actually varies the draw).
func TestExpandVariantsDiffer(t *testing.T) {
	g := NewScheduleGen(32, 10)
	ss, err := g.Expand(Family{Kind: KindStaggered, Count: 5, Variants: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	distinct := false
	for _, s := range ss[1:] {
		if !reflect.DeepEqual(s.Crashes, ss[0].Crashes) {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("all 6 staggered variants drew identical schedules")
	}
}

// TestExpandRejects: invalid families fail fast with a clear error.
func TestExpandRejects(t *testing.T) {
	g := NewScheduleGen(8, 3)
	bad := []Family{
		{Kind: "meteor-strike"},
		{Kind: KindStaggered, Count: 4},  // > t
		{Kind: KindClustered, Count: -2}, // negative explicit count is still > t after no defaulting
		{Kind: KindPartition, Count: 8},  // no processes left on the other side
		{Kind: KindSilence, Count: 9},    // larger than the system
	}
	// A negative count defaults like zero, so drop the case that ends up
	// valid and assert the rest reject.
	for i, f := range bad {
		if f.Count < 0 {
			continue
		}
		if _, err := g.Expand(f); err == nil {
			t.Errorf("family %d (%+v) accepted", i, f)
		}
	}
	// Crash-family expansion with t = 0 has no one to crash.
	if _, err := NewScheduleGen(8, 0).Expand(Family{Kind: KindStaggered}); err == nil {
		t.Error("staggered family with t=0 accepted")
	}
}

// TestExpandedSchedulesRun: every generated schedule is a valid sim
// configuration — crash counts respect t, holds validate, and a run
// completes.
func TestExpandedSchedulesRun(t *testing.T) {
	const n, tt = 10, 3
	g := NewScheduleGen(n, tt)
	fams := []Family{
		{Kind: KindStaggered, Variants: 2, Seed: 1},
		{Kind: KindClustered, Count: 2, Seed: 2},
		{Kind: KindCascade, Count: 2, Seed: 3},
		{Kind: KindPartition, Seed: 4},
		{Kind: KindSilence, Seed: 5},
	}
	ss, err := g.ExpandAll(fams)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ss {
		crashes := make(map[ids.ProcID]sim.Time, len(s.Crashes))
		for _, c := range s.Crashes {
			crashes[c.P] = c.At
		}
		cfg := sim.Config{N: n, T: tt, Seed: 1, MaxSteps: 3_000, Crashes: crashes, Holds: s.Holds}
		sys, err := sim.New(cfg)
		if err != nil {
			t.Fatalf("schedule %s rejected by sim: %v", s.Name, err)
		}
		sys.Run(nil)
	}
}

// TestExpandBoundsTicks: a family whose ticks would reach sim.Never —
// where int64 tick arithmetic overflows, or lands on the "never
// crashes" sentinel — is rejected as a whole, and one just inside the
// bound expands. So are an oversized variant count and a system size
// sim would reject.
func TestExpandBoundsTicks(t *testing.T) {
	big := NewScheduleGen(256, 100)
	for _, c := range []struct {
		name string
		g    ScheduleGen
		f    Family
		ok   bool
	}{
		// Crash i of a default cascade falls at 100 + 200·(2^i − 1).
		{"cascade-55", big, Family{Kind: KindCascade, Count: 55}, true},
		{"cascade-56", big, Family{Kind: KindCascade, Count: 56}, false},
		{"cascade-70", big, Family{Kind: KindCascade, Count: 70}, false},
		{"cascade-spacing", big, Family{Kind: KindCascade, Count: 2, Spacing: sim.Never - 100}, false},
		{"staggered-fits", big, Family{Kind: KindStaggered, Count: 5, Start: sim.Never - 1000}, true},
		{"staggered-jitter", big, Family{Kind: KindStaggered, Count: 5, Start: sim.Never - 900}, false},
		{"staggered-spacing", big, Family{Kind: KindStaggered, Count: 100, Spacing: 1 << 56}, false},
		{"clustered-last", big, Family{Kind: KindClustered, Count: 3, Start: sim.Never - 1}, true},
		{"clustered-never", big, Family{Kind: KindClustered, Count: 3, Start: sim.Never}, false},
		{"clustered-maxint", big, Family{Kind: KindClustered, Count: 3, Start: 1<<63 - 1}, false},
		{"partition-fits", big, Family{Kind: KindPartition, Window: sim.Never - 101}, true},
		{"partition-window", big, Family{Kind: KindPartition, Window: sim.Never - 100}, false},
		{"silence-maxint", big, Family{Kind: KindSilence, Start: 100, Window: 1<<63 - 1}, false},
		{"variants-max", NewScheduleGen(8, 3), Family{Kind: KindClustered, Variants: MaxVariants}, true},
		{"variants-over", NewScheduleGen(8, 3), Family{Kind: KindClustered, Variants: MaxVariants + 1}, false},
		{"variants-huge", NewScheduleGen(8, 3), Family{Kind: KindClustered, Variants: 1 << 40}, false},
		{"size-zero", NewScheduleGen(0, 0), Family{Kind: KindPartition, Count: 1}, false},
		{"size-over", NewScheduleGen(1<<40, 3), Family{Kind: KindPartition}, false},
		{"t-equals-n", NewScheduleGen(8, 8), Family{Kind: KindSilence, Count: 1}, false},
		{"t-negative", NewScheduleGen(8, -1), Family{Kind: KindPartition}, false},
	} {
		ss, err := c.g.Expand(c.f)
		if (err == nil) != c.ok {
			t.Errorf("%s: Expand(%+v) error %v, want ok=%v", c.name, c.f, err, c.ok)
			continue
		}
		if err == nil {
			checkSchedules(t, c.g, c.f, ss)
		}
	}
}

// checkSchedules asserts the invariants every expansion keeps: one
// schedule per variant, known victims, every crash at or after the
// family's start and before sim.Never, staggered and cascade crashes in
// ascending time order, and non-empty hold windows that start at the
// family's start and end before sim.Never.
func checkSchedules(t *testing.T, g ScheduleGen, f Family, ss []Schedule) {
	t.Helper()
	if want := max(f.Variants, 1); len(ss) != want {
		t.Fatalf("%+v expanded to %d schedules, want %d", f, len(ss), want)
	}
	start := f.Start
	if start <= 0 {
		start = 100
	}
	for _, s := range ss {
		for i, c := range s.Crashes {
			if c.P < 1 || int(c.P) > g.N {
				t.Fatalf("%s crashes unknown process %d", s.Name, c.P)
			}
			if c.At < start || c.At >= sim.Never {
				t.Fatalf("%s crash %d at %d, outside [%d, sim.Never)", s.Name, i, c.At, start)
			}
			if ascending := f.Kind == KindStaggered || f.Kind == KindCascade; ascending && i > 0 && c.At <= s.Crashes[i-1].At {
				t.Fatalf("%s crash %d at %d, not after crash %d at %d", s.Name, i, c.At, i-1, s.Crashes[i-1].At)
			}
		}
		for _, h := range s.Holds {
			if h.Since != start || h.Since >= h.Until || h.Until >= sim.Never {
				t.Fatalf("%s hold window [%d, %d), want a non-empty window from %d ending before sim.Never", s.Name, h.Since, h.Until, start)
			}
		}
	}
}

// FuzzScheduleGen: expansion of arbitrary families is deterministic,
// and every accepted family keeps checkSchedules' invariants, so no
// tick arithmetic wraps. The seeds are the committed suite's adversary
// families (SCALE-kset, SCALE-psi) at their matrices' sizes, plus the
// cascade that used to overflow at n = 256.
func FuzzScheduleGen(f *testing.F) {
	kinds := []string{KindStaggered, KindClustered, KindCascade, KindPartition, KindSilence, "meteor-strike"}
	kindOf := map[string]uint8{}
	for i, k := range kinds {
		kindOf[k] = uint8(i)
	}
	add := func(n, t int, fam Family) {
		f.Add(n, t, kindOf[fam.Kind], fam.Count, fam.Variants, fam.Seed, int64(fam.Start), int64(fam.Spacing), int64(fam.Window))
	}
	for _, size := range [][2]int{{64, 31}, {96, 47}, {128, 63}, {192, 95}, {256, 127}} {
		add(size[0], size[1], Family{Kind: KindStaggered, Count: 8, Variants: 2, Seed: 11, Start: 100, Spacing: 60})
		add(size[0], size[1], Family{Kind: KindClustered, Count: 8, Seed: 12, Start: 150})
		add(size[0], size[1], Family{Kind: KindPartition, Seed: 13, Start: 100, Window: 400})
	}
	for _, n := range []int{96, 128, 192, 256} {
		add(n, 6, Family{Kind: KindCascade, Count: 3, Variants: 2, Seed: 21, Start: 100, Spacing: 100})
		add(n, 6, Family{Kind: KindClustered, Count: 4, Seed: 22, Start: 200})
	}
	add(256, 100, Family{Kind: KindCascade, Count: 70})
	f.Fuzz(func(t *testing.T, n, tt int, kind uint8, count, variants int, seed, start, spacing, window int64) {
		g := ScheduleGen{N: n, T: tt}
		fam := Family{
			Kind: kinds[int(kind)%len(kinds)], Count: count, Variants: variants, Seed: seed,
			Start: sim.Time(start), Spacing: sim.Time(spacing), Window: sim.Time(window),
		}
		a, errA := g.Expand(fam)
		b, errB := g.Expand(fam)
		if (errA == nil) != (errB == nil) || !reflect.DeepEqual(a, b) {
			t.Fatalf("%+v at n=%d, t=%d expanded differently twice: %v / %v", fam, n, tt, errA, errB)
		}
		if errA == nil {
			checkSchedules(t, g, fam, a)
		}
	})
}
