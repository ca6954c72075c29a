package fdgrid_test

import (
	"fmt"
	"testing"

	"fdgrid"
)

// TestFacadeQuickstart exercises the public API end to end, as the
// README shows it.
func TestFacadeQuickstart(t *testing.T) {
	cfg := fdgrid.Config{
		N: 5, T: 2, Seed: 1, MaxSteps: 1_000_000, GST: 500,
		Crashes:   map[fdgrid.ProcID]fdgrid.Time{4: 700},
		Bandwidth: 5,
	}
	sys := fdgrid.MustNewSystem(cfg)
	oracle := fdgrid.NewOmega(sys, 2)
	out := fdgrid.NewOutcome()
	for p := 1; p <= cfg.N; p++ {
		sys.Spawn(fdgrid.ProcID(p), fdgrid.KSetMain(oracle, fdgrid.Value(100+p), out))
	}
	rep := sys.Run(out.AllDecided(sys.Pattern().Correct()))
	if !rep.StoppedEarly {
		t.Fatal("timed out")
	}
	if err := out.Check(sys.Pattern(), 2); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeAddOmega exercises the one-call additivity experiment.
func TestFacadeAddOmega(t *testing.T) {
	cfg := fdgrid.Config{
		N: 5, T: 2, Seed: 5, MaxSteps: 200_000, GST: 500, Bandwidth: 5,
	}
	trace, sys, rep, err := fdgrid.AddOmega(cfg, 2, 1, 15_000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.StoppedEarly {
		t.Fatal("did not stabilize within budget")
	}
	if err := trace.CheckOmega(sys.Pattern(), 1, 10_000); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeAddOmegaBadConfig propagates config errors.
func TestFacadeAddOmegaBadConfig(t *testing.T) {
	if _, _, _, err := fdgrid.AddOmega(fdgrid.Config{N: 0}, 1, 0, 0); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestFacadeGrid exercises the grid API.
func TestFacadeGrid(t *testing.T) {
	c := fdgrid.Class{Fam: fdgrid.FamEvtS, Param: 3}
	if got := fdgrid.KSetPower(c, 3); got != 2 {
		t.Errorf("KSetPower = %d", got)
	}
	line := fdgrid.GridLine(2, 3)
	if len(line) != 6 {
		t.Errorf("GridLine has %d classes", len(line))
	}
	v := fdgrid.CanTransform(
		[]fdgrid.Class{{Fam: fdgrid.FamEvtS, Param: 3}, {Fam: fdgrid.FamEvtPhi, Param: 1}},
		fdgrid.Class{Fam: fdgrid.FamOmega, Param: 1}, 3)
	if !v.OK {
		t.Errorf("motivating addition rejected: %s", v.Reason)
	}
}

// ExampleCanTransform shows the paper's motivating addition as a
// reducibility query.
func ExampleCanTransform() {
	const t = 3
	v := fdgrid.CanTransform(
		[]fdgrid.Class{{Fam: fdgrid.FamEvtS, Param: t}, {Fam: fdgrid.FamEvtPhi, Param: 1}},
		fdgrid.Class{Fam: fdgrid.FamOmega, Param: 1}, t)
	fmt.Println(v.OK)
	// Output: true
}

// ExampleKSetPower shows grid-line lookups.
func ExampleKSetPower() {
	const t = 3
	fmt.Println(fdgrid.KSetPower(fdgrid.Class{Fam: fdgrid.FamOmega, Param: 2}, t))
	fmt.Println(fdgrid.KSetPower(fdgrid.Class{Fam: fdgrid.FamEvtS, Param: t + 1}, t))
	fmt.Println(fdgrid.KSetPower(fdgrid.Class{Fam: fdgrid.FamPhi, Param: 0}, t))
	// Output:
	// 2
	// 1
	// 4
}

// TestSweepTopLevel drives the exported scenario-sweep engine end to
// end: a small k-set matrix runs in parallel, passes, and reproduces
// byte-identically.
func TestSweepTopLevel(t *testing.T) {
	m := fdgrid.SweepMatrix{
		Name: "top-level", Protocol: "kset-omega",
		Seeds: []int64{0, 1}, Sizes: []fdgrid.SweepSize{{N: 5, T: 2}},
		Patterns: []fdgrid.SweepCrashPattern{{Name: "last-crashes",
			Crashes: []fdgrid.SweepCrashSpec{{Proc: 0, At: 300}}}},
		Combos: []fdgrid.SweepCombo{{Z: 2}},
		GST:    200, MaxSteps: 400_000,
	}
	r1, err := fdgrid.Sweep(m, fdgrid.SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.OK() {
		t.Fatalf("sweep failed: %s", r1.Summary())
	}
	r2, err := fdgrid.Sweep(m, fdgrid.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := r1.CanonicalJSON()
	j2, _ := r2.CanonicalJSON()
	if string(j1) != string(j2) {
		t.Fatal("top-level sweep reports are not byte-identical")
	}
	if len(fdgrid.SweepProtocols()) < 10 {
		t.Errorf("expected the built-in protocol table, got %v", fdgrid.SweepProtocols())
	}
}

// TestSweepShardedGeneratedAdversaries drives the PR-3 surface through
// the facade: a matrix whose adversary dimension is generated
// (AdversaryFamily), run as two shards and merged back byte-identically
// to the unsharded report.
func TestSweepShardedGeneratedAdversaries(t *testing.T) {
	m := fdgrid.SweepMatrix{
		Name: "top-level-gen", Protocol: "kset-omega",
		Seeds: []int64{0}, Sizes: []fdgrid.SweepSize{{N: 6, T: 2}},
		AdversaryFamilies: []fdgrid.AdversaryFamily{
			{Kind: "staggered", Count: 2, Variants: 2, Seed: 3, Start: 200},
		},
		Combos: []fdgrid.SweepCombo{{Z: 2}},
		GST:    300, MaxSteps: 400_000,
	}
	full, err := fdgrid.Sweep(m, fdgrid.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !full.OK() {
		t.Fatalf("generated-adversary sweep failed: %s", full.Summary())
	}
	want, _ := full.CanonicalJSON()
	var parts []*fdgrid.SweepReport
	for i := 0; i < 2; i++ {
		p, err := fdgrid.Sweep(m, fdgrid.SweepOptions{Shard: fdgrid.SweepShard{Index: i, Count: 2}})
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	merged, err := fdgrid.MergeSweepReports(parts)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := merged.CanonicalJSON()
	if string(got) != string(want) {
		t.Fatal("merged shard reports differ from the unsharded run")
	}
}
