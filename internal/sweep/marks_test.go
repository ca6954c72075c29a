package sweep

import (
	"fmt"
	"reflect"
	"testing"

	"fdgrid/internal/adversary"
	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/reduction"
	"fdgrid/internal/sim"
	"fdgrid/internal/trace"
)

// unmarkedLeader and unmarkedSuspector pass an emulation's output and
// change hint through but hide its change marks, so a sampler of them
// reads every alive process at every tick it runs: the reference a
// marked sampler must equal.
type unmarkedLeader struct{ e *reduction.OmegaEmulation }

func (u unmarkedLeader) Trusted(p ids.ProcID) ids.Set     { return u.e.Trusted(p) }
func (u unmarkedLeader) NextChange(now sim.Time) sim.Time { return u.e.NextChange(now) }

type unmarkedSuspector struct{ e *reduction.SEmulation }

func (u unmarkedSuspector) Suspected(p ids.ProcID) ids.Set   { return u.e.Suspected(p) }
func (u unmarkedSuspector) NextChange(now sim.Time) sim.Time { return u.e.NextChange(now) }

// sampledRun is what a cell's samplers saw: every process's recorded
// changes, the trace's horizon, the tick the stop predicate ended the
// run at, and the decision trace's digest.
type sampledRun struct {
	samples map[ids.ProcID][]fd.SetSample
	horizon sim.Time
	steps   sim.Time
	early   bool
	digest  string
}

func collect(sys *sim.System, tr *fd.SetTrace, rep sim.Report, rec *trace.Recorder) sampledRun {
	r := sampledRun{samples: map[ids.ProcID][]fd.SetSample{}, horizon: tr.Horizon(),
		steps: rep.Steps, early: rep.StoppedEarly, digest: rec.Digest()}
	for p := 1; p <= sys.Config().N; p++ {
		r.samples[ids.ProcID(p)] = tr.Samples(ids.ProcID(p))
	}
	return r
}

// sampleTwoWheels runs two-wheels cell c as runTwoWheels does up to its
// checks, tracing (at level Full) and watching the emulated Ω_z itself
// when marked is set, else through unmarkedLeader.
func sampleTwoWheels(t *testing.T, c Cell, marked bool) sampledRun {
	t.Helper()
	c.rec = trace.New(trace.Full)
	var res CellResult
	sys, o, ok := c.proto.setup(&c, &res)
	if !ok {
		t.Fatalf("cell %d: %s", c.Index, res.Detail)
	}
	emu := spawnTwoWheels(&c, sys, o)
	var l fd.Leader = emu
	if !marked {
		l = unmarkedLeader{emu}
	}
	fd.TraceLeader(sys, l, "emu")
	tr := fd.WatchLeaderSparse(sys, l)
	rep := sys.Run(tr.StableFor(sys.Pattern().Correct(), sim.Time(c.Param("stable_for"))))
	return collect(sys, tr, rep, c.rec)
}

// sampleAddS is sampleTwoWheels for add-s cells.
func sampleAddS(t *testing.T, c Cell, marked bool) sampledRun {
	t.Helper()
	c.rec = trace.New(trace.Full)
	var res CellResult
	sys, o, ok := c.proto.setup(&c, &res)
	if !ok {
		t.Fatalf("cell %d: %s", c.Index, res.Detail)
	}
	emu := spawnAddS(&c, sys, o)
	var s fd.Suspector = emu
	if !marked {
		s = unmarkedSuspector{emu}
	}
	fd.TraceSuspector(sys, s, "emu")
	tr := fd.WatchSuspectorSparse(sys, s)
	rep := sys.Run(tr.StableFor(sys.Pattern().Correct(), addSRest(&c)))
	return collect(sys, tr, rep, c.rec)
}

// markedMatrices are the sweeps TestChangeMarkedSamplingExact samples,
// traced at level full: two-wheels over the three F2-additivity-pairs
// oracle pairs, and add-s on all three register substrates.
func markedMatrices() []Matrix {
	return []Matrix{{
		Name: "two-wheels-pairs", Protocol: "two-wheels", Seeds: []int64{0, 1, 2},
		Sizes:    []Size{{N: 5, T: 2}},
		Patterns: []CrashPattern{{Name: "late-crash", Crashes: []CrashSpec{{Proc: 4, At: 800}}}},
		Combos:   []Combo{{X: 2, Y: 1}},
		OraclePairFamilies: []adversary.OraclePairFamily{
			{S: adversary.OracleFamily{Kind: adversary.OracleScopeChurn, X: 2, Seed: 61, Settle: []int{1, 2}},
				Phi: adversary.OracleFamily{Kind: adversary.OracleLateStab, Y: 1, Seed: 62, Start: 20_000, Ramp: 1}},
			{S: adversary.OracleFamily{Kind: adversary.OracleScopeChurn, X: 2, Seed: 63, Flaps: 10, Period: 120, Settle: []int{1, 2}},
				Phi: adversary.OracleFamily{Kind: adversary.OracleAnarchyBurst, Y: 1, Seed: 64, RatePermille: 950}},
			{S: adversary.OracleFamily{Kind: adversary.OracleLateStab, X: 2, Seed: 65, Start: 8_000, Ramp: 1},
				Phi: adversary.OracleFamily{Kind: adversary.OracleLateStab, Y: 1, Seed: 66, Start: 12_000, Ramp: 1}},
		},
		Bandwidth: 10, GST: 600, MaxSteps: 160_000,
		Params:     map[string]int64{"stable_for": 12_000, "margin": 10_000},
		TraceLevel: trace.Full.String(),
	}, {
		Name: "add-s-substrates", Protocol: "add-s", Seeds: []int64{0, 1, 2},
		Sizes:    []Size{{N: 5, T: 2}},
		Patterns: []CrashPattern{{Name: "mid-crash", Crashes: []CrashSpec{{Proc: 3, At: 800}}}},
		Combos:   []Combo{{Name: "memory", X: 2, Y: 1}, {Name: "heartbeat", X: 2, Y: 1}, {Name: "abd", X: 2, Y: 1}},
		MaxSteps: 120_000, Params: map[string]int64{"margin": 10_000, "perpetual": 1},
		TraceLevel: trace.Full.String(),
	}}
}

// TestChangeMarkedSamplingExact: the sparse samplers of an emulation
// with change marks read only the processes marked since their last
// tick, plus every alive process on the first tick and at the hint's
// ticks. For two-wheels over the three F2-additivity-pairs oracle pairs
// (scope churn, a 950‰ anarchy burst, late stabilization) and add-s on
// all three register substrates, the marked run must equal the one that
// samples every alive process at every tick, sample for sample, with the
// same horizon, the same StableFor stop tick and the same decision trace
// digest, and that digest, with the trace sampler beside the watcher on
// one emulation, must be the runner's own.
func TestChangeMarkedSamplingExact(t *testing.T) {
	sample := map[string]func(*testing.T, Cell, bool) sampledRun{
		"two-wheels": sampleTwoWheels, "add-s": sampleAddS,
	}
	for _, m := range markedMatrices() {
		cells, err := m.Cells()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			name := fmt.Sprintf("%s:%d (%s %s)", m.Name, c.Index, c.Combo.Name, c.Oracle.Name)
			marked, full := sample[m.Protocol](t, c, true), sample[m.Protocol](t, c, false)
			if !reflect.DeepEqual(marked.samples, full.samples) {
				t.Errorf("%s: marked samples differ from the every-process samples", name)
			}
			if marked.horizon != full.horizon || marked.steps != full.steps || marked.early != full.early {
				t.Errorf("%s: marked run horizon %d, stop at %d (early %v); every-process run %d, %d (%v)", name,
					marked.horizon, marked.steps, marked.early, full.horizon, full.steps, full.early)
			}
			if !marked.early {
				t.Errorf("%s: StableFor never stopped the run", name)
			}
			if marked.digest != full.digest {
				t.Errorf("%s: marked trace digest %s, every-process trace %s", name, marked.digest, full.digest)
			}
			res := runCell(c.proto.run, &c)
			if res.TraceDigest != marked.digest || res.Steps != marked.steps {
				t.Errorf("%s: runner digest %s at tick %d, sampled run %s at %d", name,
					res.TraceDigest, res.Steps, marked.digest, marked.steps)
			}
		}
	}
}
