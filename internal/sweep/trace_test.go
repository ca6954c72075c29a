package sweep

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fdgrid/internal/adversary"
	"fdgrid/internal/trace"
)

// replayMatrix is a small kset-omega matrix with a generated late-stab
// parameter oracle — the shape the counterfactual stab±K perturbation
// applies to.
func replayMatrix() Matrix {
	return Matrix{
		Name: "replay-smoke", Protocol: "kset-omega",
		Seeds: []int64{0}, Sizes: []Size{{N: 5, T: 2}},
		Patterns: []CrashPattern{{Name: "late-crash", Crashes: []CrashSpec{{Proc: 4, At: 700}}}},
		Combos:   []Combo{{Z: 2}},
		OracleFamilies: []adversary.OracleFamily{
			{Kind: adversary.OracleLateStab, Seed: 9, Start: 200, Ramp: 200},
		},
		GST: 500, MaxSteps: 100_000,
	}
}

// TestTracedTwiceIdentical: tracing is as deterministic as the run it
// observes — the same traced matrix twice yields byte-identical
// reports, including the trace digests.
func TestTracedTwiceIdentical(t *testing.T) {
	m := smokeMatrix()
	m.TraceLevel = "decisions"
	r1, err := Run(m, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(m, Options{Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := r1.CanonicalJSON()
	b2, _ := r2.CanonicalJSON()
	if !bytes.Equal(b1, b2) {
		t.Fatal("traced runs of the same matrix differ")
	}
	for _, c := range r1.Cells {
		if c.TraceDigest == "" || c.TraceEvents == 0 {
			t.Fatalf("cell %d: traced run reports no trace (digest=%q events=%d)", c.Index, c.TraceDigest, c.TraceEvents)
		}
	}
}

// TestTracedVsUntraced: attaching a recorder never changes the run —
// a traced report differs from the untraced one in the trace keys
// alone. Verified by clearing those keys and byte-comparing.
func TestTracedVsUntraced(t *testing.T) {
	for _, level := range []string{"decisions", "full"} {
		m := smokeMatrix()
		plain, err := Run(m, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		m.TraceLevel = level
		traced, err := Run(m, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := range traced.Cells {
			if traced.Cells[i].Verdict != plain.Cells[i].Verdict {
				t.Fatalf("level %s cell %d: traced verdict %q, untraced %q",
					level, i, traced.Cells[i].Verdict, plain.Cells[i].Verdict)
			}
			traced.Cells[i].TraceDigest = ""
			traced.Cells[i].TraceEvents = 0
		}
		traced.Matrix.TraceLevel = ""
		b1, _ := plain.CanonicalJSON()
		b2, _ := traced.CanonicalJSON()
		if !bytes.Equal(b1, b2) {
			t.Fatalf("level %s: traced report differs beyond the trace keys", level)
		}
	}
}

// TestFullLevelAddsVolume: the full level records everything decisions
// does, plus delivery volume.
func TestFullLevelAddsVolume(t *testing.T) {
	m := smokeMatrix()
	m.TraceLevel = "decisions"
	dec, err := Run(m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.TraceLevel = "full"
	full, err := Run(m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range dec.Cells {
		if full.Cells[i].TraceEvents <= dec.Cells[i].TraceEvents {
			t.Fatalf("cell %d: full level recorded %d events, decisions %d",
				i, full.Cells[i].TraceEvents, dec.Cells[i].TraceEvents)
		}
	}
}

// TestBadTraceLevelRejected: matrix expansion validates the level.
func TestBadTraceLevelRejected(t *testing.T) {
	m := smokeMatrix()
	m.TraceLevel = "verbose"
	if _, err := Run(m, Options{}); err == nil || !strings.Contains(err.Error(), "verbose") {
		t.Fatalf("want unknown-level error, got %v", err)
	}
}

func TestParsePerturbation(t *testing.T) {
	good := []string{"gst+100", "gst-50", "stab+2000", "stab-1", "crash=3@400", "crash=0@10", "hold[0]+500", "hold[2]-40"}
	for _, s := range good {
		p, err := ParsePerturbation(s)
		if err != nil {
			t.Errorf("ParsePerturbation(%q): %v", s, err)
			continue
		}
		if p.String() != s {
			t.Errorf("String() = %q, want %q", p.String(), s)
		}
	}
	// Accepted spellings that are not canonical render canonically.
	for spec, want := range map[string]string{"gst+007": "gst+7", "crash=+3@0400": "crash=3@400", "hold[01]-040": "hold[1]-40"} {
		p, err := ParsePerturbation(spec)
		if err != nil {
			t.Errorf("ParsePerturbation(%q): %v", spec, err)
		} else if p.String() != want {
			t.Errorf("ParsePerturbation(%q).String() = %q, want %q", spec, p.String(), want)
		}
	}
	bad := []string{"", "gst", "gst+", "gst+0", "stab100", "crash=3", "crash=3@-5", "hold[0]", "hold[-1]+5", "banana+1",
		// Padding and trailing input, which a scanf-style parse lets through.
		"hold[1]+5junk", "hold[ 1]+ 5", "hold[ 1]+5", "hold[1]+ 5", "hold[1] +5", "hold[1]+5 ", "hold[+1]+5", "hold[1]++5", "hold[1]+0",
		"gst+5 ", "stab- 5", "crash=3@400x", " gst+5"}
	for _, s := range bad {
		if _, err := ParsePerturbation(s); err == nil {
			t.Errorf("ParsePerturbation(%q) accepted", s)
		}
	}
}

// TestReplayDivergence: a late-stab shift on a traced kset-omega cell
// reports a deterministic divergence — same perturbation, same minimal
// divergence point, run after run.
func TestReplayDivergence(t *testing.T) {
	m := replayMatrix()
	pert, err := ParsePerturbation("stab+2000")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Replay(m, 0, pert, trace.Off) // Off defaults to Decisions
	if err != nil {
		t.Fatal(err)
	}
	if r1.Level != trace.Decisions {
		t.Fatalf("level = %v, want decisions default", r1.Level)
	}
	if r1.Base.Verdict != Pass {
		t.Fatalf("baseline verdict %q: %s", r1.Base.Verdict, r1.Base.Detail)
	}
	if r1.Div == nil {
		t.Fatal("a 2000-tick stabilization shift diverged nothing")
	}
	if r1.Perturbed.Divergence != r1.Div.Summary || r1.Div.Summary == "" {
		t.Fatalf("divergence summary not reported: %+v", r1.Div)
	}
	if r1.Base.TraceDigest == r1.Perturbed.TraceDigest {
		t.Fatal("diverging traces share a digest")
	}
	r2, err := Replay(m, 0, pert, trace.Decisions)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Div.Summary != r1.Div.Summary || r2.Div.Prefix != r1.Div.Prefix ||
		r2.Base.TraceDigest != r1.Base.TraceDigest || r2.Perturbed.TraceDigest != r1.Perturbed.TraceDigest {
		t.Fatalf("replay not deterministic:\n  first: %s\n  second: %s", r1.Div.Summary, r2.Div.Summary)
	}
}

// TestReplayCrashPerturbation: an extra crash diverges the trace, and
// the baseline cell (whose pattern slices the perturbed cell cloned)
// is untouched.
func TestReplayCrashPerturbation(t *testing.T) {
	m := smokeMatrix()
	pert, err := ParsePerturbation("crash=2@600")
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Replay(m, 0, pert, trace.Decisions)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Div == nil {
		t.Fatal("an extra crash diverged nothing")
	}
	if len(rr.Cell.Pattern.Crashes) != 1 {
		t.Fatalf("baseline pattern mutated: %+v", rr.Cell.Pattern.Crashes)
	}
}

// TestReplayWithoutPerturbation: a replay with no perturbation runs
// the declared cell once, and its result is byte for byte that cell of
// the matrix swept traced at the same level.
func TestReplayWithoutPerturbation(t *testing.T) {
	m := smokeMatrix()
	rr, err := Replay(m, 2, nil, trace.Off)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Perturbation != "" || rr.Div != nil || rr.Perturbed.Verdict != "" {
		t.Fatalf("unperturbed replay reports a perturbed run: %+v", rr)
	}
	m.TraceLevel = trace.Decisions.String()
	swept, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(rr.Base)
	want, _ := json.Marshal(swept.Cells[2])
	if !bytes.Equal(got, want) {
		t.Fatalf("replayed cell differs from the traced sweep's:\n%s\n%s", got, want)
	}
}

// TestReplayErrors: misapplicable perturbations are loud errors, not
// silent no-op replays.
func TestReplayErrors(t *testing.T) {
	stab, _ := ParsePerturbation("stab+100")
	if _, err := Replay(smokeMatrix(), 0, stab, trace.Decisions); err == nil ||
		!strings.Contains(err.Error(), "needs a generated oracle") {
		t.Errorf("stab on an oracle-less cell: %v", err)
	}
	hold, _ := ParsePerturbation("hold[3]+100")
	if _, err := Replay(smokeMatrix(), 0, hold, trace.Decisions); err == nil ||
		!strings.Contains(err.Error(), "holds") {
		t.Errorf("hold index out of range: %v", err)
	}
	crash, _ := ParsePerturbation("crash=99@5")
	if _, err := Replay(smokeMatrix(), 0, crash, trace.Decisions); err == nil {
		t.Error("crash of an unknown process accepted")
	}
	gst, _ := ParsePerturbation("gst+1")
	if _, err := Replay(smokeMatrix(), 99, gst, trace.Decisions); err == nil ||
		!strings.Contains(err.Error(), "index") {
		t.Errorf("out-of-range cell index: %v", err)
	}
}

// FuzzParsePerturbation: every input either fails to parse, or parses
// to a perturbation whose canonical spec — rendered from its fields,
// not echoed from the input — parses back to an equal value and
// renders the same. Seeds are the documented forms and the padded and
// trailing inputs a scanf-style parse once let through.
func FuzzParsePerturbation(f *testing.F) {
	for _, seed := range []string{
		"gst+100", "gst-50", "stab+2000", "stab-1", "crash=3@400", "crash=0@10", "crash=-2@7",
		"hold[0]+500", "hold[2]-40", "gst+007", "crash=+3@0400",
		"hold[1]+5junk", "hold[ 1]+ 5", "hold[1]+0", "gst+", "crash=3@-5", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePerturbation(spec)
		if err != nil {
			return
		}
		canon := p.String()
		back, err := ParsePerturbation(canon)
		if err != nil {
			t.Fatalf("%q parsed, but its canonical spec %q does not: %v", spec, canon, err)
		}
		if *back != *p || back.String() != canon {
			t.Fatalf("%q parsed as %+v; its canonical spec %q parses back as %+v", spec, *p, canon, *back)
		}
	})
}
