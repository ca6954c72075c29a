package sweep

import (
	"fmt"
	"strconv"
	"strings"

	"fdgrid/internal/sim"
	"fdgrid/internal/trace"
)

// Perturbation is one declarative counterfactual edit to a cell,
// parsed from a -perturb spec. Exactly one edit per perturbation: the
// point of counterfactual replay is to attribute a divergence to a
// single cause.
//
// Spec grammar (K, P, T are integers; P may be <= 0 for a
// size-relative process, like CrashSpec.Proc):
//
//	gst+K   / gst-K     shift the cell's GST by K ticks
//	stab+K  / stab-K    shift the generated oracle's scripted
//	                    stabilization time by K ticks (parameter
//	                    scripts only; pairs shift both roles)
//	crash=P@T           schedule process P to crash at T (replacing
//	                    P's scheduled crash if the pattern has one)
//	hold[I]+K / hold[I]-K  move the end of the pattern's I-th hold
//	                    window by K ticks (I and K are unsigned digits)
//
// A spec is the whole string: padding or trailing input is an error.
type Perturbation struct {
	kind  string // "gst", "stab", "crash", "hold"
	delta sim.Time
	proc  int
	at    sim.Time
	hold  int
}

// String renders the perturbation's canonical spec from its fields: a
// spec ParsePerturbation accepts parses back to an equal value.
func (p *Perturbation) String() string {
	switch p.kind {
	case "gst", "stab":
		return fmt.Sprintf("%s%+d", p.kind, p.delta)
	case "crash":
		return fmt.Sprintf("crash=%d@%d", p.proc, p.at)
	case "hold":
		return fmt.Sprintf("hold[%d]%+d", p.hold, p.delta)
	}
	return ""
}

// ParsePerturbation parses a -perturb spec (see Perturbation).
func ParsePerturbation(spec string) (*Perturbation, error) {
	p := &Perturbation{}
	fail := func() (*Perturbation, error) {
		return nil, fmt.Errorf(`sweep: bad perturbation %q (want "gst±K", "stab±K", "crash=P@T" or "hold[I]±K")`, spec)
	}
	switch {
	case strings.HasPrefix(spec, "gst+"), strings.HasPrefix(spec, "gst-"),
		strings.HasPrefix(spec, "stab+"), strings.HasPrefix(spec, "stab-"):
		i := strings.IndexAny(spec, "+-")
		p.kind = spec[:i]
		k, err := strconv.ParseInt(spec[i:], 10, 64)
		if err != nil || k == 0 {
			return fail()
		}
		p.delta = sim.Time(k)
	case strings.HasPrefix(spec, "crash="):
		rest := strings.SplitN(spec[len("crash="):], "@", 2)
		if len(rest) != 2 {
			return fail()
		}
		proc, err1 := strconv.Atoi(rest[0])
		at, err2 := strconv.ParseInt(rest[1], 10, 64)
		if err1 != nil || err2 != nil || at < 0 {
			return fail()
		}
		p.kind, p.proc, p.at = "crash", proc, sim.Time(at)
	case strings.HasPrefix(spec, "hold["):
		idx, shift, ok := strings.Cut(spec[len("hold["):], "]")
		if !ok || !unsignedDigits(idx) || shift == "" || (shift[0] != '+' && shift[0] != '-') || !unsignedDigits(shift[1:]) {
			return fail()
		}
		i, err1 := strconv.Atoi(idx)
		k, err2 := strconv.ParseInt(shift, 10, 64)
		if err1 != nil || err2 != nil || k == 0 {
			return fail()
		}
		p.kind, p.hold, p.delta = "hold", i, sim.Time(k)
	default:
		return fail()
	}
	return p, nil
}

// unsignedDigits reports whether s is a non-empty run of ASCII digits.
func unsignedDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// apply edits the cell in place. The cell must already own its mutable
// dimension state (see cloneCellDims); the edit never touches slices
// shared with a baseline cell.
func (p *Perturbation) apply(c *Cell) error {
	switch p.kind {
	case "gst":
		if c.GST+p.delta < 0 {
			return fmt.Errorf("sweep: perturbation %s drives GST below 0 (gst=%d)", p, c.GST)
		}
		c.GST += p.delta
	case "stab":
		s := &c.Oracle
		switch {
		case s.None():
			return fmt.Errorf("sweep: perturbation %s needs a generated oracle; cell has none (use gst±K)", p)
		case s.IsTimeline():
			return fmt.Errorf("sweep: perturbation %s cannot shift timeline script %s (it fixes every output; no stabilization parameter)", p, s.Name)
		case s.IsPair():
			if s.Pair.S.StabilizeAt+p.delta < 0 || s.Pair.Phi.StabilizeAt+p.delta < 0 {
				return fmt.Errorf("sweep: perturbation %s drives a role's stabilization below 0", p)
			}
			s.Pair.S.StabilizeAt += p.delta
			s.Pair.Phi.StabilizeAt += p.delta
		default:
			if s.StabilizeAt+p.delta < 0 {
				return fmt.Errorf("sweep: perturbation %s drives stabilization below 0 (stabilize_at=%d)", p, s.StabilizeAt)
			}
			s.StabilizeAt += p.delta
		}
	case "crash":
		for i, cs := range c.Pattern.Crashes {
			if cs.Proc == p.proc {
				c.Pattern.Crashes[i].At = p.at
				return nil
			}
		}
		c.Pattern.Crashes = append(c.Pattern.Crashes, CrashSpec{Proc: p.proc, At: p.at})
	case "hold":
		if p.hold >= len(c.Pattern.Holds) {
			return fmt.Errorf("sweep: perturbation %s: pattern %q has %d holds", p, c.Pattern.Name, len(c.Pattern.Holds))
		}
		h := &c.Pattern.Holds[p.hold]
		if h.Until+p.delta <= h.Since {
			return fmt.Errorf("sweep: perturbation %s empties hold %d (since=%d until=%d)", p, p.hold, h.Since, h.Until)
		}
		h.Until += p.delta
	default:
		return fmt.Errorf("sweep: unparsed perturbation")
	}
	return nil
}

// cloneCellDims deep-copies the cell state a perturbation may edit, so
// the perturbed cell never scribbles on slices shared with the
// baseline cell (or the matrix definition).
func cloneCellDims(c *Cell) {
	c.Pattern.Crashes = append([]CrashSpec(nil), c.Pattern.Crashes...)
	c.Pattern.Holds = append([]sim.Hold(nil), c.Pattern.Holds...)
	if c.Oracle.Pair != nil {
		pair := *c.Oracle.Pair
		c.Oracle.Pair = &pair
	}
}

// ReplayResult is the outcome of a counterfactual replay: the baseline
// cell re-run traced, the perturbed variant, and the minimal
// divergence point between their traces (nil when the perturbation
// changed nothing observable).
type ReplayResult struct {
	// Cell is the baseline cell (traced at Level).
	Cell Cell
	// Perturbation echoes the applied spec.
	Perturbation string
	// Level is the trace level both runs recorded at.
	Level trace.Level
	// Base and Perturbed are the two runs' results; Perturbed carries
	// the divergence summary in its Divergence key.
	Base, Perturbed CellResult
	// Div is the structured divergence, nil when the traces (and hence
	// the runs) are identical.
	Div *trace.Divergence
}

// Replay re-runs cell index of matrix m twice — as declared, and under
// a single declarative perturbation — with decision tracing forced on,
// and diffs the two traces. Because each run is deterministic, the
// diff's first differing event is the first observable consequence of
// the perturbation: the minimal divergence point. level Off defaults
// to Decisions.
func Replay(m Matrix, index int, pert *Perturbation, level trace.Level) (*ReplayResult, error) {
	if level == trace.Off {
		level = trace.Decisions
	}
	cells, err := m.Cells()
	if err != nil {
		return nil, err
	}
	if index < 0 || index >= len(cells) {
		return nil, fmt.Errorf("sweep: replay index %d outside matrix %q (%d cells)", index, m.Name, len(cells))
	}
	runner, ok := runnerFor(m.Protocol)
	if !ok {
		return nil, fmt.Errorf("sweep: no runner registered for protocol %q", m.Protocol)
	}

	base := cells[index]
	base.TraceLevel = level.String()
	perturbed := base
	cloneCellDims(&perturbed)
	if err := pert.apply(&perturbed); err != nil {
		return nil, err
	}
	if _, err := perturbed.Config(); err != nil {
		return nil, fmt.Errorf("sweep: perturbation %s makes the cell invalid: %w", pert, err)
	}

	rr := &ReplayResult{Cell: base, Perturbation: pert.String(), Level: level}
	rr.Base = runCell(runner, &base)
	rr.Perturbed = runCell(runner, &perturbed)
	rr.Div = trace.Diff(base.rec.Events(), perturbed.rec.Events())
	if rr.Div != nil {
		rr.Perturbed.Divergence = rr.Div.Summary
	}
	return rr, nil
}
