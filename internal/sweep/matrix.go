// Package sweep is the parallel scenario-sweep engine: it expands a
// declarative Matrix — dimensions: seeds × system sizes × crash patterns
// × failure-detector class combinations — into concrete cells, fans the
// cells out across a worker pool (each cell runs its own isolated
// sim.System), and aggregates the per-cell results into a reproducible
// JSON report.
//
// Because the simulator is lockstep-deterministic, a cell's result is a
// pure function of the cell: running the same Matrix twice yields
// byte-identical canonical reports, regardless of worker count or
// scheduling. That is what makes a sweep a reproducible experiment
// rather than a load test.
package sweep

import (
	"fmt"

	"fdgrid/internal/adversary"
	"fdgrid/internal/agreement"
	"fdgrid/internal/core"
	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
	"fdgrid/internal/trace"
)

// Size is one system-size point: n processes, resilience bound t.
type Size struct {
	N int `json:"n"`
	T int `json:"t"`
}

// CrashSpec schedules one crash. Proc > 0 names the process absolutely;
// Proc <= 0 is relative to the cell's size (0 = p_n, -1 = p_{n-1}, …),
// so one pattern can say "crash the last process at 400" across sizes.
type CrashSpec struct {
	Proc int      `json:"proc"`
	At   sim.Time `json:"at"`
}

// CrashPattern is one adversary dimension point: scheduled crashes plus
// optional scripted message holds.
type CrashPattern struct {
	Name    string      `json:"name"`
	Crashes []CrashSpec `json:"crashes,omitempty"`
	Holds   []sim.Hold  `json:"holds,omitempty"`
}

// Combo is one failure-detector dimension point. Which fields matter
// depends on the protocol under test: grid cells use Family/Param (a
// single grid class), addition cells use the X and Y scopes, Z overrides
// the target set size / agreement degree (0 = derive from the paper's
// formulas). Trusted optionally pins an Ω oracle's final set; Name
// selects protocol variants (e.g. the register substrate of add-s).
type Combo struct {
	Name    string      `json:"name,omitempty"`
	Family  core.Family `json:"family,omitempty"`
	Param   int         `json:"param,omitempty"`
	X       int         `json:"x,omitempty"`
	Y       int         `json:"y,omitempty"`
	Z       int         `json:"z,omitempty"`
	Trusted []int       `json:"trusted,omitempty"`
	Region  []int       `json:"region,omitempty"` // adversary region E (irreducibility cells)
}

// set converts an []int field to a process set.
func set(ps []int) ids.Set {
	var s ids.Set
	for _, p := range ps {
		s = s.Add(ids.ProcID(p))
	}
	return s
}

// Class returns the grid class a Family/Param combo denotes.
func (c Combo) Class() core.Class { return core.Class{Fam: c.Family, Param: c.Param} }

// String renders a short label for tables.
func (c Combo) String() string {
	if c.Name != "" {
		return c.Name
	}
	if c.Family != 0 {
		return c.Class().String()
	}
	return fmt.Sprintf("x=%d,y=%d,z=%d", c.X, c.Y, c.Z)
}

// Matrix declares a scenario sweep: the protocol under test and the
// dimensions whose cross product forms the cells. Patterns and Combos
// may be left empty (one zero-value point each); Seeds and Sizes must be
// explicit.
type Matrix struct {
	// Name identifies the sweep in reports.
	Name string `json:"name"`
	// Protocol selects the row of the protocol table (runners.go) that
	// runs every cell.
	Protocol string `json:"protocol"`
	// Claim is the paper claim the sweep checks (report prose).
	Claim string `json:"claim,omitempty"`

	Seeds    []int64        `json:"seeds"`
	Sizes    []Size         `json:"sizes"`
	Patterns []CrashPattern `json:"patterns,omitempty"`
	Combos   []Combo        `json:"combos,omitempty"`

	// AdversaryFamilies declares generated adversary dimension points:
	// each family expands, per size, into concrete crash patterns via
	// adversary.ScheduleGen (deterministically — the same matrix always
	// sweeps the same schedules). Generated patterns follow the explicit
	// Patterns in the pattern dimension.
	AdversaryFamilies []adversary.Family `json:"adversary_families,omitempty"`

	// OracleFamilies declares generated oracle dimension points: each
	// family expands, per size, into concrete oracle scripts via
	// adversary.OracleGen (same deterministic-expansion contract as
	// AdversaryFamilies). A matrix without oracle families sweeps a
	// single "no generated oracle" point, leaving cell expansion
	// unchanged. Runners resolve a script into a scripted fd driver
	// (leader/suspector timelines) or ground-truth oracle parameters,
	// and tag every cell with the script's conformance verdict.
	OracleFamilies []adversary.OracleFamily `json:"oracle_families,omitempty"`

	// OraclePairFamilies declares generated paired-oracle dimension
	// points for the addition protocols (two-wheels, add-s), which read
	// two oracles at once. Each pair family expands per size into joint
	// scripts carrying one script per role (adversary.ExpandPair),
	// appended after the single-script expansions in the oracle
	// dimension — same deterministic-expansion and zero-point-when-
	// absent contract as OracleFamilies.
	OraclePairFamilies []adversary.OraclePairFamily `json:"oracle_pair_families,omitempty"`

	// GST and MaxSteps apply to every cell; Bandwidth 0 means "n".
	GST       sim.Time `json:"gst"`
	MaxSteps  sim.Time `json:"max_steps"`
	Bandwidth int      `json:"bandwidth,omitempty"`

	// Params carries protocol-specific knobs (margins, pacing marks,
	// instance counts, …), passed to every cell. Each protocol declares
	// the keys it reads (runners.go, docs/REPORT_SCHEMA.md), and a key
	// its protocol does not declare is an error (see Lookup).
	Params map[string]int64 `json:"params,omitempty"`

	// TraceLevel selects decision tracing for every cell: "" or "off"
	// (the default — no recorder is attached and reports are
	// byte-identical to pre-tracing goldens), "decisions" (crashes,
	// oracle output changes, round commits, decides, wheel moves) or
	// "full" (adds per-tick delivery and hold-release volume). Traced
	// cells report trace_digest/trace_events; tracing never changes a
	// verdict or any other report field (see internal/trace).
	TraceLevel string `json:"trace_level,omitempty"`
}

// Cell is one concrete point of the matrix cross product.
type Cell struct {
	Index    int          `json:"index"`
	Matrix   string       `json:"matrix"`
	Protocol string       `json:"protocol"`
	Seed     int64        `json:"seed"`
	Size     Size         `json:"size"`
	Pattern  CrashPattern `json:"pattern"`
	Combo    Combo        `json:"combo"`

	// Oracle is the cell's generated oracle dimension point (the zero
	// value when the matrix declares no OracleFamilies).
	Oracle adversary.OracleScript `json:"oracle,omitempty"`

	GST       sim.Time         `json:"gst"`
	MaxSteps  sim.Time         `json:"max_steps"`
	Bandwidth int              `json:"bandwidth,omitempty"`
	Params    map[string]int64 `json:"params,omitempty"`

	// TraceLevel is the matrix's TraceLevel, copied per cell so a single
	// cell can be re-run traced (see Replay).
	TraceLevel string `json:"trace_level,omitempty"`

	// rec is the cell's decision-trace recorder, created by runCell when
	// TraceLevel asks for one and attached to the cell's System.
	rec *trace.Recorder
	// buf and arena are the network storage and k-set round boxes of the
	// pool worker running the cell, lent to each System and each k-set
	// Outcome the cell runs (see sim.Buffers, agreement.RoundArena); nil
	// outside the pool, where runs start from empty capacity.
	buf   *sim.Buffers
	arena *agreement.RoundArena
	// proto is the cell's row of the protocol table (nil: none).
	proto *protocol
}

// Param returns the protocol knob key: the matrix's value, or else the
// default the cell's protocol declares for it. Each protocol declares
// the keys it reads (runners.go); reading a key it does not declare
// panics.
func (c *Cell) Param(key string) int64 {
	if v, ok := c.Params[key]; ok {
		return v
	}
	var d *param
	if c.proto != nil {
		d = c.proto.param(key)
	}
	switch {
	case d == nil:
		panic(fmt.Sprintf("sweep: protocol %q reads undeclared param %q", c.Protocol, key))
	case d.derive != nil:
		return d.derive(c)
	}
	return d.def
}

// Config resolves the cell into a simulator configuration: relative
// crash specs are resolved against the cell's size, bandwidth 0 becomes
// n, and the result is validated by sim.New's rules.
func (c *Cell) Config() (sim.Config, error) {
	crashes := make(map[ids.ProcID]sim.Time, len(c.Pattern.Crashes))
	for _, cs := range c.Pattern.Crashes {
		p := cs.Proc
		if p <= 0 {
			p = c.Size.N + p
		}
		if p < 1 || p > c.Size.N {
			return sim.Config{}, fmt.Errorf("sweep: crash spec %+v resolves to process %d outside 1..%d", cs, p, c.Size.N)
		}
		if _, dup := crashes[ids.ProcID(p)]; dup {
			return sim.Config{}, fmt.Errorf("sweep: crash pattern %q schedules process %d twice", c.Pattern.Name, p)
		}
		crashes[ids.ProcID(p)] = cs.At
	}
	bw := c.Bandwidth
	if bw == 0 {
		bw = c.Size.N
	}
	return sim.Config{
		N:         c.Size.N,
		T:         c.Size.T,
		Seed:      c.Seed,
		MaxSteps:  c.MaxSteps,
		GST:       c.GST,
		Crashes:   crashes,
		Holds:     c.Pattern.Holds,
		Bandwidth: bw,
	}, nil
}

// System builds the cell's isolated simulator instance, with the
// cell's trace recorder (if any) and its worker's network buffers
// attached.
func (c *Cell) System() (*sim.System, error) {
	cfg, err := c.Config()
	if err != nil {
		return nil, err
	}
	sys, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	if c.rec != nil {
		sys.TraceTo(c.rec)
	}
	sys.UseBuffers(c.buf)
	return sys, nil
}

// patternsFor resolves the matrix's pattern dimension for one size: the
// explicit Patterns followed by the expansion of every adversary
// family. Sizes expand independently because generated victims and
// block splits depend on (n, t).
func (m *Matrix) patternsFor(size Size) ([]CrashPattern, error) {
	patterns := m.Patterns
	if len(m.AdversaryFamilies) > 0 {
		gen := adversary.NewScheduleGen(size.N, size.T)
		schedules, err := gen.ExpandAll(m.AdversaryFamilies)
		if err != nil {
			return nil, fmt.Errorf("sweep: matrix %q size n=%d: %w", m.Name, size.N, err)
		}
		// Clone before appending: the expansion must not scribble on the
		// caller's Patterns backing array across sizes.
		patterns = append(make([]CrashPattern, 0, len(m.Patterns)+len(schedules)), m.Patterns...)
		for _, s := range schedules {
			p := CrashPattern{Name: s.Name, Holds: s.Holds}
			for _, c := range s.Crashes {
				p.Crashes = append(p.Crashes, CrashSpec{Proc: int(c.P), At: c.At})
			}
			patterns = append(patterns, p)
		}
	}
	if len(patterns) == 0 {
		patterns = []CrashPattern{{Name: "none"}}
	}
	return patterns, nil
}

// oraclesFor resolves the matrix's generated-oracle dimension for one
// size: the expansion of every oracle family (singles, then pairs), or
// a single zero-value point when the matrix declares none of either.
// Sizes expand independently because drawn timelines and scopes depend
// on (n, t).
func (m *Matrix) oraclesFor(size Size) ([]adversary.OracleScript, error) {
	if len(m.OracleFamilies) == 0 && len(m.OraclePairFamilies) == 0 {
		return []adversary.OracleScript{{}}, nil
	}
	gen := adversary.NewOracleGen(size.N, size.T)
	scripts, err := gen.ExpandSuite(m.OracleFamilies, m.OraclePairFamilies)
	if err != nil {
		return nil, fmt.Errorf("sweep: matrix %q size n=%d: %w", m.Name, size.N, err)
	}
	return scripts, nil
}

// Cells expands the matrix into its cross product, in the documented
// deterministic order: sizes (outermost) × patterns (explicit, then
// generated) × combos × oracle scripts × seeds (innermost). Empty
// Patterns/Combos expand as a single zero-value point, as does an empty
// OracleFamilies list; empty Seeds or Sizes is an error — a sweep with
// no runs is almost always a bug in the matrix definition.
func (m *Matrix) Cells() ([]Cell, error) {
	if m.Protocol == "" {
		return nil, fmt.Errorf("sweep: matrix %q has no protocol", m.Name)
	}
	if len(m.Seeds) == 0 {
		return nil, fmt.Errorf("sweep: matrix %q has no seeds", m.Name)
	}
	if len(m.Sizes) == 0 {
		return nil, fmt.Errorf("sweep: matrix %q has no sizes", m.Name)
	}
	if m.MaxSteps <= 0 {
		return nil, fmt.Errorf("sweep: matrix %q has MaxSteps=%d", m.Name, m.MaxSteps)
	}
	if _, err := trace.ParseLevel(m.TraceLevel); err != nil {
		return nil, fmt.Errorf("sweep: matrix %q: %w", m.Name, err)
	}
	combos := m.Combos
	if len(combos) == 0 {
		combos = []Combo{{}}
	}
	proto := protocolNamed(m.Protocol)
	cells := make([]Cell, 0, len(m.Sizes)*(len(m.Patterns)+1)*len(combos)*len(m.Seeds))
	for _, size := range m.Sizes {
		patterns, err := m.patternsFor(size)
		if err != nil {
			return nil, err
		}
		oracles, err := m.oraclesFor(size)
		if err != nil {
			return nil, err
		}
		for _, pat := range patterns {
			for _, combo := range combos {
				for _, oracle := range oracles {
					for _, seed := range m.Seeds {
						c := Cell{
							Index:      len(cells),
							Matrix:     m.Name,
							Protocol:   m.Protocol,
							Seed:       seed,
							Size:       size,
							Pattern:    pat,
							Combo:      combo,
							Oracle:     oracle,
							GST:        m.GST,
							MaxSteps:   m.MaxSteps,
							Bandwidth:  m.Bandwidth,
							Params:     m.Params,
							TraceLevel: m.TraceLevel,
							proto:      proto,
						}
						if _, err := c.Config(); err != nil {
							return nil, err
						}
						cells = append(cells, c)
					}
				}
			}
		}
	}
	return cells, nil
}
