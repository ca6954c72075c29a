// Package fdgrid is a Go reproduction of "Irreducibility and Additivity
// of Set Agreement-oriented Failure Detector Classes" (Mostefaoui,
// Rajsbaum, Raynal, Travers — PODC 2006 / IRISA PI 1758).
//
// It provides, over a simulated asynchronous message-passing system
// AS[n,t]:
//
//   - executable failure detector classes S_x, ◇S_x, Ω_z, φ_y, ◇φ_y,
//     Ψ_y (and P ≡ φ_t, ◇P ≡ ◇φ_t);
//   - the paper's Ω_z-based k-set agreement algorithm (its Fig. 3),
//     with the ◇S-based consensus ancestor as a baseline;
//   - the transformation algorithms: the two-wheels addition
//     ◇S_x + ◇φ_y → Ω_{t+2−x−y} (Figs. 5–6), Ψ_y → Ω_z (Fig. 8) and
//     S_x + φ_y → S_n (Fig. 9);
//   - the reducibility grid (Fig. 1) as a queryable table and as
//     runnable constructions;
//   - trace checkers for every class property and for the agreement
//     problem, plus the adversarial run pairs behind the paper's
//     irreducibility theorems.
//
// # Quick start
//
//	cfg := fdgrid.Config{N: 5, T: 2, Seed: 1, MaxSteps: 500_000, GST: 500, Bandwidth: 5}
//	sys := fdgrid.MustNewSystem(cfg)
//	out, _ := fdgrid.SpawnKSetWith(sys, fdgrid.Class{Fam: fdgrid.FamOmega, Param: 2}, nil)
//	sys.Run(out.AllDecided(sys.Pattern().Correct()))
//	err := out.Check(sys.Pattern(), 2) // validity, 2-agreement, termination
//
// The deeper layers remain importable inside this module:
// internal/sim (runtime), internal/fd (oracles and checkers),
// internal/reduction (transformations), internal/agreement (protocols),
// internal/core (the grid).
package fdgrid

import (
	"fdgrid/internal/adversary"
	"fdgrid/internal/agreement"
	"fdgrid/internal/core"
	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/reduction"
	"fdgrid/internal/sim"
	"fdgrid/internal/sweep"
)

// Identity and set types.
type (
	// ProcID identifies a process (1..n).
	ProcID = ids.ProcID
	// Set is an immutable set of process identities.
	Set = ids.Set
)

// NewSet builds a set of process identities.
func NewSet(members ...ProcID) Set { return ids.NewSet(members...) }

// FullSet returns {1..n}.
func FullSet(n int) Set { return ids.FullSet(n) }

// Simulation types.
type (
	// Config parameterizes a run of the asynchronous system AS[n,t].
	Config = sim.Config
	// System is one simulated system instance.
	System = sim.System
	// Time is virtual time, in scheduler ticks.
	Time = sim.Time
	// Hold scripts adversarial message delays.
	Hold = sim.Hold
	// Pattern is a run's failure pattern.
	Pattern = sim.Pattern
	// Report summarizes a finished run.
	Report = sim.Report
	// Tag is an interned message tag: protocols intern their tag names
	// once (see Intern) and the wire carries small integer ids, while
	// metrics snapshots stay string-keyed.
	Tag = sim.Tag
	// Message is a point-to-point message as delivered to a process.
	Message = sim.Message
	// MetricsSnapshot is the string-keyed per-tag traffic summary of a
	// finished run.
	MetricsSnapshot = sim.MetricsSnapshot
)

// Intern returns the Tag for a message-tag name, allocating it on first
// use; idempotent and safe for concurrent use.
func Intern(name string) Tag { return sim.Intern(name) }

// NewSystem builds a system from cfg.
func NewSystem(cfg Config) (*System, error) { return sim.New(cfg) }

// MustNewSystem is NewSystem for statically valid configurations.
func MustNewSystem(cfg Config) *System { return sim.MustNew(cfg) }

// Failure detector interfaces and oracles.
type (
	// Suspector is the S_x / ◇S_x output interface.
	Suspector = fd.Suspector
	// Leader is the Ω_z output interface.
	Leader = fd.Leader
	// Querier is the φ_y / ◇φ_y / Ψ_y output interface.
	Querier = fd.Querier
	// OracleOption configures a ground-truth oracle.
	OracleOption = fd.Option
)

// Ground-truth oracle constructors (see internal/fd for options).
var (
	// NewS returns an S_x oracle (perpetual limited-scope accuracy).
	NewS = fd.NewS
	// NewEvtS returns a ◇S_x oracle.
	NewEvtS = fd.NewEvtS
	// NewOmega returns an Ω_z oracle.
	NewOmega = fd.NewOmega
	// NewPhi returns a φ_y oracle.
	NewPhi = fd.NewPhi
	// NewEvtPhi returns a ◇φ_y oracle.
	NewEvtPhi = fd.NewEvtPhi
	// NewP returns a perfect failure detector (φ_t ≡ P).
	NewP = fd.NewP
	// NewEvtP returns an eventually perfect failure detector (◇φ_t).
	NewEvtP = fd.NewEvtP
	// WrapPsi adds the Ψ containment contract to a φ oracle.
	WrapPsi = fd.WrapPsi

	// WithStabilizeAt, WithLeader, WithScope, WithTrusted, WithHostile,
	// WithAnarchyRate, WithEpoch, WithLag, WithLeaderSalt configure
	// oracles.
	WithStabilizeAt = fd.WithStabilizeAt
	WithLeader      = fd.WithLeader
	WithScope       = fd.WithScope
	WithTrusted     = fd.WithTrusted
	WithHostile     = fd.WithHostile
	WithAnarchyRate = fd.WithAnarchyRate
	WithEpoch       = fd.WithEpoch
	WithLag         = fd.WithLag
	WithLeaderSalt  = fd.WithLeaderSalt
)

// Trace recording and class checking.
type (
	// SetTrace records set-valued oracle outputs over a run.
	SetTrace = fd.SetTrace
)

var (
	// WatchLeader records trusted-set outputs for later checking.
	WatchLeader = fd.WatchLeader
	// WatchSuspector records suspected-set outputs.
	WatchSuspector = fd.WatchSuspector
)

// Agreement.
type (
	// Value is a proposal / decision value.
	Value = agreement.Value
	// Decision records one process's decision.
	Decision = agreement.Decision
	// Outcome collects proposals and decisions.
	Outcome = agreement.Outcome
)

// NewOutcome returns an empty outcome recorder.
func NewOutcome() *Outcome { return agreement.NewOutcome() }

// KSetMain returns a process main running the paper's Ω_z-based k-set
// agreement algorithm (Fig. 3) with the given leader oracle.
var KSetMain = agreement.KSetMain

// ConsensusDSMain returns a process main running the ◇S-based consensus
// baseline (rotating coordinator).
var ConsensusDSMain = agreement.ConsensusDSMain

// SequenceMain returns a process main running consecutive independent
// k-set instances (the repeated use-case behind zero-degradation).
var SequenceMain = agreement.SequenceMain

// AllInstancesDecided builds a stop predicate over a sequence's outcomes.
var AllInstancesDecided = agreement.AllInstancesDecided

// The grid.
type (
	// Family enumerates the failure detector families.
	Family = core.Family
	// Class is one failure detector class of the grid.
	Class = core.Class
	// Verdict answers a reducibility query.
	Verdict = core.Verdict
)

// Families (paper Fig. 1).
const (
	FamS      = core.FamS
	FamEvtS   = core.FamEvtS
	FamOmega  = core.FamOmega
	FamPhi    = core.FamPhi
	FamEvtPhi = core.FamEvtPhi
	FamPsi    = core.FamPsi
)

var (
	// KSetPower returns the smallest k the class solves k-set agreement
	// for (its grid line).
	KSetPower = core.KSetPower
	// GridLine returns the classes on line z of the grid.
	GridLine = core.GridLine
	// CanTransform answers reducibility/additivity queries per the
	// paper's theorems.
	CanTransform = core.CanTransform
	// SpawnKSetWith wires a k-set agreement run for any grid class,
	// stacking the prescribed transformations.
	SpawnKSetWith = core.SpawnKSetWith
)

// Transformations.
var (
	// SpawnTwoWheels runs the ◇S_x + ◇φ_y → Ω_z addition (Figs. 5–6)
	// on every process, returning the emulated Ω_z.
	SpawnTwoWheels = reduction.SpawnTwoWheels
	// SpawnLowerWheel runs the Fig. 5 component alone.
	SpawnLowerWheel = reduction.SpawnLowerWheel
	// NewPsiOmega builds Ω_z from Ψ_y locally (Fig. 8), y+z > t.
	NewPsiOmega = reduction.NewPsiOmega
	// SpawnAddS runs the S_x + φ_y → S_n addition (Fig. 9) over a
	// register substrate ("memory", "heartbeat" or "abd").
	SpawnAddS = reduction.SpawnAddS
)

// The scenario-sweep engine.
type (
	// SweepMatrix declares a scenario sweep: the protocol under test and
	// the dimensions (seeds × sizes × crash patterns × class combos)
	// whose cross product forms the cells.
	SweepMatrix = sweep.Matrix
	// SweepSize is one system-size point (n, t).
	SweepSize = sweep.Size
	// SweepCrashPattern is one adversary dimension point.
	SweepCrashPattern = sweep.CrashPattern
	// SweepCrashSpec schedules one crash (Proc ≤ 0 is relative to n).
	SweepCrashSpec = sweep.CrashSpec
	// SweepCombo is one failure-detector dimension point.
	SweepCombo = sweep.Combo
	// SweepCell is one concrete point of the cross product.
	SweepCell = sweep.Cell
	// SweepCellResult is the structured outcome of one cell.
	SweepCellResult = sweep.CellResult
	// SweepReport aggregates a matrix run; its CanonicalJSON is
	// byte-identical across repeated runs of the same matrix.
	SweepReport = sweep.Report
	// SweepOptions configures the worker pool and the optional shard.
	SweepOptions = sweep.Options
	// SweepShard selects slice i of m of a matrix's cells (set it on
	// SweepOptions); m shard runs merge back into the unsharded report
	// via MergeSweepReports, byte-identically.
	SweepShard = sweep.Shard
	// AdversaryFamily declares a generated adversary dimension point
	// (SweepMatrix.AdversaryFamilies): a schedule kind — staggered,
	// clustered, cascade, partition, silence — plus its knobs, expanded
	// deterministically per size by the adversary package.
	AdversaryFamily = adversary.Family
)

// MergeSweepReports recombines a complete shard family into the report
// the unsharded run would have produced (byte-identical canonical JSON).
func MergeSweepReports(parts []*SweepReport) (*SweepReport, error) {
	return sweep.MergeReports(parts)
}

// Sweep expands the matrix and runs every cell on a worker pool, each on
// an isolated simulated system. Because the simulator is
// lockstep-deterministic, the aggregated report is a pure function of
// the matrix: same matrix, same binary → byte-identical canonical JSON,
// whatever the worker count.
//
//	rep, err := fdgrid.Sweep(fdgrid.SweepMatrix{
//		Name: "two-wheels", Protocol: "two-wheels",
//		Seeds: []int64{0, 1, 2}, Sizes: []fdgrid.SweepSize{{N: 5, T: 2}},
//		Combos: []fdgrid.SweepCombo{{X: 2, Y: 1}},
//		GST: 500, MaxSteps: 100_000,
//		Params: map[string]int64{"stable_for": 10_000, "margin": 5_000},
//	}, fdgrid.SweepOptions{})
//
// SweepProtocols lists the built-in protocols, the static protocol
// table of internal/sweep; the sweep-based cmd/experiments regenerates
// every paper figure this way.
func Sweep(m SweepMatrix, opt SweepOptions) (*SweepReport, error) { return sweep.Run(m, opt) }

// SweepProtocols lists the built-in sweep protocol names, sorted.
func SweepProtocols() []string { return sweep.Protocols() }

// AddOmega runs the complete two-wheels addition experiment: it builds
// AS[n,t] from cfg, runs ◇S_x + ◇φ_y → Ω_z with ground-truth sources,
// and returns the recorded output trace (check it with
// trace.CheckOmega(sys.Pattern(), t+2−x−y, margin)) together with the
// system and run report. If stableFor > 0 the run ends early once the
// emulated output has been stable that long at every correct process;
// pick it above the config's GST and last crash time.
func AddOmega(cfg Config, x, y int, stableFor Time) (*SetTrace, *System, Report, error) {
	sys, err := sim.New(cfg)
	if err != nil {
		return nil, nil, Report{}, err
	}
	susp := fd.NewEvtS(sys, x)
	quer := fd.NewEvtPhi(sys, y)
	emu, _ := reduction.SpawnTwoWheels(sys, susp, quer, x, y)
	trace := fd.WatchLeader(sys, emu)
	var stop func() bool
	if stableFor > 0 {
		stop = trace.StableFor(sys.Pattern().Correct(), stableFor)
	}
	rep := sys.Run(stop)
	return trace, sys, rep, nil
}
