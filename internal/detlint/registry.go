package detlint

import "strings"

// Registry is the full rule set, in the order diagnostics cite them.
// The "Enforced invariants" table in docs/ARCHITECTURE.md mirrors
// this slice row for row; TestArchitectureDocMatchesRegistry keeps
// the two from drifting apart.
var Registry = []*Analyzer{
	wallclockAnalyzer,
	globalrandAnalyzer,
	maporderAnalyzer,
	runtokenAnalyzer,
	stepblockAnalyzer,
	tracecanonAnalyzer,
}

// deterministicPkgs is the deterministic scope: every package whose
// state participates in a simulated run and must stay a pure function
// of the run Config. internal/sweep is included — its engine is the
// host-side boundary, and exactly the documented worker-pool and
// report-timing sites carry allows. Host-side utilities that never
// touch a run (cliutil's tables) and cmd/* are out of scope for these rules; maporder still covers them
// through ScopeModule.
var deterministicPkgs = map[string]bool{
	"internal/sim":       true,
	"internal/fd":        true,
	"internal/agreement": true,
	"internal/reduction": true,
	"internal/adversary": true,
	"internal/trace":     true,
	"internal/ids":       true,
	"internal/rbcast":    true,
	"internal/register":  true,
	"internal/node":      true,
	"internal/core":      true,
	"internal/sweep":     true,
}

// hostSidePkgs is the explicit complement of the deterministic scope
// under internal/: packages that run on the host side of the
// determinism boundary, where wall-clock timeouts, goroutines and real
// I/O are the point (dispatch's suspector literally measures silence
// in wall time) and the deterministic-scope rules do not apply.
// maporder still covers them via ScopeModule — canonical bytes must
// not leak map order no matter which side produced them.
//
// Every internal/* package must appear in exactly one of these two
// maps; TestInternalPackagesClassified enforces the partition, so a
// new package cannot land without a deliberate classification.
var hostSidePkgs = map[string]bool{
	"internal/cliutil":  true, // terminal table rendering
	"internal/detlint":  true, // this linter: shells out to the go toolchain
	"internal/dispatch": true, // distributed dispatcher: heartbeats, suspicion timeouts, worker I/O
}

// registered returns the analyzer with the given rule name, nil if
// unknown.
func registered(name string) *Analyzer {
	for _, a := range Registry {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// ruleNames renders the registered rule names for error messages.
func ruleNames() string {
	names := make([]string, len(Registry))
	for i, a := range Registry {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}
