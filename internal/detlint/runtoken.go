package detlint

import "go/ast"

// runtokenAnalyzer polices the run-token ownership contract
// (docs/ARCHITECTURE.md): simulation state is owned by whoever holds
// the run token, the token passes by coroutine switch (iter.Pull), and
// therefore locks, atomics and goroutines inside the deterministic
// packages are either dead weight or — far worse — a second scheduler
// smuggled in beside the deterministic one. The documented cross-thread
// surface is small and carries explicit allows: System.Now / InFlight
// (atomic), WakeAt's hint list (locked), the interner (tag.go), and the
// sweep engine's host-side worker pool (engine.go).
var runtokenAnalyzer = &Analyzer{
	Name:  "runtoken",
	Scope: ScopeDeterministic,
	Doc:   "no `sync` locks, `sync/atomic` or `go` statements in run-token-owned state; the documented cross-thread surface carries allows",
	Run:   runRuntoken,
}

func runRuntoken(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				out = append(out, p.diag("runtoken", n,
					"go statement spawns a goroutine beside the run token; process mains run as iter.Pull coroutines"))
			case *ast.Ident:
				if pkg, name := p.typeUse(n); pkg == "sync" || pkg == "sync/atomic" {
					out = append(out, p.diag("runtoken", n,
						"%s.%s synchronizes state the run token already owns; if this is a real cross-thread site, document it with an allow", pkgBase(pkg), name))
				} else if pkg, name := p.funcUse(n); pkg == "sync/atomic" {
					out = append(out, p.diag("runtoken", n,
						"atomic.%s synchronizes state the run token already owns; if this is a real cross-thread site, document it with an allow", name))
				}
			}
			return true
		})
	}
	return out
}

// pkgBase maps an import path to its conventional package name.
func pkgBase(path string) string {
	if path == "sync/atomic" {
		return "atomic"
	}
	return "sync"
}
