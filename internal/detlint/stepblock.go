package detlint

import (
	"go/ast"
	"go/types"
)

// stepblockAnalyzer keeps layer callbacks non-blocking. While a process
// waits (sim.Env.Await, and the node waits built on it), its layers'
// Handle, Poll and NextWake run on the stack of whoever holds the run
// token when the process is due — Run's loop or another process
// parking. A blocking call there would park some other process's stack
// in this process's name; the simulator panics on it at run time, and
// this rule catches it at CI time.
var stepblockAnalyzer = &Analyzer{
	Name:  "stepblock",
	Scope: ScopeDeterministic,
	Doc:   "no blocking `sim.Env` (`Step`, `StepUntil`, `Await`) or `node.Node` (`WaitOn`, `WaitUntil`, `WaitTill`, `RunForever`) calls inside a `Handle`, `Poll` or `NextWake` method: those run on another process's stack",
	Run:   runStepblock,
}

// stepblockCallbacks are the layer callback method names.
var stepblockCallbacks = map[string]bool{"Handle": true, "Poll": true, "NextWake": true}

// stepblockBlocking lists the blocking methods per receiver type,
// keyed by the type's package path and name.
var stepblockBlocking = map[[2]string]map[string]bool{
	{"fdgrid/internal/sim", "Env"}: {
		"Step": true, "StepUntil": true, "Await": true,
	},
	{"fdgrid/internal/node", "Node"}: {
		"WaitOn": true, "WaitUntil": true, "WaitTill": true, "RunForever": true,
	},
}

func runStepblock(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !stepblockCallbacks[fd.Name.Name] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if recv, name := p.methodUse(sel.Sel); stepblockBlocking[recv][name] {
					out = append(out, p.diag("stepblock", sel.Sel,
						"%s.%s blocks inside %s, which may run on another process's stack; move the wait into the process main", recv[1], name, fd.Name.Name))
				}
				return true
			})
		}
	}
	return out
}

// methodUse resolves an identifier use to a method and returns its
// receiver's named type (package path and name) and the method name.
func (p *Package) methodUse(id *ast.Ident) (recv [2]string, name string) {
	fn, ok := p.Info.Uses[id].(*types.Func)
	if !ok {
		return recv, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return recv, ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return recv, ""
	}
	return [2]string{named.Obj().Pkg().Path(), named.Obj().Name()}, fn.Name()
}
