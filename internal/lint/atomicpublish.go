package lint

import (
	"go/ast"
)

// storeScope is the set of packages that publish durable artifacts readers
// may open concurrently: the digest-addressed trace store, the serve result
// cache, DSE checkpoints, the fleet merge log, and the durable package that
// publishes all of them. A final path written in place can be observed
// half-written; these packages must stage bytes in a temp file, sync, and
// publish with an atomic rename.
var storeScope = []string{
	"internal/dse",
	"internal/durable",
	"internal/fleet",
	"internal/serve",
	"internal/tracefile",
}

// AtomicPublish forbids in-place writes of final paths in store/cache
// packages: os.WriteFile and os.Create always (stage through os.CreateTemp
// instead), and os.OpenFile with O_TRUNC (truncation destroys the previous
// durable state before the new bytes are safe). Append-mode OpenFile is
// fine — the checkpoint journal's torn-tail tolerance is a deliberate,
// tested design.
var AtomicPublish = &Analyzer{
	Name:  "atomic-publish",
	Doc:   "forbid in-place writes of final paths in store/cache packages; require temp+Sync+rename",
	Scope: storeScope,
	Run:   runAtomicPublish,
}

func runAtomicPublish(p *Pass) {
	p.walkFuncs(func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch {
			case p.pkgFunc(call, "os", "Create"):
				p.Reportf(call.Pos(), "os.Create writes a final path in place in a store package; stage with os.CreateTemp, Sync, then os.Rename")
			case p.pkgFunc(call, "os", "WriteFile"):
				p.Reportf(call.Pos(), "os.WriteFile writes a final path in place in a store package; stage with os.CreateTemp, Sync, then os.Rename")
			case p.pkgFunc(call, "os", "OpenFile") && mentionsTrunc(call):
				p.Reportf(call.Pos(), "os.OpenFile with O_TRUNC destroys the previous durable entry before the new one is safe; stage with os.CreateTemp, Sync, then os.Rename")
			}
			return true
		})
	})
}

// mentionsTrunc reports whether the call's flag argument names os.O_TRUNC.
func mentionsTrunc(call *ast.CallExpr) bool {
	if len(call.Args) < 2 {
		return false
	}
	found := false
	ast.Inspect(call.Args[1], func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "O_TRUNC" {
			found = true
		}
		return !found
	})
	return found
}
