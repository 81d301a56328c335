package lint

import (
	"go/ast"
	"go/types"
)

// durableScope is where unchecked Close/Sync/Flush errors can lose data
// silently: the packages that write checkpoints, caches, trace stores, and
// merge logs, plus the CLIs that own such files directly.
var durableScope = []string{
	"cmd/bishopctl",
	"cmd/bishopd",
	"cmd/dse",
	"cmd/trace",
	"internal/dse",
	"internal/durable",
	"internal/fleet",
	"internal/serve",
	"internal/tracefile",
}

// ClosedErrors flags statement-level Close/Sync/Flush calls that discard
// their error on a durable writer (an *os.File, anything implementing
// io.Writer, or anything with a Sync or error-returning Append method —
// the journal shape of dse.CheckpointWriter). A buffered writer reports
// short writes at Flush and an os.File reports them at Close or Sync;
// dropping that error converts data loss into success. Checked returns,
// the defer-with-named-error idiom (`defer func() { cerr := f.Close(); ...
// }`), and an explicit `_ =` assignment (visible intent) all pass; read-
// side closes (response bodies, opened files handed to readers) are not
// durable writers and are not flagged.
var ClosedErrors = &Analyzer{
	Name:  "closed-errors",
	Doc:   "flag discarded Close/Sync/Flush errors on durable writers",
	Scope: durableScope,
	Run:   runClosedErrors,
}

var closers = map[string]bool{"Close": true, "Sync": true, "Flush": true}

func runClosedErrors(p *Pass) {
	p.walkFuncs(func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !closers[sel.Sel.Name] {
				return true
			}
			if !returnsError(p, sel) || !durableWriter(p, p.exprType(sel.X)) {
				return true
			}
			p.Reportf(call.Pos(), "%s error discarded on a durable writer; a failed %s here is silent data loss — check it, fold it into the named return, or assign to _ deliberately", sel.Sel.Name, sel.Sel.Name)
			return true
		})
	})
}

// returnsError reports whether the selected method returns an error.
func returnsError(p *Pass, sel *ast.SelectorExpr) bool {
	sig, ok := p.exprType(sel).(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok && named.Obj().Name() == "error" {
			return true
		}
	}
	return false
}

// durableWriter reports whether t looks like something whose Close/Sync/
// Flush guards durability: an *os.File, an io.Writer implementation, or a
// type exposing Sync or Append (the append-journal shape of checkpoint
// writers, which sync per record instead of exposing Write).
func durableWriter(p *Pass, t types.Type) bool {
	if t == nil {
		return false
	}
	if t.String() == "*os.File" {
		return true
	}
	if p.Mod.implementsWriter(t) {
		return true
	}
	return hasMethod(t, "Sync") || hasMethod(t, "Append")
}

// hasMethod reports whether t (or *t) has a method named name.
func hasMethod(t types.Type, name string) bool {
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(typ)
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == name {
				return true
			}
		}
	}
	return false
}
