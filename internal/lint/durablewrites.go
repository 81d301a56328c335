package lint

import (
	"go/ast"
	"go/constant"
	"os"
)

// durablePkg is the one package allowed to write files. Keeping every write
// there gives the durable-write path a single seam: temp+Sync+rename
// publication (durable.WriteFile), the fsynced append journal
// (durable.Journal) and the result cache's unsynced appends
// (durable.AppendFile).
const durablePkg = "internal/durable"

// DurableWrites keeps file writes inside internal/durable. Elsewhere it
// flags os.Create, os.CreateTemp, os.WriteFile, os.Rename and any
// os.OpenFile whose flags can write, synced or not: a hand-rolled
// publish is wrong until proven right, and proving it is the durable
// package's job. Inside internal/durable it flags an os.Rename with no
// (*os.File).Sync earlier in the same function, since a crash after such a
// rename can publish a name that points at unsynced bytes.
var DurableWrites = &Analyzer{
	Name:  "durable-writes",
	Doc:   "only internal/durable writes files; its renames follow a Sync",
	Scope: []string{"cmd", "examples", "internal"},
	Run:   runDurableWrites,
}

// fileWriters are the os functions that create, replace or rename files.
var fileWriters = map[string]bool{
	"Create":     true,
	"CreateTemp": true,
	"WriteFile":  true,
	"Rename":     true,
}

// writeFlags are the os.OpenFile flags that open a file for writing.
const writeFlags = os.O_WRONLY | os.O_RDWR | os.O_APPEND | os.O_CREATE | os.O_TRUNC

func runDurableWrites(p *Pass) {
	if inScope(p.RelPath, []string{durablePkg}) {
		runSyncBeforeRename(p)
		return
	}
	p.walkFuncs(func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !p.isPkgName(sel.X, "os") {
				return true
			}
			if fileWriters[sel.Sel.Name] || (sel.Sel.Name == "OpenFile" && mayWrite(p, call)) {
				p.Reportf(call.Pos(), "os.%s writes a file outside %s; publish with durable.WriteFile or append with durable.Journal", sel.Sel.Name, durablePkg)
			}
			return true
		})
	})
}

// mayWrite reports whether an os.OpenFile call can open for writing: its
// flag argument is not a constant, or the constant sets a write flag.
func mayWrite(p *Pass, call *ast.CallExpr) bool {
	if len(call.Args) < 2 {
		return true
	}
	tv, ok := p.Info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return true
	}
	flags, ok := constant.Int64Val(tv.Value)
	return !ok || flags&int64(writeFlags) != 0
}

// runSyncBeforeRename flags each os.Rename in the durable package that no
// (*os.File).Sync precedes in the same function.
func runSyncBeforeRename(p *Pass) {
	p.walkFuncs(func(fd *ast.FuncDecl) {
		synced := false // ast.Inspect visits calls in source order
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sync" && isOSFile(p, sel.X) {
				synced = true
			} else if !synced && p.pkgFunc(call, "os", "Rename") {
				p.Reportf(call.Pos(), "os.Rename publishes bytes that were never fsynced; Sync the temp file before renaming")
			}
			return true
		})
	})
}

// isOSFile reports whether e is an *os.File.
func isOSFile(p *Pass, e ast.Expr) bool {
	t := p.exprType(e)
	return t != nil && t.String() == "*os.File"
}
