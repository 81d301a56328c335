package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FsyncBeforeRename requires every function that publishes with os.Rename
// to durably flush the renamed bytes first: a (*os.File).Sync call — or a
// call to a function that transitively syncs (a checkpoint writer's
// per-record Append) — must appear before the rename.
// Rename publishes a name atomically, but without the preceding fsync a
// crash can leave the published name pointing at zero-length or partial
// bytes, which breaks the "a store entry is always a complete, verified
// file" contract.
//
// The check is module-wide: any package can add a store, and sync
// reachability is resolved across the whole module with a fixed point over
// the call graph (method calls resolve by name, deliberately erring toward
// trusting helpers rather than drowning callers in false positives).
var FsyncBeforeRename = &Analyzer{
	Name: "fsync-before-rename",
	Doc:  "require a dominating Sync (direct or via a syncing helper) before os.Rename",
	Run:  runFsyncBeforeRename,
}

// funcKey identifies a function or method declaration in the module.
type funcKey struct {
	pkg  string // package import path
	recv string // bare receiver type name; "" for plain functions
	name string
}

type indexedFunc struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// syncIndex builds, once per module, the set of functions that reach a
// .Sync() call: direct callers, then a fixed point over call edges.
func (m *Module) syncIndex() map[funcKey]bool {
	m.syncOnce.Do(func() {
		m.funcIndex = make(map[funcKey]*indexedFunc)
		m.methods = make(map[string][]funcKey)
		for _, pkg := range m.Packages {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					k := funcKey{pkg: pkg.path(), recv: recvName(fd), name: fd.Name.Name}
					m.funcIndex[k] = &indexedFunc{pkg: pkg, decl: fd}
					if k.recv != "" {
						m.methods[k.name] = append(m.methods[k.name], k)
					}
				}
			}
		}

		reach := make(map[funcKey]bool)
		for k, fn := range m.funcIndex {
			if callsSyncDirectly(fn.decl.Body) {
				reach[k] = true
			}
		}
		for changed := true; changed; {
			changed = false
			for k, fn := range m.funcIndex {
				if reach[k] {
					continue
				}
				ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
					if reach[k] {
						return false
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					for _, ck := range m.calleeKeys(fn.pkg, call) {
						if reach[ck] {
							reach[k] = true
							changed = true
						}
					}
					return true
				})
			}
		}
		m.syncReach = reach
	})
	return m.syncReach
}

func (p *Package) path() string {
	if p.Types != nil {
		return p.Types.Path()
	}
	return p.RelPath
}

// recvName extracts the bare receiver type name of a method declaration.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// callsSyncDirectly reports whether body contains a .Sync() method call.
func callsSyncDirectly(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sync" {
				found = true
			}
		}
		return !found
	})
	return found
}

// calleeKeys resolves a call to candidate declaration keys: package-local
// functions by identifier, cross-package functions through the import
// name, and method calls by method name against every module method with
// that name (coarse, and deliberately so — a name collision makes the
// check more permissive, never noisier).
func (m *Module) calleeKeys(pkg *Package, call *ast.CallExpr) []funcKey {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return []funcKey{{pkg: pkg.path(), name: fun.Name}}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
				return []funcKey{{pkg: pn.Imported().Path(), name: fun.Sel.Name}}
			}
		}
		return m.methods[fun.Sel.Name]
	}
	return nil
}

func runFsyncBeforeRename(p *Pass) {
	reach := p.Mod.syncIndex()
	pkg := &Package{Dir: "", RelPath: p.RelPath, Files: p.Files, Types: p.Pkg, Info: p.Info}

	p.walkFuncs(func(fd *ast.FuncDecl) {
		var renames, syncs []token.Pos
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if p.pkgFunc(call, "os", "Rename") {
				renames = append(renames, call.Pos())
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sync" {
				syncs = append(syncs, call.Pos())
				return true
			}
			for _, ck := range p.Mod.calleeKeys(pkg, call) {
				if reach[ck] {
					syncs = append(syncs, call.Pos())
					return true
				}
			}
			return true
		})
		for _, rp := range renames {
			dominated := false
			for _, sp := range syncs {
				if sp < rp {
					dominated = true
					break
				}
			}
			if !dominated {
				p.Reportf(rp, "os.Rename publishes bytes that were never fsynced; Sync the temp file (directly or via a syncing helper) before renaming")
			}
		}
	})
}
