// Package lint is the repo's custom static-analysis suite. It mechanically
// enforces the conventions every durable artifact in this codebase depends
// on — deterministic digest inputs, strict unknown-field-rejecting JSON
// codecs, file writes confined to the durable package (whose renames
// follow an fsync), and checked Close/Sync/Flush errors on durable writers —
// so that "shard union == unsharded run, bit for bit" is guarded by a CI
// gate instead of reviewer memory.
//
// The framework is stdlib-only: packages are discovered by walking the
// module tree (go/build-style, skipping testdata and vendor trees), parsed
// with go/parser, and type-checked with go/types against the source
// importer, so the suite needs nothing beyond the Go toolchain already
// required to build the repo.
//
// Deliberate exceptions are annotated inline:
//
//	//lint:ignore <check> <reason>
//
// placed on the offending line or on its own line directly above it. The
// directive is itself validated — an unknown check name, a missing reason,
// or a directive that suppresses nothing is an error — so the escape hatch
// cannot rot silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding. Field order is the wire order of `bishoplint
// -json`; keep it stable — CI annotations and tooling consume it.
type Diagnostic struct {
	File    string `json:"file"` // module-relative path
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Check)
}

// An Analyzer is one named check. Scope lists the module-relative package
// paths (exact, or prefixes of nested packages) the check audits; a nil
// Scope audits every package in the module.
type Analyzer struct {
	Name  string
	Doc   string
	Scope []string
	Run   func(*Pass)
}

// Analyzers returns the full suite in its fixed reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Determinism,
		StrictJSON,
		DurableWrites,
		ClosedErrors,
	}
}

// analyzerNames is the set of valid //lint:ignore check names.
func analyzerNames() map[string]bool {
	m := make(map[string]bool)
	for _, a := range Analyzers() {
		m[a.Name] = true
	}
	return m
}

// inScope reports whether the module-relative package path rel is covered
// by scope (nil covers everything).
func inScope(rel string, scope []string) bool {
	if scope == nil {
		return true
	}
	for _, s := range scope {
		if rel == s || strings.HasPrefix(rel, s+"/") {
			return true
		}
	}
	return false
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	RelPath  string // module-relative package dir; "" is the module root
	Files    []*ast.File
	Info     *types.Info
	Pkg      *types.Package
	Mod      *Module

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	pp := p.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		File:    p.Mod.relFile(pp.Filename),
		Line:    pp.Line,
		Col:     pp.Column,
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Lint runs the whole suite over every package in the module, applies and
// validates //lint:ignore directives, and returns the surviving findings
// sorted by file, line, column, and check.
func (m *Module) Lint() []Diagnostic {
	return m.lint(Analyzers(), false)
}

func (m *Module) lint(analyzers []*Analyzer, ignoreScopes bool) []Diagnostic {
	var all []Diagnostic
	for _, pkg := range m.Packages {
		all = append(all, m.lintPackage(pkg, analyzers, ignoreScopes)...)
	}
	sortDiagnostics(all)
	return all
}

// lintPackage runs analyzers over one package and filters the findings
// through the package's //lint:ignore directives. ignoreScopes forces every
// analyzer to run regardless of its Scope (the golden-test harness lints
// testdata packages that live outside any production scope).
func (m *Module) lintPackage(pkg *Package, analyzers []*Analyzer, ignoreScopes bool) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		if !ignoreScopes && !inScope(pkg.RelPath, a.Scope) {
			continue
		}
		p := &Pass{
			Analyzer: a,
			Fset:     m.Fset,
			RelPath:  pkg.RelPath,
			Files:    pkg.Files,
			Info:     pkg.Info,
			Pkg:      pkg.Types,
			Mod:      m,
		}
		a.Run(p)
		diags = append(diags, p.diags...)
	}
	return applyIgnores(m, pkg, diags)
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// walkFuncs invokes fn for every function or method declaration with a body
// in the pass's files.
func (p *Pass) walkFuncs(fn func(decl *ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// pkgFunc reports whether call is a call of the package-level function
// pkgPath.name (e.g. "os".Rename), resolved through type information.
func (p *Pass) pkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	return p.isPkgName(sel.X, pkgPath)
}

// isPkgName reports whether expr is an identifier naming the import of
// pkgPath in this package.
func (p *Pass) isPkgName(expr ast.Expr, pkgPath string) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// exprType returns the type of e, or nil when type checking could not
// resolve it.
func (p *Pass) exprType(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
