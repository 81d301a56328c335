package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// A Package is one parsed, type-checked package of the module under lint.
type Package struct {
	Dir     string // absolute directory
	RelPath string // module-relative ("" for the module root package)
	Name    string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// A Module is the full set of packages discovered under one module root.
// All packages share one FileSet and one source importer, so dependencies
// (including the standard library) are type-checked at most once per load.
type Module struct {
	Root     string // absolute module root (the directory holding go.mod)
	Path     string // module path from go.mod
	Fset     *token.FileSet
	Packages []*Package // sorted by RelPath

	// TypeErrors collects type-checker complaints. The linter tolerates
	// them (analyzers fall back to syntactic checks where types are
	// missing), but the CLI surfaces them: a module that does not
	// type-check cleanly cannot be trusted to lint cleanly.
	TypeErrors []error

	imp types.Importer

	writerOnce sync.Once
	writerIfc  *types.Interface
}

// skipDir reports whether a directory is excluded from package discovery:
// testdata trees (analyzer fixtures), vendored code, hidden or
// underscore-prefixed directories (.git, .bench-gate, _obj), and the root of
// a nested module (a directory with its own go.mod, such as perfbench/),
// matching the go tool's own rules for ./... patterns.
func skipDir(path, name string) bool {
	if name == "testdata" || name == "vendor" || name == "node_modules" {
		return true
	}
	if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
		return true
	}
	_, err := os.Stat(filepath.Join(path, "go.mod"))
	return err == nil
}

// Load discovers, parses, and type-checks every non-test package under the
// module rooted at or above dir.
func Load(dir string) (*Module, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root: root,
		Path: modPath,
		Fset: token.NewFileSet(),
	}
	m.imp = importer.ForCompiler(m.Fset, "source", nil)

	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root && skipDir(path, d.Name()) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: walk %s: %w", root, err)
	}
	sort.Strings(dirs)

	for _, d := range dirs {
		pkg, err := m.loadDir(d)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			m.Packages = append(m.Packages, pkg)
		}
	}
	return m, nil
}

// LoadPackageDir loads a single directory as a standalone one-package
// module — the golden-test harness entry point for testdata fixtures,
// which must never be linted as part of the enclosing module. relPath
// poses the package at a chosen module-relative path so scoped analyzers
// (and their internal sub-scopes) treat the fixture as production code.
func LoadPackageDir(dir, relPath string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root: abs,
		Path: "lintfixture",
		Fset: token.NewFileSet(),
	}
	m.imp = importer.ForCompiler(m.Fset, "source", nil)
	pkg, err := m.loadDir(abs)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	pkg.RelPath = relPath
	m.Packages = []*Package{pkg}
	return m, nil
}

// findModule walks upward from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		d = parent
	}
}

// buildCtx decides, with the go tool's own rules, which files belong to the
// package on the host GOOS/GOARCH: both filename suffixes (_amd64.go,
// _linux.go) and //go:build constraints count.
var buildCtx = build.Default

// loadDir parses and type-checks the package in one directory, returning
// nil when the directory holds no non-test Go files.
//
// Files excluded by build constraints are skipped entirely. A package may
// carry one variant of the same declaration per architecture or build tag
// (say, an assembly stub for amd64 and arm64 plus a portable fallback);
// admitting every variant would produce phantom redeclaration errors the
// compiler never sees. The cost is that lint only checks the host's build —
// the same trade the go tool makes.
func (m *Module) loadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []*ast.File
	name := ""
	for _, e := range entries {
		fn := e.Name()
		if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
			continue
		}
		if ok, err := buildCtx.MatchFile(dir, fn); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", filepath.Join(dir, fn), err)
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, fn), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if name == "" {
			name = f.Name.Name
		} else if f.Name.Name != name {
			return nil, fmt.Errorf("lint: %s: multiple packages (%s, %s)", dir, name, f.Name.Name)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	rel, err := filepath.Rel(m.Root, dir)
	if err != nil {
		return nil, err
	}
	if rel == "." {
		rel = ""
	}
	rel = filepath.ToSlash(rel)
	importPath := m.Path
	if rel != "" {
		importPath = m.Path + "/" + rel
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: m.imp,
		Error: func(err error) {
			m.TypeErrors = append(m.TypeErrors, err)
		},
	}
	tpkg, _ := conf.Check(importPath, m.Fset, files, info) // errors collected above
	return &Package{
		Dir:     dir,
		RelPath: rel,
		Name:    name,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// relFile maps an absolute file name into a module-relative path for
// diagnostics.
func (m *Module) relFile(name string) string {
	if rel, err := filepath.Rel(m.Root, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(name)
}

// ioWriter returns the io.Writer interface type, used by the determinism
// and closed-errors checks to recognize writers precisely.
func (m *Module) ioWriter() *types.Interface {
	m.writerOnce.Do(func() {
		pkg, err := m.imp.Import("io")
		if err != nil {
			return
		}
		obj := pkg.Scope().Lookup("Writer")
		if obj == nil {
			return
		}
		ifc, _ := obj.Type().Underlying().(*types.Interface)
		m.writerIfc = ifc
	})
	return m.writerIfc
}

// implementsWriter reports whether t (or *t) satisfies io.Writer.
func (m *Module) implementsWriter(t types.Type) bool {
	ifc := m.ioWriter()
	if ifc == nil || t == nil {
		return false
	}
	if types.Implements(t, ifc) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), ifc)
	}
	return false
}
