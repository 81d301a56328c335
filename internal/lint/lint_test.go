package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture loads one testdata/src package as a standalone module, posed
// at relPath so scoped rules treat it as production code.
func loadFixture(t *testing.T, name, relPath string) (*Module, *Package) {
	t.Helper()
	m, err := LoadPackageDir(filepath.Join("testdata", "src", name), relPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	if len(m.TypeErrors) > 0 {
		t.Fatalf("fixture %s does not type-check: %v", name, m.TypeErrors)
	}
	return m, m.Packages[0]
}

// wantRe extracts the quoted or backquoted expectation patterns of a
// `// want` comment.
var wantRe = regexp.MustCompile("`([^`]+)`|\"([^\"]+)\"")

// collectWants maps line number -> expected diagnostic patterns, parsed
// from `// want` comments in the fixture.
func collectWants(t *testing.T, m *Module, pkg *Package) map[int][]*regexp.Regexp {
	t.Helper()
	wants := make(map[int][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				line := m.Fset.Position(c.Pos()).Line
				for _, sub := range wantRe.FindAllStringSubmatch(c.Text[idx+len("// want "):], -1) {
					pat := sub[1]
					if pat == "" {
						pat = sub[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("line %d: bad want pattern %q: %v", line, pat, err)
					}
					wants[line] = append(wants[line], re)
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture has no // want expectations")
	}
	return wants
}

// runGolden lints the fixture with one analyzer and matches every
// diagnostic against the fixture's // want expectations, both ways.
func runGolden(t *testing.T, a *Analyzer, fixture, relPath string) {
	t.Helper()
	m, pkg := loadFixture(t, fixture, relPath)
	diags := m.lintPackage(pkg, []*Analyzer{a}, true)
	wants := collectWants(t, m, pkg)

	matched := make(map[*regexp.Regexp]bool)
	for _, d := range diags {
		if d.Check != a.Name {
			t.Errorf("unexpected check %q in diagnostic: %s", d.Check, d)
			continue
		}
		found := false
		for _, re := range wants[d.Line] {
			if !matched[re] && re.MatchString(d.Message) {
				matched[re] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for line, res := range wants {
		for _, re := range res {
			if !matched[re] {
				t.Errorf("line %d: expected diagnostic matching %q, got none", line, re)
			}
		}
	}
}

func TestDeterminismGolden(t *testing.T) {
	runGolden(t, Determinism, "determinism", "internal/dse")
}

func TestStrictJSONGolden(t *testing.T) {
	runGolden(t, StrictJSON, "strictjson", "internal/hw")
}

func TestDurableWritesGolden(t *testing.T) {
	runGolden(t, DurableWrites, "durablewrites", "internal/fleet")
}

func TestDurableSyncBeforeRenameGolden(t *testing.T) {
	runGolden(t, DurableWrites, "durablesync", "internal/durable")
}

func TestClosedErrorsGolden(t *testing.T) {
	runGolden(t, ClosedErrors, "closederrors", "internal/dse")
}

// TestIgnoreDirectives pins the escape hatch: valid directives suppress
// (same line, line above, stacked), and the three directive errors —
// unknown check, missing reason, unused directive — surface alongside the
// findings the malformed directives failed to suppress.
func TestIgnoreDirectives(t *testing.T) {
	m, pkg := loadFixture(t, "ignore", "internal/dse")
	diags := m.lintPackage(pkg, Analyzers(), true)

	want := []struct {
		check string
		re    string
	}{
		{"lint-directive", `names unknown check "no-such-check"`},
		{"determinism", `wall-clock time\.Now`}, // unsuppressed: its directive named an unknown check
		{"lint-directive", `missing a reason`},
		{"strict-json", `raw json\.Unmarshal`}, // unsuppressed: its directive had no reason
		{"lint-directive", `unused //lint:ignore determinism`},
	}
	if len(diags) != len(want) {
		t.Errorf("got %d diagnostics, want %d:", len(diags), len(want))
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
	for _, w := range want {
		re := regexp.MustCompile(w.re)
		found := false
		for _, d := range diags {
			if d.Check == w.check && re.MatchString(d.Message) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing %s diagnostic matching %q", w.check, w.re)
		}
	}
}

// TestDiagnosticOrderAndFormat pins the sort order and the String/JSON
// shapes tooling depends on.
func TestDiagnosticOrderAndFormat(t *testing.T) {
	ds := []Diagnostic{
		{File: "b.go", Line: 1, Col: 1, Check: "x", Message: "m"},
		{File: "a.go", Line: 9, Col: 2, Check: "x", Message: "m"},
		{File: "a.go", Line: 9, Col: 1, Check: "y", Message: "m"},
		{File: "a.go", Line: 9, Col: 1, Check: "x", Message: "m"},
		{File: "a.go", Line: 2, Col: 5, Check: "x", Message: "m"},
	}
	sortDiagnostics(ds)
	var got []string
	for _, d := range ds {
		got = append(got, fmt.Sprintf("%s:%d:%d:%s", d.File, d.Line, d.Col, d.Check))
	}
	want := []string{"a.go:2:5:x", "a.go:9:1:x", "a.go:9:1:y", "a.go:9:2:x", "b.go:1:1:x"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sort order[%d] = %s, want %s (full: %v)", i, got[i], want[i], got)
		}
	}
	if s := ds[0].String(); s != "a.go:2:5: m (x)" {
		t.Fatalf("String() = %q", s)
	}
}

func TestScopeMatching(t *testing.T) {
	cases := []struct {
		rel   string
		scope []string
		want  bool
	}{
		{"internal/dse", digestScope, true},
		{"internal/dse/sub", digestScope, true},
		{"internal/dsextra", digestScope, false},
		{"internal/fleet", digestScope, false},
		{"internal/fleet", wireScope, true},
		{"internal/serve", selectScope, false},
		{"internal/baseline/ptb", wireScope, true},
		{"cmd/dse", durableScope, true},
		{"cmd/bishop", durableScope, false},
		{"examples/quickstart", DurableWrites.Scope, true},
		{"perfbench", DurableWrites.Scope, false},
		{"anything/at/all", nil, true},
	}
	for _, c := range cases {
		if got := inScope(c.rel, c.scope); got != c.want {
			t.Errorf("inScope(%q, %v) = %v, want %v", c.rel, c.scope, got, c.want)
		}
	}
}

// TestAsmStubFixture pins build-constraint-aware loading: a package with
// per-architecture variants of one declaration — bodyless //go:noescape
// assembly stubs on amd64/arm64 plus a pure-Go fallback — must load with
// exactly one variant admitted, type-check without phantom redeclaration
// errors, and lint clean with every analyzer (no false positives on the
// bodyless stub declarations).
func TestAsmStubFixture(t *testing.T) {
	m, pkg := loadFixture(t, "asmstub", "internal/spike")
	if len(pkg.Files) != 2 {
		var names []string
		for _, f := range pkg.Files {
			names = append(names, filepath.Base(m.Fset.Position(f.Pos()).Filename))
		}
		t.Fatalf("loaded %v, want the portable file plus exactly one arch variant", names)
	}
	if diags := m.lintPackage(pkg, Analyzers(), true); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("false positive on asm-stub package: %s", d)
		}
	}
}
