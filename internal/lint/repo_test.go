package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoIsLintClean is the gate the whole suite exists for: the real
// repository must type-check and lint clean — every deliberate exception
// carries a validated //lint:ignore, so a stray time.Now, lenient decode,
// file write outside internal/durable, or dropped Close fails CI here
// and in `make lint`. Loading from "." also pins nested module discovery
// (the walker finds go.mod at the repo root) and the walker's exclusion of
// the fixture trees under internal/lint/testdata.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module lint in -short mode")
	}
	m, err := Load(".")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if m.Path != "repro" {
		t.Fatalf("module path = %q, want repro", m.Path)
	}
	for _, e := range m.TypeErrors {
		t.Errorf("typecheck: %v", e)
	}
	foundSelf := false
	for _, p := range m.Packages {
		if p.RelPath == "internal/lint" {
			foundSelf = true
		}
		base := filepath.Base(p.RelPath)
		if p.RelPath != "" && (base == "testdata" || base == "vendor" || filepath.ToSlash(p.RelPath) != p.RelPath) {
			t.Errorf("walker admitted %s", p.RelPath)
		}
		for _, dir := range []string{"testdata/", "vendor/"} {
			if p.RelPath != "" && (p.RelPath == dir[:len(dir)-1] || containsSegment(p.RelPath, dir[:len(dir)-1])) {
				t.Errorf("walker admitted excluded tree %s", p.RelPath)
			}
		}
	}
	if !foundSelf {
		t.Fatal("internal/lint not discovered from nested load")
	}
	for _, d := range m.Lint() {
		t.Errorf("lint: %s", d)
	}
}

func containsSegment(rel, seg string) bool {
	for _, part := range strings.Split(rel, "/") {
		if part == seg {
			return true
		}
	}
	return false
}

// TestLoadSkipsTestdataVendorAndHidden pins the walker's exclusion rules:
// fixture trees under testdata/, vendored code, and dot- or underscore-
// prefixed directories are never discovered, parsed, or linted — seeded
// violations inside them must not surface, while the same violation in a
// discovered package does.
func TestLoadSkipsTestdataVendorAndHidden(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A durable-writes violation, seeded under internal/ where that check
	// would fire if these trees were linted.
	violation := `package bad

import "os"

func publish(tmp, final string) error {
	return os.Rename(tmp, final)
}
`
	write("go.mod", "module tmpmod\n\ngo 1.24\n")
	write("internal/pkg/clean.go", "package pkg\n\nfunc OK() int { return 1 }\n")
	write("internal/seen/bad.go", violation)
	write("internal/testdata/bad/bad.go", violation)
	write("internal/pkg/testdata/bad/bad.go", violation)
	write("internal/vendor/dep/bad.go", violation)
	write("internal/.hidden/bad.go", violation)
	write("internal/_obj/bad.go", violation)
	write("vendor/internal/dep/bad.go", violation)

	m, err := Load(root)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	var got []string
	for _, p := range m.Packages {
		got = append(got, p.RelPath)
	}
	if strings.Join(got, " ") != "internal/pkg internal/seen" {
		t.Fatalf("discovered packages %v, want exactly [internal/pkg internal/seen]", got)
	}
	diags := m.Lint()
	if len(diags) != 1 || diags[0].File != "internal/seen/bad.go" || diags[0].Check != DurableWrites.Name {
		t.Fatalf("lint produced %v, want one durable-writes finding in internal/seen/bad.go", diags)
	}
	if len(m.TypeErrors) > 0 {
		t.Fatalf("type errors: %v", m.TypeErrors)
	}
}
