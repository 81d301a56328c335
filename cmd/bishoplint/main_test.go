package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

func TestList(t *testing.T) {
	var out bytes.Buffer
	if _, err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, a := range lint.Analyzers() {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("-list lacks %s:\n%s", a.Name, out.String())
		}
	}
}

// TestCleanModule lints a one-file module from inside it: no findings, and
// -json prints an empty array.
func TestCleanModule(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"go.mod": "module tiny\n\ngo 1.24\n",
		"a.go":   "package tiny\n\nfunc F() int { return 1 }\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
	var out bytes.Buffer
	findings, err := run([]string{"-json", "./..."}, &out)
	if err != nil || findings || strings.TrimSpace(out.String()) != "[]" {
		t.Fatalf("findings=%v err=%v output %q, want a clean []", findings, err, out.String())
	}
	if _, err := run([]string{"./internal/..."}, new(bytes.Buffer)); err == nil {
		t.Fatal("a package pattern other than ./... was accepted")
	}
}
