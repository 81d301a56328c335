package durable

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func noTemps(t *testing.T, dir string) {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}

// TestWriteFile pins the publication contract: a successful write replaces
// the previous file whole, a failed one leaves it untouched, and neither
// leaves a temp file in the directory.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	write := func(s string) func(*bufio.Writer) error {
		return func(w *bufio.Writer) error {
			_, err := w.WriteString(s)
			return err
		}
	}
	for _, s := range []string{"first version\n", "second\n"} {
		if err := WriteFile(path, write(s)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != s {
			t.Fatalf("after publishing %q: read %q, %v", s, got, err)
		}
		noTemps(t, dir)
	}

	boom := errors.New("boom")
	err := WriteFile(path, func(w *bufio.Writer) error {
		w.WriteString("torn")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("write error must be returned, got %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second\n" {
		t.Fatalf("failed write changed the published file: %q", got)
	}
	noTemps(t, dir)

	if err := WriteFile(filepath.Join(dir, "missing", "f"), write("x")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing directory must report os.ErrNotExist, got %v", err)
	}
}
