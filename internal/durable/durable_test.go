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

// TestJournalAppendClosesTornTail pins the append over a torn tail: the
// newline that ends the fragment and the new block go out in one write, the
// file is never truncated, and every complete earlier line survives. A block
// of several lines over the torn tail lands whole, after that newline.
func TestJournalAppendClosesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	const prior = "one\ntwo\n{\"torn"
	if err := os.WriteFile(path, []byte(prior), 0o644); err != nil {
		t.Fatal(err)
	}
	j, data, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != prior {
		t.Fatalf("OpenJournal returned %q, want the existing bytes %q", data, prior)
	}
	for _, block := range []string{"three\nfour\n", "five\n"} {
		if err := j.Append([]byte(block)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	want := prior + "\nthree\nfour\nfive\n"
	if got, err := os.ReadFile(path); err != nil || string(got) != want {
		t.Fatalf("journal holds %q, %v; want %q", got, err, want)
	}
}

// TestJournalCreatesMissingFile pins that a journal on a new path starts
// empty and that an intact tail gets no extra newline on reopen.
func TestJournalCreatesMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	for i, line := range []string{"first", "second"} {
		j, data, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && data != nil {
			t.Fatalf("new journal returned existing bytes %q", data)
		}
		if err := j.Append([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "first\nsecond\n" {
		t.Fatalf("journal holds %q, %v", got, err)
	}
}

// TestAppendFile pins the unsynced append: it creates a missing file, adds
// each block after the last whole, and reports a missing directory.
func TestAppendFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	for _, block := range []string{"one\n", "two\nthree\n"} {
		if err := AppendFile(path, []byte(block)); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "one\ntwo\nthree\n" {
		t.Fatalf("log holds %q, %v", got, err)
	}
	if err := AppendFile(filepath.Join(dir, "missing", "log"), []byte("x\n")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing directory must report os.ErrNotExist, got %v", err)
	}
}
