// Package durablewrites seeds violations and clean idioms for the
// durable-writes analyzer outside internal/durable, where every file write
// is flagged whether or not it syncs.
package durablewrites

import (
	"fmt"
	"os"
)

type saver struct{}

// Save merely shares its name with methods that do sync.
func (saver) Save() error { return nil }

// unsyncedPublish is the hand-rolled publish a call graph resolved by method
// name once passed: the unrelated Save looked like a syncing helper.
func unsyncedPublish(dir, final string, data []byte) error {
	f, err := os.CreateTemp(dir, ".tmp-*") // want `os\.CreateTemp writes a file outside internal/durable`
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	if err := (saver{}).Save(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), final) // want `os\.Rename writes a file outside internal/durable`
}

// syncedPublish is a correct temp+Sync+rename, and still belongs in
// internal/durable.
func syncedPublish(dir, final string, data []byte) error {
	f, err := os.CreateTemp(dir, ".tmp-*") // want `os\.CreateTemp writes a file outside`
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final) // want `os\.Rename writes a file outside`
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("publish: %w", err)
	}
	return nil
}

func inPlaceWriteFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644) // want `os\.WriteFile writes a file outside`
}

func inPlaceCreate(path string) (*os.File, error) {
	return os.Create(path) // want `os\.Create writes a file outside`
}

func appendJournal(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644) // want `os\.OpenFile writes a file outside`
}

func variableFlags(path string, flags int) (*os.File, error) {
	return os.OpenFile(path, flags, 0o644) // want `os\.OpenFile writes a file outside`
}

func readOnlyOpen(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_RDONLY, 0)
}

func read(path string) ([]byte, error) {
	return os.ReadFile(path)
}
