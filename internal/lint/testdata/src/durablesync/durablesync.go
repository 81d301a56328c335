// Package durablesync seeds violations and clean idioms for the
// durable-writes analyzer inside internal/durable, where a rename must
// follow a Sync of the file it publishes.
package durablesync

import "os"

func renameWithoutSync(final string, data []byte) error {
	f, err := os.CreateTemp(".", ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), final) // want `os\.Rename publishes bytes that were never fsynced`
}

func renameAfterSync(final string, data []byte) error {
	f, err := os.CreateTemp(".", ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), final)
}

func syncAfterRename(tmp, final string) error {
	f, err := os.Open(tmp)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := os.Rename(tmp, final); err != nil { // want `os\.Rename publishes bytes that were never fsynced`
		return err
	}
	return f.Sync() // too late: the name is already published
}
