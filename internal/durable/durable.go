// Package durable is the only package that writes files. WriteFile is the
// one atomic-publication path, for trace-store entries, exported trace files
// and the CLIs' output files; Journal is the fsynced append-only file under
// sweep and fleet checkpoints, and AppendFile its unsynced sibling under the
// result cache's log.
// bishoplint's durable-writes check keeps file writes out of every other
// package, so a crash-consistency test of the durable-write path has a
// single seam to exercise.
package durable

import (
	"bufio"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with the bytes write produces. The bytes
// are staged in a ".tmp-*" file in path's directory, then flushed, fsynced,
// closed and renamed over path. A reader, or a process restarted after a
// crash, sees either the previous file or the complete new one, never a
// prefix. On any error the temp file is removed and path is left as it was.
// Concurrent writers of one path each stage their own temp file; one rename
// wins.
func WriteFile(path string, write func(*bufio.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
