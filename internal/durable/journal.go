package durable

import "os"

// Journal is an append-only file of newline-terminated lines. Append writes
// a block of lines and fsyncs it before returning, so a killed writer loses
// at most the block in flight. A crash mid-append can leave a torn final
// line; Journal never truncates it away but closes it off with a newline
// before the next block, so the fragment stays a malformed line of its own
// for the reader to skip. The caller serializes Append calls.
type Journal struct {
	f *os.File
	// torn is set while the file ends in a partial line.
	torn bool
}

// OpenJournal opens path for appending, creating it when absent, and
// returns the bytes it already holds (nil for a new file).
func OpenJournal(path string) (*Journal, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{f: f, torn: len(data) > 0 && data[len(data)-1] != '\n'}, data, nil
}

// Append durably appends block, one or more newline-terminated lines, with
// one write and one fsync. Over a torn tail the newline that ends the
// fragment goes first, in the same write.
func (j *Journal) Append(block []byte) error {
	if j.torn {
		block = append([]byte{'\n'}, block...)
	}
	if _, err := j.f.Write(block); err != nil {
		return err
	}
	j.torn = false
	return j.f.Sync()
}

// Close closes the underlying file.
func (j *Journal) Close() error { return j.f.Close() }

// AppendFile appends block, one or more newline-terminated lines, to path
// with one write, creating the file when absent. Unlike Journal.Append it
// does not fsync, and it keeps no file open between calls. Appenders, in
// one process or several, never interleave their blocks (O_APPEND), but a
// crash of the machine may lose the last blocks or tear one. It is for logs
// whose readers validate every line and treat a damaged one as absent, such
// as the result cache, where a lost line only costs a re-evaluation.
func AppendFile(path string, block []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(block)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
