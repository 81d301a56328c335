package tracefile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/durable"
	"repro/internal/transformer"
)

// Ext is the trace-file extension used by the store and the CLIs.
const Ext = ".btrc"

// ReadFile decodes the trace stored at path, verifying CRCs, the content
// digest, and that nothing trails the encoded trace.
func ReadFile(path string) (*transformer.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	tr, err := Decode(br)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%s: %w: trailing data after trace", path, ErrCorrupt)
	}
	return tr, nil
}

// FileInfo summarizes the trace file at path: the validated header plus the
// trailer's content digest and a size cross-check — without reading the
// payload. Use ReadFile (or cmd/trace verify) for full CRC verification.
func FileInfo(path string) (*Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	defer f.Close()
	rd := NewReader(bufio.NewReader(f))
	h, err := rd.Header()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	// preamble + header + header CRC + payload + trailer (plen, pcrc, digest).
	want := rd.hdrBytes + rd.payloadSz + 20
	if st.Size() != want {
		return nil, fmt.Errorf("%s: %w: file is %d bytes, header implies %d",
			path, ErrCorrupt, st.Size(), want)
	}
	var dg [8]byte
	if _, err := f.ReadAt(dg[:], st.Size()-8); err != nil {
		return nil, fmt.Errorf("%s: %w: read digest: %v", path, ErrCorrupt, err)
	}
	return &Info{
		Version: Version, Header: h, PayloadBytes: rd.payloadSz,
		Digest: binary.LittleEndian.Uint64(dg[:]), FileBytes: st.Size(),
	}, nil
}

// Store is a digest-addressed directory of trace files: each trace lives at
// <dir>/<%016x of key><Ext>, where the key is the caller's stable content
// or generation-input digest (workload.TraceDigest for synthetic traces).
type Store struct {
	Dir string
}

// Path returns where the trace for key lives.
func (s Store) Path(key uint64) string {
	return filepath.Join(s.Dir, fmt.Sprintf("%016x%s", key, Ext))
}

// Load returns the stored trace for key. A missing entry reports
// errors.Is(err, os.ErrNotExist); any other error means the file exists but
// failed verification.
func (s Store) Load(key uint64) (*transformer.Trace, error) {
	tr, err := ReadFile(s.Path(key))
	if err != nil && errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("tracefile: no stored trace for key %016x: %w", key, os.ErrNotExist)
	}
	return tr, err
}

// Save persists tr under key atomically through durable.WriteFile: the bytes
// land in a temp file in the same directory, are fsynced, and are published
// with a rename. Under concurrent writers of the same key — including
// separate processes sharing the directory over a filesystem with atomic
// rename — one writer wins and the entry is always a complete, verified
// file; because encoding is deterministic, every competing writer produces
// identical bytes, so it does not matter which. Partially written temp files
// never alias the key.
func (s Store) Save(key uint64, tr *transformer.Trace) error {
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return fmt.Errorf("tracefile: %w", err)
	}
	if err := durable.WriteFile(s.Path(key), func(w *bufio.Writer) error {
		_, err := Encode(w, tr)
		return err
	}); err != nil {
		return fmt.Errorf("tracefile: save %016x: %w", key, err)
	}
	return nil
}
