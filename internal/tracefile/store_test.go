package tracefile_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/tracefile"
)

func TestStoreSaveLoad(t *testing.T) {
	st := tracefile.Store{Dir: filepath.Join(t.TempDir(), "traces")} // exercises MkdirAll
	tr := testTrace(21, 70)
	const key = 0xfeedface12345678
	if err := st.Save(key, tr); err != nil {
		t.Fatalf("save: %v", err)
	}
	if base := filepath.Base(st.Path(key)); base != "feedface12345678"+tracefile.Ext {
		t.Fatalf("store path %q not digest-addressed", base)
	}
	got, err := st.Load(key)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("loaded trace differs from saved trace")
	}
}

func TestStoreLoadMissing(t *testing.T) {
	st := tracefile.Store{Dir: t.TempDir()}
	if _, err := st.Load(42); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing key must report os.ErrNotExist, got %v", err)
	}
}

func TestStoreLoadCorrupt(t *testing.T) {
	st := tracefile.Store{Dir: t.TempDir()}
	const key = 7
	if err := os.WriteFile(st.Path(key), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := st.Load(key)
	if err == nil || errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt entry must fail loudly (and not as not-exist): %v", err)
	}
}

// TestStoreConcurrentWriters pins the sharing contract of the issue: many
// concurrent writers of one key (standing in for DSE shards on a shared
// filesystem), one winner, and the surviving bytes are exactly one complete
// encoding — identical to what any single writer would have produced.
func TestStoreConcurrentWriters(t *testing.T) {
	st := tracefile.Store{Dir: t.TempDir()}
	tr := testTrace(33, 130)
	const key = 0xabcdef
	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = st.Save(key, tr)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	got, err := st.Load(key)
	if err != nil {
		t.Fatalf("load after concurrent saves: %v", err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("surviving trace differs")
	}
	onDisk, err := os.ReadFile(st.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if _, err := tracefile.Encode(&ref, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, ref.Bytes()) {
		t.Fatal("surviving file is not byte-identical to a reference encoding")
	}
	tmps, err := filepath.Glob(filepath.Join(st.Dir, ".tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}

func TestReadFileRejectsTrailingData(t *testing.T) {
	st := tracefile.Store{Dir: t.TempDir()}
	path := st.Path(5)
	tr := testTrace(5, 20)
	if err := st.Save(5, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := tracefile.ReadFile(path); err != nil {
		t.Fatalf("clean read: %v", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0})
	f.Close()
	if _, err := tracefile.ReadFile(path); !errors.Is(err, tracefile.ErrCorrupt) {
		t.Fatalf("trailing byte must be ErrCorrupt, got %v", err)
	}
}

func TestFileInfo(t *testing.T) {
	st := tracefile.Store{Dir: t.TempDir()}
	path := st.Path(6)
	tr := testTrace(6, 64)
	if err := st.Save(6, tr); err != nil {
		t.Fatal(err)
	}
	dig, err := tracefile.Digest(tr)
	if err != nil {
		t.Fatal(err)
	}
	in, err := tracefile.FileInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if in.Digest != dig {
		t.Fatalf("FileInfo digest %016x, tracefile.Digest %016x", in.Digest, dig)
	}
	if in.FileBytes <= in.PayloadBytes || in.PayloadBytes <= 0 {
		t.Fatalf("implausible sizes: %+v", in)
	}
	// Truncating the file breaks the size cross-check without a full read.
	if err := os.Truncate(path, in.FileBytes-3); err != nil {
		t.Fatal(err)
	}
	if _, err := tracefile.FileInfo(path); !errors.Is(err, tracefile.ErrCorrupt) {
		t.Fatalf("truncated file must be ErrCorrupt, got %v", err)
	}
}
