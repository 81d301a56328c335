package tracefile_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/accel"
	"repro/internal/hw"
	"repro/internal/tracefile"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// TestRoundTripTable2Grid is the acceptance pin of the trace-serialization
// PR: for every Table 2 model × ±BSA scenario, a trace that went through
// the codec is indistinguishable from the in-memory original — the decoded
// trace is deeply equal, and the accel.Simulate report it produces is
// bit-identical (same JSON bytes, which round-trip floats exactly).
func TestRoundTripTable2Grid(t *testing.T) {
	zoo := transformer.ModelZoo()
	scs := workload.Scenarios()
	opt := accel.DefaultOptions()
	for m := 1; m <= len(zoo); m++ {
		for _, bsa := range []bool{false, true} {
			t.Run(fmt.Sprintf("model%d_bsa=%v", m, bsa), func(t *testing.T) {
				tr := workload.CachedTrace(zoo[m-1], scs[m], workload.TraceOptions{BSA: bsa}, 1)
				var buf bytes.Buffer
				if _, err := tracefile.Encode(&buf, tr); err != nil {
					t.Fatalf("encode: %v", err)
				}
				got, err := tracefile.Decode(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if !reflect.DeepEqual(tr, got) {
					t.Fatal("decoded trace differs from the in-memory trace")
				}
				want := accel.Simulate(tr, opt)
				have := accel.Simulate(got, opt)
				if !reflect.DeepEqual(want, have) {
					t.Fatal("simulation reports differ between original and round-tripped trace")
				}
				wj, err := hw.EncodeReport(want)
				if err != nil {
					t.Fatal(err)
				}
				hj, err := hw.EncodeReport(have)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wj, hj) {
					t.Fatal("report JSON not bit-identical across the codec round trip")
				}
			})
		}
	}
}
