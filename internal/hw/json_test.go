package hw

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func sampleResult(k float64) Result {
	return Result{
		Cycles: int64(1000 * k), EPE: 1.25 * k, EGLB: 0.5 * k,
		EDRAM: 1e9 * k, EStatic: 1.0 / (3 * k), DRAMBytes: int64(77 * k),
		GLBBytes: int64(13 * k), OpsAcc: int64(5 * k), OpsMul: 0, OpsAnd: int64(k),
	}
}

func sampleReport() *Report {
	rep := &Report{Name: "Bishop", Tech: Default28nm()}
	rep.Layers = []LayerReport{
		{Block: 0, Group: "P1", Name: "blk0.Wq", Core: "dense+sparse",
			Result: sampleResult(1), Dense: sampleResult(0.5), Sparse: sampleResult(0.25)},
		{Block: 0, Group: "ATN", Name: "blk0.attn", Core: "attention",
			Result: sampleResult(3)},
	}
	rep.Finalize()
	return rep
}

// TestResultJSONRoundTrip pins that a Result, as a checkpoint record carries
// it, survives json.Marshal and DecodeStrict bit-exactly.
func TestResultJSONRoundTrip(t *testing.T) {
	// 1/(3k) and the DRAM-background charge are not exactly representable;
	// the round trip must keep them bit-exact anyway.
	for _, k := range []float64{1, 3, 7.77, 1e-9, 1e12} {
		in := sampleResult(k)
		data, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var out Result
		if err := DecodeStrict(data, &out); err != nil {
			t.Fatal(err)
		}
		if in != out {
			t.Fatalf("round trip drifted:\n in %+v\nout %+v", in, out)
		}
		if math.Float64bits(in.EStatic) != math.Float64bits(out.EStatic) {
			t.Fatal("EStatic bits drifted")
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	in := sampleReport()
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out := &Report{}
	if err := DecodeStrict(data, out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip drifted:\n in %+v\nout %+v", in, out)
	}
	// Derived metrics recompute identically from the decoded report.
	if in.LatencyMS() != out.LatencyMS() || in.EnergyMJ() != out.EnergyMJ() || in.EDP() != out.EDP() {
		t.Fatal("derived metrics drifted")
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	cases := []string{
		`{"Cycles": 1, "Bogus": 2}`,
		`{"Cycles": 1} {"Cycles": 2}`, // trailing value
	}
	for _, c := range cases {
		var r Result
		if err := DecodeStrict([]byte(c), &r); err == nil {
			t.Errorf("DecodeStrict(%q) must fail", c)
		}
	}
	// Unknown fields are rejected even nested inside layers.
	bad := `{"Name":"x","Layers":[{"Result":{"Cyclez":1}}]}`
	if err := DecodeStrict([]byte(bad), &Report{}); err == nil {
		t.Error("DecodeStrict must reject an unknown field nested in Layers")
	}
}

func FuzzDecodeResult(f *testing.F) {
	seed, err := json.Marshal(sampleResult(2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(seed))
	f.Add(`{"Cycles": 12}`)
	f.Add(`{"Cycles": -1, "EPE": 1e308}`)
	f.Add(`{`)
	f.Add(`null`)
	f.Fuzz(func(t *testing.T, data string) {
		var r Result
		if err := DecodeStrict([]byte(data), &r); err != nil {
			return
		}
		// Whatever decodes must re-encode and decode to the same value:
		// decode∘encode is the identity on the decoder's image.
		enc, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("decoded value does not re-encode: %v", err)
		}
		var r2 Result
		if err := DecodeStrict(enc, &r2); err != nil {
			t.Fatalf("re-encoded value does not decode: %v", err)
		}
		if r != r2 {
			t.Fatalf("decode∘encode not identity: %+v vs %+v", r, r2)
		}
	})
}

func FuzzDecodeReport(f *testing.F) {
	seed, err := json.Marshal(sampleReport())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(seed))
	f.Add(`{"Name":"a","Layers":[]}`)
	f.Add(`{"Layers":[{"Group":"P1"}]}`)
	f.Fuzz(func(t *testing.T, data string) {
		rep := &Report{}
		if err := DecodeStrict([]byte(data), rep); err != nil {
			return
		}
		enc, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("decoded report does not re-encode: %v", err)
		}
		if err := DecodeStrict(enc, &Report{}); err != nil {
			t.Fatalf("re-encoded report does not decode: %v", err)
		}
	})
}

// TestDecodeRejectsNonFinite: strict decoding refuses values that would
// materialize as non-finite floats, and Tech.CheckFinite names the field
// that a caller-built value got wrong.
func TestDecodeRejectsNonFinite(t *testing.T) {
	var r Result
	if err := DecodeStrict([]byte(`{"Cycles":1,"EPE":1e999,"EGLB":0,"EDRAM":0,"EStatic":0,"DRAMBytes":0,"GLBBytes":0,"OpsAcc":0,"OpsMul":0,"OpsAnd":0}`), &r); err == nil {
		t.Fatal("out-of-range literal must not decode")
	}
	tech := Default28nm()
	if err := tech.CheckFinite("Tech"); err != nil {
		t.Fatalf("finite CheckFinite: %v", err)
	}
	tech.PDRAM = math.NaN()
	if err := tech.CheckFinite("Tech"); err == nil || !strings.Contains(err.Error(), "Tech.PDRAM is NaN") {
		t.Fatalf("CheckFinite: %v", err)
	}
	tech.PDRAM, tech.EAnd = 0, math.Inf(-1)
	if err := tech.CheckFinite("Options.Tech"); err == nil || !strings.Contains(err.Error(), "Options.Tech.EAnd is -Inf") {
		t.Fatalf("CheckFinite: %v", err)
	}
}
