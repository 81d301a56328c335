package hw

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
)

// JSON codecs for the accounting types. Every field of Result, LayerReport,
// Report, Tech, and ArrayConfig is an exported value type, so the default
// encoding already round-trips; what these helpers add is *strictness*:
// decoding rejects unknown fields, which turns a schema drift between the
// writer and reader of a DSE checkpoint into a loud error instead of a
// silently dropped metric.

// EncodeResult serializes a Result to JSON. A non-finite energy field would
// otherwise surface as encoding/json's opaque "unsupported value" error, so
// it is detected first and reported by name.
func EncodeResult(r Result) ([]byte, error) {
	if err := r.CheckFinite("Result"); err != nil {
		return nil, fmt.Errorf("hw: encode Result: %w", err)
	}
	return json.Marshal(r)
}

// DecodeResult parses a Result, rejecting unknown fields, trailing data,
// and non-finite values.
func DecodeResult(data []byte) (Result, error) {
	var r Result
	if err := DecodeStrict(data, &r); err != nil {
		return Result{}, fmt.Errorf("hw: decode Result: %w", err)
	}
	if err := r.CheckFinite("Result"); err != nil {
		return Result{}, fmt.Errorf("hw: decode Result: %w", err)
	}
	return r, nil
}

// EncodeReport serializes a Report to JSON, reporting any non-finite field
// by name (layer and component) instead of encoding/json's opaque
// "unsupported value" error.
func EncodeReport(r *Report) ([]byte, error) {
	if err := r.CheckFinite(); err != nil {
		return nil, fmt.Errorf("hw: encode Report: %w", err)
	}
	return json.Marshal(r)
}

// DecodeReport parses a Report, rejecting unknown fields anywhere in the
// document (including nested layer results), trailing data, and non-finite
// values.
func DecodeReport(data []byte) (*Report, error) {
	r := &Report{}
	if err := DecodeStrict(data, r); err != nil {
		return nil, fmt.Errorf("hw: decode Report: %w", err)
	}
	if err := r.CheckFinite(); err != nil {
		return nil, fmt.Errorf("hw: decode Report: %w", err)
	}
	return r, nil
}

// nonFinite classifies v for error messages; "" means finite.
func nonFinite(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return ""
}

// CheckFinite reports the first non-finite energy field of r by name,
// prefixed with path (e.g. "Layers[3].Dense.EStatic is NaN").
func (r Result) CheckFinite(path string) error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"EPE", r.EPE}, {"EGLB", r.EGLB}, {"EDRAM", r.EDRAM}, {"EStatic", r.EStatic}} {
		if s := nonFinite(f.v); s != "" {
			return fmt.Errorf("%s.%s is %s", path, f.name, s)
		}
	}
	return nil
}

// CheckFinite reports the first non-finite field of t by name, prefixed
// with path.
func (t Tech) CheckFinite(path string) error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"ClockHz", t.ClockHz}, {"EAcc32", t.EAcc32}, {"EAcc8", t.EAcc8},
		{"EMul8", t.EMul8}, {"EAnd", t.EAnd}, {"EMux", t.EMux}, {"EReg", t.EReg},
		{"DRAMBandwidth", t.DRAMBandwidth}, {"EDRAMPerByte", t.EDRAMPerByte},
		{"PDRAM", t.PDRAM}, {"StaticFrac", t.StaticFrac},
	} {
		if s := nonFinite(f.v); s != "" {
			return fmt.Errorf("%s.%s is %s", path, f.name, s)
		}
	}
	return nil
}

// CheckFinite reports the first non-finite float anywhere in the report —
// the tech constants, every layer's result components, and the total — by
// field name.
func (r *Report) CheckFinite() error {
	if err := r.Tech.CheckFinite("Tech"); err != nil {
		return err
	}
	for i := range r.Layers {
		l := &r.Layers[i]
		prefix := fmt.Sprintf("Layers[%d]", i)
		if l.Name != "" {
			prefix = fmt.Sprintf("Layers[%d](%s)", i, l.Name)
		}
		if err := l.Result.CheckFinite(prefix + ".Result"); err != nil {
			return err
		}
		if err := l.Dense.CheckFinite(prefix + ".Dense"); err != nil {
			return err
		}
		if err := l.Sparse.CheckFinite(prefix + ".Sparse"); err != nil {
			return err
		}
	}
	return r.Total.CheckFinite("Total")
}

// DecodeStrict unmarshals into v with unknown fields disallowed and verifies
// the input holds exactly one JSON value. It is the shared strict-decoding
// helper for the packages that serialize configurations referencing hw types
// (accel.Options, the DSE checkpoint records).
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// DigestJSON is the repository's configuration fingerprint: a 64-bit FNV-1a
// over the JSON encoding of v. Go's encoder emits struct fields in
// declaration order, so callers that pass a normalized value get a digest
// that is stable across processes and input spellings. It panics when v
// does not marshal; every caller digests a struct of plain values.
func DigestJSON(v any) uint64 {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("hw: %T not marshalable: %v", v, err))
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}
