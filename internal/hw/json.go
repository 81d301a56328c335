package hw

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
)

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

// DecodeStrict unmarshals into v with unknown fields disallowed and verifies
// the input holds exactly one JSON value. It is the shared strict-decoding
// helper for the packages that serialize configurations referencing hw types
// (accel.Options, the DSE checkpoint records): a schema drift between the
// writer and reader of a record becomes a loud error instead of a silently
// dropped metric.
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
