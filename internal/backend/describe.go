package backend

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// OptionField describes one knob of a backend's options document: its wire
// name, a coarse JSON type, and its paper-default value as raw JSON.
type OptionField struct {
	Name string `json:"name"`
	// Type is the JSON shape of the field: "integer", "number", "boolean",
	// "string", "object", "array", or "null" (a pointer knob whose default
	// is off, e.g. bishop's ECP).
	Type    string          `json:"type"`
	Default json.RawMessage `json:"default"`
}

// Description is the self-describing schema of one backend kind: the
// backend name, the top-level option fields in canonical (declaration)
// order with their defaults, and the complete default options document. It
// is what GET /v1/backends serves, and what lets generic callers build a
// valid options document without importing the backend's concrete option
// struct.
type Description struct {
	Name     string          `json:"name"`
	Options  []OptionField   `json:"options"`
	Defaults json.RawMessage `json:"defaults"`
}

// Describe returns the named backend's option schema, derived from the
// canonical encoding of its default configuration — so it is always
// consistent with what Decode accepts and EncodeOptions emits, with no
// hand-maintained field list to drift.
func Describe(name string) (Description, error) {
	b, err := Default(name)
	if err != nil {
		return Description{}, err
	}
	defaults, err := b.EncodeOptions()
	if err != nil {
		return Description{}, fmt.Errorf("backend: %s default options not encodable: %w", name, err)
	}
	fields, err := optionFields(defaults)
	if err != nil {
		return Description{}, fmt.Errorf("backend: %s: %w", name, err)
	}
	return Description{Name: name, Options: fields, Defaults: defaults}, nil
}

// DescribeAll describes every backend, sorted by name.
func DescribeAll() []Description {
	var out []Description
	for _, name := range Names() {
		d, err := Describe(name)
		if err != nil {
			panic(err) // unreachable: every table entry encodes its defaults
		}
		out = append(out, d)
	}
	return out
}

// optionFields walks the top level of a canonical options document with a
// token decoder, preserving field order.
func optionFields(doc []byte) ([]OptionField, error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	tok, err := dec.Token()
	if err != nil {
		return nil, fmt.Errorf("options document: %w", err)
	}
	if tok != json.Delim('{') {
		return nil, fmt.Errorf("options document is not a JSON object")
	}
	var fields []OptionField
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("options document: %w", err)
		}
		name, ok := tok.(string)
		if !ok {
			return nil, fmt.Errorf("options document: non-string key %v", tok)
		}
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return nil, fmt.Errorf("options field %s: %w", name, err)
		}
		fields = append(fields, OptionField{Name: name, Type: jsonType(raw), Default: raw})
	}
	return fields, nil
}

// jsonType classifies a raw JSON value; numbers are split into "integer"
// and "number" by spelling, which is faithful for canonical encodings (Go
// emits integral Go ints without a fraction or exponent).
func jsonType(raw json.RawMessage) string {
	s := strings.TrimSpace(string(raw))
	if s == "" {
		return "null"
	}
	switch s[0] {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "boolean"
	case 'n':
		return "null"
	default:
		if strings.ContainsAny(s, ".eE") {
			return "number"
		}
		return "integer"
	}
}
