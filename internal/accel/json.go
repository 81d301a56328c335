package accel

import (
	"encoding/json"
	"fmt"

	"repro/internal/hw"
)

// EncodeOptions serializes an Options to JSON. The encoding is canonical:
// Go's encoder emits struct fields in declaration order, so equal Options
// always produce byte-identical JSON (which is what makes Digest stable).
func EncodeOptions(o Options) ([]byte, error) { return json.Marshal(o) }

// DecodeOptions parses an Options, rejecting unknown fields anywhere in the
// document and trailing data — a typo'd knob in a sweep spec fails loudly
// instead of silently running the default configuration.
func DecodeOptions(data []byte) (Options, error) {
	var o Options
	if err := hw.DecodeStrict(data, &o); err != nil {
		return Options{}, fmt.Errorf("accel: decode Options: %w", err)
	}
	return o, nil
}

// Digest returns a stable 64-bit FNV-1a fingerprint of the *normalized*
// configuration. It is computed from the struct's canonical encoding, never
// from raw input bytes, so two JSON documents with reordered fields (or one
// spelling out the defaults the other omits) digest identically; any change
// to an effective knob changes it.
func (o Options) Digest() uint64 {
	c := o
	c.normalize()
	return hw.DigestJSON(c)
}
