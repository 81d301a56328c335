package accel

import (
	"encoding/json"
	"fmt"

	"repro/internal/bundle"
	"repro/internal/hw"
)

// EncodeOptions serializes an Options to JSON. The encoding is canonical:
// Go's encoder emits struct fields in declaration order, so equal Options
// always produce byte-identical JSON (which is what makes Digest stable).
func EncodeOptions(o Options) ([]byte, error) { return json.Marshal(o) }

// DecodeOptions parses an Options, rejecting unknown fields anywhere in the
// document, trailing data, and invalid field values (Validate) — a typo'd
// knob fails loudly instead of silently running the default configuration,
// and an impossible bundle shape fails before it reaches the simulator.
func DecodeOptions(data []byte) (Options, error) {
	var o Options
	if err := hw.DecodeStrict(data, &o); err != nil {
		return Options{}, fmt.Errorf("accel: decode Options: %w", err)
	}
	if err := o.Validate(); err != nil {
		return Options{}, fmt.Errorf("accel: decode Options: %w", err)
	}
	return o, nil
}

// Validate reports the first invalid bundle shape of o by field name: a
// Shape that is neither zero (the default) nor positive in both
// dimensions, or an ECP shape that is not positive. The simulator panics
// on either.
func (o Options) Validate() error {
	if sh := o.Shape; sh != (bundle.Shape{}) && (sh.BSt <= 0 || sh.BSn <= 0) {
		return fmt.Errorf("Options.Shape %dx%d is not a positive bundle shape", sh.BSt, sh.BSn)
	}
	if o.ECP != nil {
		if sh := o.ECP.Shape; sh.BSt <= 0 || sh.BSn <= 0 {
			return fmt.Errorf("Options.ECP.Shape %dx%d is not a positive bundle shape", sh.BSt, sh.BSn)
		}
	}
	return nil
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
