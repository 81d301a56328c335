package ptb

import (
	"encoding/json"
	"fmt"

	"repro/internal/hw"
)

// EncodeOptions serializes an Options to JSON. The encoding is canonical:
// Go's encoder emits struct fields in declaration order, so equal Options
// always produce byte-identical JSON (which is what makes Digest stable).
func EncodeOptions(o Options) ([]byte, error) {
	if err := o.Validate(); err != nil {
		return nil, fmt.Errorf("ptb: encode Options: %w", err)
	}
	return json.Marshal(o)
}

// DecodeOptions parses an Options, rejecting unknown fields anywhere in the
// document, trailing data, and invalid field values — a typo'd knob in a
// sweep spec fails loudly instead of silently running the default
// configuration.
func DecodeOptions(data []byte) (Options, error) {
	var o Options
	if err := hw.DecodeStrict(data, &o); err != nil {
		return Options{}, fmt.Errorf("ptb: decode Options: %w", err)
	}
	if err := o.Validate(); err != nil {
		return Options{}, fmt.Errorf("ptb: decode Options: %w", err)
	}
	return o, nil
}

// Validate reports the first invalid field of o by name: non-finite tech
// constants or negative lane counts. Zero fields are legal — normalize
// treats them as "use the default".
func (o Options) Validate() error {
	if err := o.Tech.CheckFinite("Options.Tech"); err != nil {
		return err
	}
	if o.TimeWindow < 0 {
		return fmt.Errorf("Options.TimeWindow is negative (%d)", o.TimeWindow)
	}
	if o.OutLanes < 0 {
		return fmt.Errorf("Options.OutLanes is negative (%d)", o.OutLanes)
	}
	return nil
}

// Digest returns a stable 64-bit FNV-1a fingerprint of the *normalized*
// configuration, following the accel.Options.Digest conventions: computed
// from the struct's canonical encoding, never from raw input bytes, so two
// JSON documents with reordered fields (or one spelling out the defaults the
// other omits) digest identically; any change to an effective knob changes
// it.
func (o Options) Digest() uint64 {
	c := o
	c.normalize()
	return hw.DigestJSON(c)
}
