package gpu

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/hw"
)

// EncodeOptions serializes an Options to JSON. The encoding is canonical:
// Go's encoder emits struct fields in declaration order, so equal Options
// always produce byte-identical JSON (which is what makes Digest stable).
func EncodeOptions(o Options) ([]byte, error) {
	if err := o.Validate(); err != nil {
		return nil, fmt.Errorf("gpu: encode Options: %w", err)
	}
	return json.Marshal(o)
}

// DecodeOptions parses an Options, rejecting unknown fields anywhere in the
// document, trailing data, and non-finite or negative values — a typo'd or
// corrupted knob in a sweep spec fails loudly instead of silently running
// the default configuration.
func DecodeOptions(data []byte) (Options, error) {
	var o Options
	if err := hw.DecodeStrict(data, &o); err != nil {
		return Options{}, fmt.Errorf("gpu: decode Options: %w", err)
	}
	if err := o.Validate(); err != nil {
		return Options{}, fmt.Errorf("gpu: decode Options: %w", err)
	}
	return o, nil
}

// Validate reports the first non-finite or negative field of o by name,
// in the style of hw's CheckFinite messages ("Options.PeakFLOPS is NaN").
// Zero fields are legal: normalize treats them as "use the default".
func (o Options) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"PeakFLOPS", o.PeakFLOPS}, {"BandwidthBps", o.BandwidthBps},
		{"Utilization", o.Utilization}, {"KernelOverhead", o.KernelOverhead},
		{"PowerW", o.PowerW},
	} {
		switch {
		case math.IsNaN(f.v):
			return fmt.Errorf("Options.%s is NaN", f.name)
		case math.IsInf(f.v, 1):
			return fmt.Errorf("Options.%s is +Inf", f.name)
		case math.IsInf(f.v, -1):
			return fmt.Errorf("Options.%s is -Inf", f.name)
		case f.v < 0:
			return fmt.Errorf("Options.%s is negative (%g)", f.name, f.v)
		}
	}
	return nil
}

// Digest returns a stable 64-bit FNV-1a fingerprint of the *normalized*
// configuration, following the accel.Options.Digest conventions: it is
// computed from the struct's canonical encoding, never from raw input bytes,
// so two JSON documents with reordered fields (or one spelling out the
// defaults the other omits) digest identically; any change to an effective
// knob changes it.
func (o Options) Digest() uint64 {
	c := o
	c.normalize()
	return hw.DigestJSON(c)
}
