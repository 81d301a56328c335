package accel

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/bundle"
)

func sampleOptions() Options {
	opt := DefaultOptions()
	opt.Shape = bundle.Shape{BSt: 2, BSn: 4}
	opt.ThetaS = 3
	opt.SplitTarget = 0.37
	opt.ECP = &bundle.ECPConfig{Shape: opt.Shape, ThetaQ: 6, ThetaK: 8}
	return opt
}

func TestOptionsJSONRoundTrip(t *testing.T) {
	for _, opt := range []Options{DefaultOptions(), sampleOptions(), {}} {
		data, err := EncodeOptions(opt)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecodeOptions(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(opt, out) {
			t.Fatalf("round trip drifted:\n in %+v\nout %+v", opt, out)
		}
	}
}

func TestDecodeOptionsRejectsUnknownFields(t *testing.T) {
	for _, c := range []string{
		`{"Stratify": true, "Strattify": false}`,
		`{"ECP": {"Shape": {"BSt":4,"BSn":2}, "Theta": 6}}`, // nested typo
		`{"Stratify": true} true`,
	} {
		if _, err := DecodeOptions([]byte(c)); err == nil {
			t.Errorf("DecodeOptions(%q) must fail", c)
		}
	}
}

// TestValidateShapes pins which bundle shapes Validate, and so
// DecodeOptions, accepts: the zero Shape (the default) or a positive one,
// and only a positive ECP shape.
func TestValidateShapes(t *testing.T) {
	for _, opt := range []Options{{}, DefaultOptions(), sampleOptions()} {
		if err := opt.Validate(); err != nil {
			t.Errorf("%+v: %v", opt, err)
		}
	}
	for _, c := range []struct {
		field string
		set   func(*Options)
	}{
		{"Options.Shape", func(o *Options) { o.Shape = bundle.Shape{BSt: -1, BSn: 2} }},
		{"Options.Shape", func(o *Options) { o.Shape = bundle.Shape{BSt: 0, BSn: 3} }},
		{"Options.ECP.Shape", func(o *Options) { o.ECP = &bundle.ECPConfig{ThetaQ: 2, ThetaK: 2} }},
	} {
		opt := DefaultOptions()
		c.set(&opt)
		err := opt.Validate()
		if err == nil || !strings.HasPrefix(err.Error(), c.field+" ") {
			t.Errorf("%+v: error %v, want one naming %s", opt, err, c.field)
		}
		data, _ := EncodeOptions(opt)
		if _, err := DecodeOptions(data); err == nil {
			t.Errorf("DecodeOptions(%s) accepted an invalid shape", data)
		}
	}
}

func TestDigestStableAcrossFieldOrdering(t *testing.T) {
	// The same configuration spelled with fields in different orders (and
	// through a decode round trip) must digest identically: the digest is
	// computed from the normalized struct, never from raw bytes.
	a := `{"Stratify": true, "ThetaS": 3, "Shape": {"BSt": 2, "BSn": 4}}`
	b := `{"Shape": {"BSn": 4, "BSt": 2}, "ThetaS": 3, "Stratify": true}`
	oa, err := DecodeOptions([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	ob, err := DecodeOptions([]byte(b))
	if err != nil {
		t.Fatal(err)
	}
	if oa.Digest() != ob.Digest() {
		t.Fatalf("field order changed the digest: %#x vs %#x", oa.Digest(), ob.Digest())
	}
}

func TestDigestNormalizesDefaults(t *testing.T) {
	// Spelling out a default and omitting it describe the same effective
	// configuration, so they digest identically.
	zero := Options{Stratify: true, ThetaS: -1}
	full := DefaultOptions()
	if zero.Digest() != full.Digest() {
		t.Fatalf("implicit vs explicit defaults digest differently: %#x vs %#x",
			zero.Digest(), full.Digest())
	}
}

func TestDigestSeparatesKnobs(t *testing.T) {
	base := DefaultOptions()
	seen := map[uint64]string{base.Digest(): "default"}
	mutate := []struct {
		name string
		fn   func(*Options)
	}{
		{"shape", func(o *Options) { o.Shape = bundle.Shape{BSt: 2, BSn: 2} }},
		{"thetaS", func(o *Options) { o.ThetaS = 4 }},
		{"split", func(o *Options) { o.SplitTarget = 0.25 }},
		{"stratify", func(o *Options) { o.Stratify = false }},
		{"ecp", func(o *Options) { o.ECP = &bundle.ECPConfig{Shape: o.Shape, ThetaQ: 6, ThetaK: 6} }},
		{"ecpTheta", func(o *Options) { o.ECP = &bundle.ECPConfig{Shape: o.Shape, ThetaQ: 7, ThetaK: 6} }},
	}
	for _, m := range mutate {
		opt := DefaultOptions()
		m.fn(&opt)
		d := opt.Digest()
		if prev, dup := seen[d]; dup {
			t.Fatalf("knob %q collides with %q", m.name, prev)
		}
		seen[d] = m.name
	}
}

func TestDigestIgnoresECPPointerIdentity(t *testing.T) {
	a, b := sampleOptions(), sampleOptions()
	if a.ECP == b.ECP {
		t.Fatal("want distinct pointers")
	}
	if a.Digest() != b.Digest() {
		t.Fatal("equal ECP configs behind distinct pointers must digest equally")
	}
}

func FuzzDecodeOptions(f *testing.F) {
	for _, opt := range []Options{DefaultOptions(), sampleOptions()} {
		data, err := EncodeOptions(opt)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add(`{"Stratify": true}`)
	f.Add(`{"ECP": null}`)
	f.Add(`[]`)
	f.Fuzz(func(t *testing.T, data string) {
		opt, err := DecodeOptions([]byte(data))
		if err != nil {
			return
		}
		// decode∘encode is the identity on the codec's image, and the
		// digest of the re-decoded value is stable.
		enc, err := EncodeOptions(opt)
		if err != nil {
			t.Fatalf("decoded options do not re-encode: %v", err)
		}
		opt2, err := DecodeOptions(enc)
		if err != nil {
			t.Fatalf("re-encoded options do not decode: %v", err)
		}
		if !reflect.DeepEqual(opt, opt2) {
			t.Fatalf("decode∘encode not identity:\n%+v\n%+v", opt, opt2)
		}
		if opt.Digest() != opt2.Digest() {
			t.Fatal("digest unstable across round trip")
		}
	})
}
