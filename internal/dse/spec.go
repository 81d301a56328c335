package dse

import (
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/hw"
)

// SweepSpec is the canonical, serializable description of one sweep
// request: the declarative space, the enumeration mode (full grid or a
// seeded-random sample), the trace seed, the shard assignment, and the
// execution attachments (checkpoint path, shared trace directory, worker
// count). It is the single type every sweep entry point speaks — cmd/dse
// builds one from flags, bishopd accepts one as the POST /v1/sweeps body,
// and both hand it to the same runner — so a sweep can be saved, replayed,
// and submitted over the wire without any surface-specific translation.
//
// The JSON codec is strict (unknown fields reject, mirroring the
// accel/ptb/gpu option codecs), so a typo'd axis name fails loudly instead
// of silently sweeping the default space.
type SweepSpec struct {
	Space Space `json:"space"`

	// Random > 0 draws that many seeded-random points (Space.Sample) instead
	// of enumerating the full grid.
	Random int `json:"random,omitempty"`

	// Seed is the trace seed shared by every point, and the random-search
	// seed when Random is set. Zero means the default seed 1.
	Seed uint64 `json:"seed,omitempty"`

	// Shard i of Shards partitions the enumerated point set deterministically
	// (point i belongs to shard i mod Shards). Zero Shards means unsharded.
	Shard  int `json:"shard,omitempty"`
	Shards int `json:"shards,omitempty"`

	// Fidelity is the trace-scale divisor every evaluation runs at: 0 or 1
	// means the full trace (the canonical spelling is the absent field, so
	// pre-fidelity specs keep their digests), k > 1 evaluates the ~1/k-volume
	// proxy trace and tags every record with the fidelity. Successive-halving
	// rungs are ordinary sweeps with this set.
	Fidelity int `json:"fidelity,omitempty"`

	// Select, when non-empty, restricts evaluation to the listed point
	// digests (%016x) while keeping every point's index in the full
	// enumeration — how the halving driver narrows a rung to its survivors
	// without perturbing record bytes. Normalized specs carry it sorted and
	// deduplicated.
	Select []string `json:"select,omitempty"`

	// Checkpoint is the JSONL record file making the sweep resumable;
	// TraceDir points the process-wide trace store at a shared directory
	// (both are execution attachments: they do not change which records the
	// sweep produces, and do not enter the spec digest).
	Checkpoint string `json:"checkpoint,omitempty"`
	TraceDir   string `json:"trace_dir,omitempty"`

	// Jobs bounds the parallel evaluators (<=0 → GOMAXPROCS). Execution
	// detail, excluded from the digest like Checkpoint and TraceDir.
	Jobs int `json:"jobs,omitempty"`
}

// Normalized returns the spec with the zero spellings of the scalar knobs
// resolved: Seed 0 becomes the default seed 1, Shards <= 0 becomes the
// single shard 1, Fidelity 1 collapses to the canonical 0 (full), and the
// Select list is sorted and deduplicated. The space axes keep their compact
// spelling — Points and Digest normalize them on the fly.
func (s SweepSpec) Normalized() SweepSpec {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Shards <= 0 {
		s.Shards = 1
	}
	if s.Fidelity == 1 {
		s.Fidelity = 0
	}
	if len(s.Select) > 0 {
		sel := slices.Clone(s.Select)
		slices.Sort(sel)
		s.Select = slices.Compact(sel)
	}
	return s
}

// Validate reports an invalid spec — bad axis values, a negative sample
// count, a shard index outside [0, Shards), a negative fidelity, or a
// malformed select digest — before a sweep (or a daemon job slot) burns
// time on it.
func (s SweepSpec) Validate() error {
	if err := s.Space.Validate(); err != nil {
		return err
	}
	if s.Random < 0 {
		return fmt.Errorf("dse: negative random sample count %d", s.Random)
	}
	if s.Fidelity < 0 {
		return fmt.Errorf("dse: negative fidelity %d", s.Fidelity)
	}
	for _, d := range s.Select {
		if !validDigest(d) {
			return fmt.Errorf("dse: select entry %q is not a 16-hex point digest", d)
		}
	}
	n := s.Normalized()
	if n.Shard < 0 || n.Shard >= n.Shards {
		return fmt.Errorf("dse: shard %d outside [0,%d)", n.Shard, n.Shards)
	}
	return nil
}

// validDigest reports whether d is spelled the way digestKey renders point
// digests: exactly 16 lowercase hex characters.
func validDigest(d string) bool {
	if len(d) != 16 {
		return false
	}
	for i := 0; i < len(d); i++ {
		c := d[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Points enumerates the spec's point set: the full grid, or the seeded
// sample when Random is set. The enumeration order defines each point's
// index for sharding, exactly as with a bare Space.
func (s SweepSpec) Points() []Point {
	n := s.Normalized()
	if n.Random > 0 {
		return n.Space.Sample(n.Random, n.Seed)
	}
	return n.Space.Grid()
}

// Config translates the spec's execution knobs into a sweep Config.
func (s SweepSpec) Config() Config {
	n := s.Normalized()
	return Config{Seed: n.Seed, Checkpoint: n.Checkpoint, Shard: n.Shard, Shards: n.Shards,
		Jobs: n.Jobs, Fidelity: n.Fidelity, Select: n.Select}
}

// Digest fingerprints the *result identity* of the spec: which records a
// run of it produces. Following the accel.Options.Digest conventions it is
// a 64-bit FNV-1a over the canonical JSON encoding of the normalized spec —
// the space with every default spelled out, seed and shards resolved — so
// two spellings of the same sweep (defaults omitted vs. explicit, fields
// reordered) digest identically. Execution attachments (Checkpoint,
// TraceDir, Jobs) are excluded: they change where and how fast the sweep
// runs, not what it computes. The daemon keys jobs on this digest, which is
// what makes submission idempotent.
func (s SweepSpec) Digest() uint64 {
	c := s.Normalized()
	c.Space = c.Space.normalized()
	c.Checkpoint, c.TraceDir, c.Jobs = "", "", 0
	return hw.DigestJSON(c)
}

// ID renders the spec digest the way the daemon names jobs (and checkpoints
// render point digests): %016x.
func (s SweepSpec) ID() string { return fmt.Sprintf("%016x", s.Digest()) }

// EncodeSpec serializes a validated spec as indented JSON (trailing
// newline), the on-disk and on-the-wire spec format.
func EncodeSpec(s SweepSpec) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("dse: encode SweepSpec: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeSpec parses and validates a spec document, rejecting unknown fields
// anywhere in it and trailing data.
func DecodeSpec(data []byte) (SweepSpec, error) {
	var s SweepSpec
	if err := hw.DecodeStrict(data, &s); err != nil {
		return SweepSpec{}, fmt.Errorf("dse: decode SweepSpec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return SweepSpec{}, err
	}
	return s, nil
}
