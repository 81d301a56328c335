package backend

import (
	"repro/internal/baseline/ptb"
	"repro/internal/hw"
	"repro/internal/transformer"
)

// PTBName is the table name of the Parallel Time Batching baseline
// (HPCA'22 [27]), the paper's primary hardware comparison point (§6.1).
const PTBName = "ptb"

// PTB wraps the baseline/ptb simulator as a Backend.
type PTB struct {
	Opt ptb.Options
}

// Name implements Backend.
func (PTB) Name() string { return PTBName }

// Simulate implements Backend.
func (b PTB) Simulate(tr *transformer.Trace) *hw.Report { return ptb.Simulate(tr, b.Opt) }

// EncodeOptions implements Backend.
func (b PTB) EncodeOptions() ([]byte, error) { return ptb.EncodeOptions(b.Opt) }

// Digest implements Backend.
func (b PTB) Digest() uint64 { return FoldName(b.Opt.Digest(), PTBName) }
