package backend

import (
	"repro/internal/accel"
	"repro/internal/hw"
	"repro/internal/transformer"
)

// BishopName is the registry name of the Bishop accelerator backend — the
// canonical backend: DSE records spell it as the *absent* backend tag, so
// PR 3/4-era checkpoints (which predate the backend coordinate) decode and
// resume unchanged.
const BishopName = "bishop"

// Bishop wraps the accel simulator as a Backend.
type Bishop struct {
	Opt accel.Options
}

// Name implements Backend.
func (Bishop) Name() string { return BishopName }

// Simulate implements Backend through accel.Simulate, the sequential,
// pooled walk: the evaluation stack fans out across points, and each
// concurrent evaluation borrows its own Simulator.
func (b Bishop) Simulate(tr *transformer.Trace) *hw.Report {
	return accel.Simulate(tr, b.Opt)
}

// EncodeOptions implements Backend.
func (b Bishop) EncodeOptions() ([]byte, error) { return accel.EncodeOptions(b.Opt) }

// Digest implements Backend: the options digest with the backend name
// folded in. Note dse.Point.Digest does NOT use this for bishop points — it
// keys them on the bare accel.Options.Digest so legacy checkpoint digests
// stay valid — but anything comparing Backend values directly gets the
// collision-free name-folded form.
func (b Bishop) Digest() uint64 { return FoldName(b.Opt.Digest(), BishopName) }

func init() {
	Register(Factory{
		Name:    BishopName,
		Default: func() Backend { return Bishop{Opt: accel.DefaultOptions()} },
		Decode: func(options []byte) (Backend, error) {
			o, err := accel.DecodeOptions(options)
			if err != nil {
				return nil, err
			}
			return Bishop{Opt: o}, nil
		},
	})
}
