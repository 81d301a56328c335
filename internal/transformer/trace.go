package transformer

import (
	"fmt"

	"repro/internal/spike"
)

// LayerKind classifies a traced layer for the hardware scheduler.
type LayerKind int

// Layer kinds. Projection and MLP layers run on the stratified dense/sparse
// cores; Attention runs on the TT-Bundle attention core; the tokenizer is
// profiled but, as in the paper (§2.2), is not a dominant target.
const (
	KindProjection LayerKind = iota
	KindAttention
	KindMLP
	KindTokenizer
)

// String returns a short label for the kind.
func (k LayerKind) String() string {
	switch k {
	case KindProjection:
		return "projection"
	case KindAttention:
		return "attention"
	case KindMLP:
		return "mlp"
	case KindTokenizer:
		return "tokenizer"
	}
	return "unknown"
}

// ParseLayerKind is the inverse of String, for serialized trace metadata.
func ParseLayerKind(s string) (LayerKind, error) {
	switch s {
	case "projection":
		return KindProjection, nil
	case "attention":
		return KindAttention, nil
	case "mlp":
		return KindMLP, nil
	case "tokenizer":
		return KindTokenizer, nil
	}
	return 0, fmt.Errorf("transformer: unknown layer kind %q", s)
}

// TraceLayer is one hardware-visible layer of a forward pass: for linear
// layers, the binary input activations and the weight dimensions; for
// attention, the (possibly ECP-pruned) Q/K/V spike tensors plus the token
// keep-masks ECP produced.
type TraceLayer struct {
	Block int    // encoder block index
	Group string // paper's Fig. 11 grouping: "P1", "ATN", "P2", "MLP"
	Name  string // unique layer name, e.g. "blk2.Wq"
	Kind  LayerKind

	// Linear layers (projection / MLP): binary input and weight dims.
	In        *spike.Tensor
	DIn, DOut int

	// Attention layers.
	Q, K, V      *spike.Tensor
	Heads        int
	QKeep, KKeep [][]bool // per (t, n) token survival after ECP; nil = all kept
}

// Trace is the full per-layer activation record of one forward pass, in
// execution order. It is the interface between the software model and the
// hardware simulator, which treats it as read-only: once simulated, a
// trace's layers must not change. The simulator reads the trace's spike
// statistics from a memo the trace carries (Stats), so repeated evaluations
// of one trace tag each tensor once per bundle shape. A Trace holds a lock
// and must not be copied; to derive a variant, build a new Trace from Cfg
// and a copy of Layers.
type Trace struct {
	Cfg    Config
	Layers []TraceLayer

	stats statsMemo
}

// ByGroup returns the traced layers whose Fig. 11 group matches g.
func (tr *Trace) ByGroup(g string) []TraceLayer {
	var out []TraceLayer
	for _, l := range tr.Layers {
		if l.Group == g {
			out = append(out, l)
		}
	}
	return out
}

// KeepFraction returns the fraction of true entries in a keep mask, or 1 if
// the mask is nil (nothing pruned).
func KeepFraction(mask [][]bool) float64 {
	if mask == nil {
		return 1
	}
	var kept, total int
	for _, row := range mask {
		for _, k := range row {
			total++
			if k {
				kept++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(kept) / float64(total)
}
