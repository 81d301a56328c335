// Package transformer implements the spiking vision transformer of Fig. 2:
// a spiking tokenizer, L residual encoder blocks — each a multi-head Spiking
// Self-Attention (SSA, Eq. 3–8) block followed by a spiking MLP block — and a
// rate-decoded classification head. Both inference and surrogate-gradient
// BPTT training are supported, and every forward pass records an activation
// trace (spike tensors at each projection/MLP/attention input) that drives
// the Bishop hardware simulator.
package transformer

import (
	"fmt"
	"math"

	"repro/internal/snn"
)

// Config describes one spiking-transformer architecture.
type Config struct {
	Name     string
	Blocks   int // encoder blocks (B in Table 2)
	T        int // time steps
	N        int // tokens
	D        int // embedding features
	Heads    int // attention heads (D must be divisible)
	MLPRatio int // hidden expansion of the MLP block
	PatchDim int // input features per token fed to the tokenizer
	Classes  int
	LIF      snn.LIFConfig
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Blocks <= 0, c.T <= 0, c.N <= 0, c.D <= 0, c.Heads <= 0,
		c.MLPRatio <= 0, c.PatchDim <= 0, c.Classes <= 0:
		return fmt.Errorf("transformer: non-positive field in config %q", c.Name)
	case c.D%c.Heads != 0:
		return fmt.Errorf("transformer: D=%d not divisible by Heads=%d", c.D, c.Heads)
	}
	return nil
}

// HeadDim returns the per-head feature width.
func (c Config) HeadDim() int { return c.D / c.Heads }

// AttnScale returns the power-of-two scaling factor s of Eq. 6, chosen as
// 1/2^k with 2^k the power of two nearest to sqrt(head dim) so it can be
// realized with a bit shift in hardware.
func (c Config) AttnScale() float32 {
	k := int(math.Round(0.5 * math.Log2(float64(c.HeadDim()))))
	if k < 0 {
		k = 0
	}
	return float32(1) / float32(int(1)<<k)
}

// The paper's Table 2 model zoo. These are the architectures whose workloads
// the hardware experiments (Figs. 11–16) are built on.
var (
	// Model1 is the CIFAR10 configuration (D ≫ N: MLP/projection bound).
	Model1 = Config{Name: "Model1-CIFAR10", Blocks: 4, T: 10, N: 64, D: 384,
		Heads: 8, MLPRatio: 4, PatchDim: 48, Classes: 10, LIF: snn.DefaultLIF()}
	// Model2 is the CIFAR100 configuration.
	Model2 = Config{Name: "Model2-CIFAR100", Blocks: 4, T: 8, N: 64, D: 384,
		Heads: 8, MLPRatio: 4, PatchDim: 48, Classes: 100, LIF: snn.DefaultLIF()}
	// Model3 is the ImageNet-100 configuration (N > D: attention bound).
	Model3 = Config{Name: "Model3-ImageNet100", Blocks: 8, T: 4, N: 196, D: 128,
		Heads: 8, MLPRatio: 4, PatchDim: 768, Classes: 100, LIF: snn.DefaultLIF()}
	// Model4 is the DVS-Gesture configuration (long T, event input).
	Model4 = Config{Name: "Model4-DVSGesture", Blocks: 2, T: 20, N: 64, D: 128,
		Heads: 8, MLPRatio: 4, PatchDim: 512, Classes: 11, LIF: snn.DefaultLIF()}
	// Model5 is the Google Speech Commands configuration (long sequence).
	Model5 = Config{Name: "Model5-GoogleSC", Blocks: 4, T: 8, N: 256, D: 384,
		Heads: 8, MLPRatio: 4, PatchDim: 40, Classes: 35, LIF: snn.DefaultLIF()}
)

// ModelZoo lists the five Table 2 configurations in paper order.
func ModelZoo() []Config { return []Config{Model1, Model2, Model3, Model4, Model5} }

// Tiny returns a scaled-down configuration with the same shape class as cfg
// (same Blocks and T, reduced N/D) that is trainable in pure Go within test
// budgets. It is used by the accuracy-bearing experiments (Table 1, Fig. 5,
// Fig. 14); the hardware experiments use the full-size configs with
// synthetic activity calibrated to the paper's reported densities.
func Tiny(cfg Config, classes, patchDim int) Config {
	t := cfg
	t.Name = cfg.Name + "-tiny"
	t.N = min(cfg.N, 16)
	t.D = 32
	t.Heads = 4
	t.MLPRatio = 2
	t.T = min(cfg.T, 4)
	t.Blocks = min(cfg.Blocks, 2)
	t.Classes = classes
	t.PatchDim = patchDim
	return t
}
