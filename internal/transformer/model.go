package transformer

import (
	"fmt"

	"repro/internal/snn"
	"repro/internal/spike"
	"repro/internal/tensor"
)

// PruneFn is the hook through which Error-Constrained TTB Pruning (ECP)
// plugs into the attention layers: given the spiking Q and K tensors of one
// SSA block it returns per-(t, n) token keep-masks. Pruned Q tokens zero the
// corresponding attention-map rows; pruned K tokens zero the columns (and so
// the matching V rows never contribute), reproducing the compounding effect
// of Fig. 7. A nil PruneFn keeps everything.
type PruneFn func(q, k *spike.Tensor) (qKeep, kKeep [][]bool)

// block is one residual encoder block: multi-head SSA followed by a spiking
// MLP, with spike residuals added in the current domain before each LIF.
type block struct {
	idx   int
	cfg   Config
	scale float32

	wq, wk, wv, wo *snn.Linear
	w1, w2         *snn.Linear
	// tdBN-lite affines keep currents near the firing threshold (see
	// snn.Affine); one precedes every LIF in the block.
	nQ, nK, nV, nO, nR1, nM1, nR2 *snn.Affine
	lifQ, lifK, lifV, lifO        *snn.LIF
	lifR1, lifM1, lifR2           *snn.LIF

	// forward caches
	q, k, v           *spike.Tensor
	qKeep             [][]bool
	kKeep             [][]bool
	sMaps             [][]*tensor.Mat // [head][t] attention scores (N×N), post-scale
	otemp, r1, m1, r2 *spike.Tensor

	// pooled scratch reused across the per-(head, step) attention loops:
	// N×dh head-column copies and N×N transpose/score-gradient buffers.
	// Indexed via scratchMat; reallocated only on shape change.
	scratch []*tensor.Mat
	// pooled per-step buffers reused across forward/backward calls: float
	// views of the Q/K/V spikes, the concatenated attention outputs, and the
	// backward gradient accumulators. The sMaps matrices above are pooled the
	// same way (MatMulT fully overwrites them each forward).
	qf, kf, vf    []*tensor.Mat
	ycat          []*tensor.Mat
	gQf, gKf, gVf []*tensor.Mat
}

// scratchMat returns pooled matrix #i with the given shape. Every consumer
// fully overwrites its scratch (MatMul/MatMulT/TransposeInto/headColsInto
// all write before reading), so no zeroing is needed on reuse.
func (b *block) scratchMat(i, rows, cols int) *tensor.Mat {
	for len(b.scratch) <= i {
		b.scratch = append(b.scratch, nil)
	}
	m := b.scratch[i]
	if m == nil || m.Rows != rows || m.Cols != cols {
		m = tensor.NewMat(rows, cols)
		b.scratch[i] = m
	}
	return m
}

// matPool resizes *p to T matrices of the given shape, reusing same-shape
// entries across calls. When zero is set the reused matrices are cleared —
// required for accumulator buffers (addHeadCols adds into them); pure
// overwrite targets skip the clear.
func matPool(p *[]*tensor.Mat, T, rows, cols int, zero bool) []*tensor.Mat {
	s := *p
	if cap(s) < T {
		s = append(s[:cap(s)], make([]*tensor.Mat, T-cap(s))...)
	}
	s = s[:T]
	for t := range s {
		m := s[t]
		if m == nil || m.Rows != rows || m.Cols != cols {
			s[t] = tensor.NewMat(rows, cols)
		} else if zero {
			m.Zero()
		}
	}
	*p = s
	return s
}

func newBlock(idx int, cfg Config, rng *tensor.RNG) *block {
	name := fmt.Sprintf("blk%d", idx)
	hid := cfg.D * cfg.MLPRatio
	const gamma0, beta0 = 2.0, 0.1
	return &block{
		idx: idx, cfg: cfg, scale: cfg.AttnScale(),
		wq:   snn.NewLinear(name+".wq", cfg.D, cfg.D, false, rng),
		wk:   snn.NewLinear(name+".wk", cfg.D, cfg.D, false, rng),
		wv:   snn.NewLinear(name+".wv", cfg.D, cfg.D, false, rng),
		wo:   snn.NewLinear(name+".wo", cfg.D, cfg.D, false, rng),
		w1:   snn.NewLinear(name+".w1", cfg.D, hid, false, rng),
		w2:   snn.NewLinear(name+".w2", hid, cfg.D, false, rng),
		nQ:   snn.NewAffine(name+".nq", cfg.D, gamma0, beta0),
		nK:   snn.NewAffine(name+".nk", cfg.D, gamma0, beta0),
		nV:   snn.NewAffine(name+".nv", cfg.D, gamma0, beta0),
		nO:   snn.NewAffine(name+".no", cfg.D, gamma0*2, beta0),
		nR1:  snn.NewAffine(name+".nr1", cfg.D, gamma0, beta0),
		nM1:  snn.NewAffine(name+".nm1", hid, gamma0, beta0),
		nR2:  snn.NewAffine(name+".nr2", cfg.D, gamma0, beta0),
		lifQ: snn.NewLIF(cfg.LIF), lifK: snn.NewLIF(cfg.LIF), lifV: snn.NewLIF(cfg.LIF),
		lifO: snn.NewLIF(cfg.LIF), lifR1: snn.NewLIF(cfg.LIF),
		lifM1: snn.NewLIF(cfg.LIF), lifR2: snn.NewLIF(cfg.LIF),
	}
}

func (b *block) params() []*snn.Param {
	var ps []*snn.Param
	for _, l := range []*snn.Linear{b.wq, b.wk, b.wv, b.wo, b.w1, b.w2} {
		ps = append(ps, l.Params()...)
	}
	for _, a := range []*snn.Affine{b.nQ, b.nK, b.nV, b.nO, b.nR1, b.nM1, b.nR2} {
		ps = append(ps, a.Params()...)
	}
	return ps
}

// headColsInto copies head h's columns of m into dst (N×dh), reusing the
// caller's scratch instead of allocating per (head, step).
func headColsInto(dst, m *tensor.Mat, h, dh int) {
	for n := 0; n < m.Rows; n++ {
		copy(dst.Row(n), m.Row(n)[h*dh:(h+1)*dh])
	}
}

// addSpikes accumulates the binary time slice t of s into dst — the
// current-domain residual path, without materializing a float view of the
// spikes. Adding 1.0 exactly where bits are set matches AddInPlace on a
// 0/1 matrix bit for bit.
func addSpikes(dst *tensor.Mat, s *spike.Tensor, t int) {
	for n := 0; n < s.N; n++ {
		row := dst.Row(n)
		s.ForEachSetToken(t, n, func(d int) { row[d]++ })
	}
}

// addHeadCols accumulates src (N×dh) into head h's columns of dst.
func addHeadCols(dst, src *tensor.Mat, h, dh int) {
	for n := 0; n < dst.Rows; n++ {
		drow := dst.Row(n)[h*dh : (h+1)*dh]
		for j, v := range src.Row(n) {
			drow[j] += v
		}
	}
}

// applyKeepMask zeroes rows of the per-step float views for tokens whose
// keep flag is false.
func applyKeepMask(mats []*tensor.Mat, keep [][]bool) {
	if keep == nil {
		return
	}
	for t, m := range mats {
		for n := 0; n < m.Rows; n++ {
			if !keep[t][n] {
				row := m.Row(n)
				for j := range row {
					row[j] = 0
				}
			}
		}
	}
}

// forward runs the block on input spikes xs and returns the output spikes.
// Every projection consumes its binary input through the spike-driven GEMM
// (ForwardSpikes) and the residual paths add spikes directly, so the block
// never materializes a float view of its input or MLP spike tensors; only
// the attention Q/K/V slices are expanded (their head-sliced score GEMMs
// and ECP keep-masks operate on float views).
func (b *block) forward(xs *spike.Tensor, prune PruneFn) *spike.Tensor {
	cfg := b.cfg

	// P1: Q/K/V projections + LIF (Eq. 3–5).
	b.q = b.lifQ.Forward(b.nQ.Forward(b.wq.ForwardSpikes(xs)))
	b.k = b.lifK.Forward(b.nK.Forward(b.wk.ForwardSpikes(xs)))
	b.v = b.lifV.Forward(b.nV.Forward(b.wv.ForwardSpikes(xs)))

	b.qKeep, b.kKeep = nil, nil
	if prune != nil {
		b.qKeep, b.kKeep = prune(b.q, b.k)
	}

	b.qf = snn.SpikesToMatsInto(b.qf, b.q)
	b.kf = snn.SpikesToMatsInto(b.kf, b.k)
	b.vf = snn.SpikesToMatsInto(b.vf, b.v)
	applyKeepMask(b.qf, b.qKeep)
	applyKeepMask(b.kf, b.kKeep)

	// ATN: per-head S = Q·Kᵀ·s, Y = S·V (Eq. 6).
	dh := cfg.HeadDim()
	if len(b.sMaps) != cfg.Heads {
		b.sMaps = make([][]*tensor.Mat, cfg.Heads)
	}
	ycat := matPool(&b.ycat, cfg.T, cfg.N, cfg.D, true)
	qh := b.scratchMat(0, cfg.N, dh)
	kh := b.scratchMat(1, cfg.N, dh)
	vh := b.scratchMat(2, cfg.N, dh)
	y := b.scratchMat(3, cfg.N, dh)
	for h := 0; h < cfg.Heads; h++ {
		matPool(&b.sMaps[h], cfg.T, cfg.N, cfg.N, false)
		for t := 0; t < cfg.T; t++ {
			headColsInto(qh, b.qf[t], h, dh)
			headColsInto(kh, b.kf[t], h, dh)
			headColsInto(vh, b.vf[t], h, dh)
			s := b.sMaps[h][t]
			tensor.MatMulT(s, qh, kh)
			s.ScaleInPlace(b.scale)
			tensor.MatMul(y, s, vh)
			addHeadCols(ycat[t], y, h, dh)
		}
	}

	// Eq. 7–8: LIF precedes the output projection so Wo multiplies binary
	// activations.
	b.otemp = b.lifO.Forward(b.nO.Forward(ycat))
	ocur := b.wo.ForwardSpikes(b.otemp)

	// Residual 1: attention output + block input, in the current domain.
	// wo's pooled output is owned until its next call; add in place.
	for t := range ocur {
		addSpikes(ocur[t], xs, t)
	}
	b.r1 = b.lifR1.Forward(b.nR1.Forward(ocur))

	// MLP block with residual 2.
	b.m1 = b.lifM1.Forward(b.nM1.Forward(b.w1.ForwardSpikes(b.r1)))
	m2cur := b.w2.ForwardSpikes(b.m1)
	for t := range m2cur {
		addSpikes(m2cur[t], b.r1, t)
	}
	b.r2 = b.lifR2.Forward(b.nR2.Forward(m2cur))
	return b.r2
}

// backward propagates per-step gradients w.r.t. the block output spikes back
// to gradients w.r.t. the block input spikes, accumulating weight gradients.
// bsa, when enabled, injects the bundle-sparsity gradient at each
// regularized spike tensor.
func (b *block) backward(gradOut []*tensor.Mat, bsa *BSAConfig) []*tensor.Mat {
	cfg := b.cfg
	dh := cfg.HeadDim()

	// Residual 2 and MLP.
	gR2cur := b.nR2.Backward(b.lifR2.Backward(gradOut))
	gR1f := make([]*tensor.Mat, cfg.T)
	for t := range gR1f {
		gR1f[t] = gR2cur[t].Clone() // residual path
	}
	gM1f := b.w2.Backward(gR2cur)
	addBSA(bsa, b.m1, gM1f)
	gM1cur := b.nM1.Backward(b.lifM1.Backward(gM1f))
	for t, g := range b.w1.Backward(gM1cur) {
		gR1f[t].AddInPlace(g)
	}

	// Residual 1 and output projection.
	addBSA(bsa, b.r1, gR1f)
	gR1cur := b.nR1.Backward(b.lifR1.Backward(gR1f))
	gXf := make([]*tensor.Mat, cfg.T)
	for t := range gXf {
		gXf[t] = gR1cur[t].Clone() // residual path to block input
	}
	gOtempF := b.wo.Backward(gR1cur)
	addBSA(bsa, b.otemp, gOtempF)
	gYcat := b.nO.Backward(b.lifO.Backward(gOtempF))

	// Attention: dV = Sᵀ·dY, dS = dY·Vᵀ, dQ = s·dS·K, dK = s·dSᵀ·Q.
	b.qf = snn.SpikesToMatsInto(b.qf, b.q)
	b.kf = snn.SpikesToMatsInto(b.kf, b.k)
	b.vf = snn.SpikesToMatsInto(b.vf, b.v)
	qf, kf, vf := b.qf, b.kf, b.vf
	applyKeepMask(qf, b.qKeep)
	applyKeepMask(kf, b.kKeep)
	gQf := matPool(&b.gQf, cfg.T, cfg.N, cfg.D, true)
	gKf := matPool(&b.gKf, cfg.T, cfg.N, cfg.D, true)
	gVf := matPool(&b.gVf, cfg.T, cfg.N, cfg.D, true)
	// Scratch layout: indices 0–3 are the forward pools (reused here where
	// shapes allow), 4+ are backward-only. sT holds Sᵀ so the transposed
	// products run through the register-blocked MatMul with one reusable
	// transpose buffer instead of allocating per (head, step).
	gy := b.scratchMat(0, cfg.N, dh)
	vh := b.scratchMat(1, cfg.N, dh)
	gv := b.scratchMat(2, cfg.N, dh)
	gq := b.scratchMat(3, cfg.N, dh)
	gk := b.scratchMat(4, cfg.N, dh)
	kh := b.scratchMat(5, cfg.N, dh)
	qh := b.scratchMat(6, cfg.N, dh)
	gs := b.scratchMat(7, cfg.N, cfg.N)
	sT := b.scratchMat(8, cfg.N, cfg.N)
	for h := 0; h < cfg.Heads; h++ {
		for t := 0; t < cfg.T; t++ {
			headColsInto(gy, gYcat[t], h, dh)
			s := b.sMaps[h][t]
			headColsInto(vh, vf[t], h, dh)
			// dV = Sᵀ·dY via explicit transpose + blocked MatMul.
			tensor.TransposeInto(sT, s)
			tensor.MatMul(gv, sT, gy)
			tensor.MatMulT(gs, gy, vh)
			headColsInto(kh, kf[t], h, dh)
			tensor.MatMul(gq, gs, kh)
			gq.ScaleInPlace(b.scale)
			// dK = dSᵀ·Q, same transpose trick.
			tensor.TransposeInto(sT, gs)
			headColsInto(qh, qf[t], h, dh)
			tensor.MatMul(gk, sT, qh)
			gk.ScaleInPlace(b.scale)
			addHeadCols(gQf[t], gq, h, dh)
			addHeadCols(gKf[t], gk, h, dh)
			addHeadCols(gVf[t], gv, h, dh)
		}
	}
	// Pruned tokens contribute nothing through attention; their spike
	// gradients are zero. The BSA penalty still applies to them (the
	// spikes fired and are regularized regardless of pruning).
	zeroPruned(gQf, b.qKeep)
	zeroPruned(gKf, b.kKeep)
	addBSA(bsa, b.q, gQf)
	addBSA(bsa, b.k, gKf)

	for t, g := range b.wq.Backward(b.nQ.Backward(b.lifQ.Backward(gQf))) {
		gXf[t].AddInPlace(g)
	}
	for t, g := range b.wk.Backward(b.nK.Backward(b.lifK.Backward(gKf))) {
		gXf[t].AddInPlace(g)
	}
	for t, g := range b.wv.Backward(b.nV.Backward(b.lifV.Backward(gVf))) {
		gXf[t].AddInPlace(g)
	}
	return gXf
}

func zeroPruned(grads []*tensor.Mat, keep [][]bool) {
	if keep == nil {
		return
	}
	for t, g := range grads {
		for n := 0; n < g.Rows; n++ {
			if !keep[t][n] {
				row := g.Row(n)
				for j := range row {
					row[j] = 0
				}
			}
		}
	}
}

// Model is a complete spiking transformer.
type Model struct {
	Cfg Config

	// Prune, when non-nil, applies ECP to every SSA block during forward
	// (both at inference and, for ECP-aware training, during training).
	Prune PruneFn

	// BSA, when non-nil, enables Bundle-Sparsity-Aware training: Backward
	// additionally injects the gradient of Lambda·L_bsp (Eq. 10) at every
	// regularized spike tensor.
	BSA *BSAConfig

	tok    *snn.Linear
	tokLIF *snn.LIF
	blocks []*block
	head   *snn.Linear

	// forward caches
	rate   *tensor.Mat
	rateND []float32
	trace  *Trace
}

// NewModel builds a model with deterministic initialization from seed.
func NewModel(cfg Config, seed uint64) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := tensor.NewRNG(seed)
	m := &Model{
		Cfg:    cfg,
		tok:    snn.NewLinear("tok", cfg.PatchDim, cfg.D, true, rng),
		tokLIF: snn.NewLIF(cfg.LIF),
		head:   snn.NewLinear("head", cfg.D, cfg.Classes, true, rng),
	}
	for i := 0; i < cfg.Blocks; i++ {
		m.blocks = append(m.blocks, newBlock(i, cfg, rng))
	}
	return m
}

// Params returns every trainable parameter in the model.
func (m *Model) Params() []*snn.Param {
	ps := append([]*snn.Param{}, m.tok.Params()...)
	for _, b := range m.blocks {
		ps = append(ps, b.params()...)
	}
	return append(ps, m.head.Params()...)
}

// NumParams returns the total scalar parameter count.
func (m *Model) NumParams() int {
	var n int
	for _, p := range m.Params() {
		n += len(p.W.Data)
	}
	return n
}

// Forward runs a static input (N×PatchDim token features, direct-encoded
// over T steps) through the model and returns the 1×Classes logits.
func (m *Model) Forward(x *tensor.Mat) *tensor.Mat {
	return m.ForwardSteps(snn.DirectEncode(x, m.Cfg.T))
}

// ForwardSteps runs a temporal input (one N×PatchDim matrix per time step,
// e.g. DVS event frames) through the model.
func (m *Model) ForwardSteps(xs []*tensor.Mat) *tensor.Mat {
	cfg := m.Cfg
	if len(xs) != cfg.T {
		panic(fmt.Sprintf("transformer: %d input steps want %d", len(xs), cfg.T))
	}
	s := m.tokLIF.Forward(m.tok.Forward(xs))

	tr := &Trace{Cfg: cfg}
	tr.Layers = append(tr.Layers, TraceLayer{
		Block: -1, Group: "TOK", Name: "tokenizer", Kind: KindTokenizer,
		In: s, DIn: cfg.PatchDim, DOut: cfg.D,
	})
	for i, b := range m.blocks {
		in := s
		s = b.forward(in, m.Prune)
		hid := cfg.D * cfg.MLPRatio
		tr.Layers = append(tr.Layers,
			TraceLayer{Block: i, Group: "P1", Name: fmt.Sprintf("blk%d.Wq", i), Kind: KindProjection, In: in, DIn: cfg.D, DOut: cfg.D},
			TraceLayer{Block: i, Group: "P1", Name: fmt.Sprintf("blk%d.Wk", i), Kind: KindProjection, In: in, DIn: cfg.D, DOut: cfg.D},
			TraceLayer{Block: i, Group: "P1", Name: fmt.Sprintf("blk%d.Wv", i), Kind: KindProjection, In: in, DIn: cfg.D, DOut: cfg.D},
			TraceLayer{Block: i, Group: "ATN", Name: fmt.Sprintf("blk%d.attn", i), Kind: KindAttention,
				Q: b.q, K: b.k, V: b.v, Heads: cfg.Heads, QKeep: b.qKeep, KKeep: b.kKeep},
			TraceLayer{Block: i, Group: "P2", Name: fmt.Sprintf("blk%d.Wo", i), Kind: KindProjection, In: b.otemp, DIn: cfg.D, DOut: cfg.D},
			TraceLayer{Block: i, Group: "MLP", Name: fmt.Sprintf("blk%d.W1", i), Kind: KindMLP, In: b.r1, DIn: cfg.D, DOut: hid},
			TraceLayer{Block: i, Group: "MLP", Name: fmt.Sprintf("blk%d.W2", i), Kind: KindMLP, In: b.m1, DIn: hid, DOut: cfg.D},
		)
	}
	m.trace = tr

	// Global average pooling over all tokens and time points (Fig. 2).
	if cap(m.rateND) < cfg.N*cfg.D {
		m.rateND = make([]float32, cfg.N*cfg.D)
	}
	rateND := s.RateInto(m.rateND[:cfg.N*cfg.D])
	if m.rate == nil || m.rate.Cols != cfg.D {
		m.rate = tensor.NewMat(1, cfg.D)
	} else {
		m.rate.Zero()
	}
	for n := 0; n < cfg.N; n++ {
		for d := 0; d < cfg.D; d++ {
			m.rate.Data[d] += rateND[n*cfg.D+d] / float32(cfg.N)
		}
	}
	return m.head.Forward([]*tensor.Mat{m.rate})[0]
}

// Backward propagates dL/dlogits through the whole model, accumulating
// parameter gradients.
func (m *Model) Backward(dlogits *tensor.Mat) {
	cfg := m.Cfg
	gRate := m.head.Backward([]*tensor.Mat{dlogits})[0]
	// d rate / d spike(t,n,d) = 1/(T·N)
	inv := 1 / float32(cfg.T*cfg.N)
	grad := make([]*tensor.Mat, cfg.T)
	for t := range grad {
		g := tensor.NewMat(cfg.N, cfg.D)
		for n := 0; n < cfg.N; n++ {
			row := g.Row(n)
			for d := 0; d < cfg.D; d++ {
				row[d] = gRate.Data[d] * inv
			}
		}
		grad[t] = g
	}
	for i := len(m.blocks) - 1; i >= 0; i-- {
		// A block's output is the next block's projection input, which is
		// in the BSA-regularized set; the final block's output feeds only
		// the classifier head and is not regularized.
		if i < len(m.blocks)-1 {
			addBSA(m.BSA, m.blocks[i].r2, grad)
		}
		grad = m.blocks[i].backward(grad, m.BSA)
	}
	// The tokenizer output is block 0's projection input.
	addBSA(m.BSA, m.tokLIF.Output(), grad)
	m.tok.Backward(m.tokLIF.Backward(grad))
}

// Trace returns the activation trace of the most recent forward pass.
func (m *Model) Trace() *Trace { return m.trace }

// AttentionScores returns the attention maps of the given block from the
// most recent forward pass, indexed [head][time] as N×N score matrices
// (post-scale). The matrices are pooled: they stay valid until the next
// forward pass, so callers keeping scores across passes must copy them.
// Used by the Fig. 8 attention-focus analysis.
func (m *Model) AttentionScores(block int) [][]*tensor.Mat {
	return m.blocks[block].sMaps
}

// AllSpikeTensors returns every traced binary activation tensor (projection,
// MLP inputs, and attention Q/K) — the tensors over which the BSA loss of
// Eq. 10 is defined.
func (m *Model) AllSpikeTensors() []*spike.Tensor {
	if m.trace == nil {
		return nil
	}
	var out []*spike.Tensor
	seen := map[*spike.Tensor]bool{}
	add := func(s *spike.Tensor) {
		if s != nil && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, l := range m.trace.Layers {
		if l.Kind == KindAttention {
			add(l.Q)
			add(l.K)
			continue
		}
		if l.Kind != KindTokenizer {
			add(l.In)
		}
	}
	return out
}
