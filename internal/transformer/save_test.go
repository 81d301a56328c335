package transformer_test

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/snn"
	"repro/internal/train"
	"repro/internal/transformer"
)

// TestSaveLoadTrainedModel pins the trainsnn → bishop hand-off: a trained
// model's parameters survive a save/load round trip into a differently
// initialized model bit-exactly, so the restored model computes identical
// logits.
func TestSaveLoadTrainedModel(t *testing.T) {
	ds := dataset.CIFAR10Like(40, 20, 10)
	m := transformer.NewModel(transformer.Config{Name: "save-tiny", Blocks: 2, T: 4, N: ds.N,
		D: 32, Heads: 4, MLPRatio: 2, PatchDim: ds.PatchD, Classes: ds.Classes,
		LIF: snn.DefaultLIF()}, 1)
	(&train.Trainer{Model: m, Opt: train.NewAdamW(0.002, 1e-4), ClipL2: 5}).Run(ds, 2)

	var buf bytes.Buffer
	if err := snn.SaveParams(&buf, m.Params()); err != nil {
		t.Fatal(err)
	}
	fresh := transformer.NewModel(m.Cfg, 999) // different init
	if err := snn.LoadParams(&buf, fresh.Params()); err != nil {
		t.Fatal(err)
	}
	a := m.Forward(ds.Test[0].X)
	b := fresh.Forward(ds.Test[0].X)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("restored model must compute identical logits")
		}
	}
}
