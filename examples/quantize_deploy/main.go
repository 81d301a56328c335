// quantize_deploy shows the deployment half of the co-design flow: train a
// spiking transformer, save its weights, reload them into a fresh model,
// quantize to the accelerator's 8-bit weight format (§6.1), and verify that
// classification survives — then report the weight-GLB footprint the Bishop
// memory system would hold and Bishop's speedup over PTB on the trained
// model's own activation trace.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/backend"
	"repro/internal/dataset"
	"repro/internal/quant"
	"repro/internal/snn"
	"repro/internal/train"
	"repro/internal/transformer"
)

func main() {
	ds := dataset.CIFAR10Like(160, 80, 31)
	model := transformer.NewModel(transformer.Config{
		Name: "deploy", Blocks: 2, T: 4, N: ds.N, D: 32, Heads: 4,
		MLPRatio: 2, PatchDim: ds.PatchD, Classes: ds.Classes,
		LIF: snn.DefaultLIF()}, 1)
	trainer := &train.Trainer{Model: model, Opt: train.NewAdamW(0.002, 1e-4), ClipL2: 5}
	acc := trainer.Run(ds, 6)
	fmt.Printf("trained: accuracy %.3f, %d float32 parameters (%.1f KB)\n",
		acc, model.NumParams(), float64(model.NumParams())*4/1024)

	// Trace one test input through the trained model for the simulators.
	model.Forward(ds.Test[0].X)
	trace := model.Trace()

	// Persist and restore — the trainsnn → bishop hand-off.
	var buf bytes.Buffer
	if err := snn.SaveParams(&buf, model.Params()); err != nil {
		log.Fatal(err)
	}
	deployed := transformer.NewModel(model.Cfg, 999)
	if err := snn.LoadParams(&buf, deployed.Params()); err != nil {
		log.Fatal(err)
	}

	// Quantize to the accelerator's 8-bit weight format.
	bytesInt8, maxErr := quant.QuantizeParams(deployed.Params())
	accQ := (&train.Trainer{Model: deployed}).Evaluate(ds)
	fmt.Printf("deployed: int8 footprint %.1f KB (%.0f%% smaller), max weight error %.4g\n",
		float64(bytesInt8)/1024, 100*(1-0.25), maxErr)
	fmt.Printf("accuracy float %.3f -> int8 %.3f\n", acc, accQ)

	bishop, err := backend.Default(backend.BishopName)
	if err != nil {
		log.Fatal(err)
	}
	ptb, err := backend.Default(backend.PTBName)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Bishop speedup vs PTB on this model's trace: %.2fx\n",
		ptb.Simulate(trace).LatencyMS()/bishop.Simulate(trace).LatencyMS())
}
