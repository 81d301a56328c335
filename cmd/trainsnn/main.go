// Command trainsnn trains a tiny spiking transformer on one of the
// synthetic benchmark stand-ins, optionally with BSA and/or ECP-aware
// training, and reports accuracy plus firing statistics.
//
// Usage:
//
//	trainsnn -dataset cifar10 -epochs 8
//	trainsnn -dataset dvs -bsa 0.0004 -ecp 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bundle"
	"repro/internal/dataset"
	"repro/internal/snn"
	"repro/internal/train"
	"repro/internal/transformer"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h: the flag set has printed the usage
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses args, trains the model they describe and reports on stdout.
// The trainer prints its per-epoch lines to the process's standard output.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("trainsnn", flag.ContinueOnError)
	name := fs.String("dataset", "cifar10", "cifar10|cifar100|imagenet100|dvs|speech")
	epochs := fs.Int("epochs", 8, "training epochs")
	trainN := fs.Int("train", 200, "training samples")
	testN := fs.Int("test", 100, "test samples")
	lr := fs.Float64("lr", 0.002, "AdamW learning rate")
	lambda := fs.Float64("bsa", 0, "BSA lambda (0 disables)")
	theta := fs.Int("ecp", 0, "ECP threshold for ECP-aware training (0 disables)")
	seed := fs.Uint64("seed", 1, "seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var ds *dataset.Dataset
	switch *name {
	case "cifar10":
		ds = dataset.CIFAR10Like(*trainN, *testN, *seed)
	case "cifar100":
		ds = dataset.CIFAR100Like(*trainN, *testN, *seed)
	case "imagenet100":
		ds = dataset.ImageNet100Like(*trainN, *testN, *seed)
	case "dvs":
		ds = dataset.DVSGestureLike(*trainN, *testN, 4, *seed)
	case "speech":
		ds = dataset.SpeechCommandsLike(*trainN, *testN, *seed)
	default:
		return fmt.Errorf("unknown dataset %q", *name)
	}

	T := ds.T
	if T == 0 {
		T = 4
	}
	cfg := transformer.Config{Name: "tiny-" + ds.Name, Blocks: 2, T: T,
		N: ds.N, D: 32, Heads: 4, MLPRatio: 2, PatchDim: ds.PatchD,
		Classes: ds.Classes, LIF: snn.DefaultLIF()}
	m := transformer.NewModel(cfg, *seed)
	sh := bundle.Shape{BSt: 2, BSn: 2}
	if *lambda > 0 {
		m.BSA = &transformer.BSAConfig{Lambda: float32(*lambda), Shape: sh, Structured: true}
	}
	if *theta > 0 {
		ecp := bundle.ECPConfig{Shape: sh, ThetaQ: *theta, ThetaK: *theta}
		m.Prune = ecp.PruneFn(nil)
	}

	tr := &train.Trainer{Model: m, Opt: train.NewAdamW(float32(*lr), 1e-4),
		ClipL2: 5, Verbose: true}
	acc := tr.Run(ds, *epochs)
	fmt.Fprintf(stdout, "\n%s: test accuracy %.3f (%d classes, chance %.3f)\n",
		ds.Name, acc, ds.Classes, 1/float64(ds.Classes))
	fmt.Fprintf(stdout, "mean regularized spike density: %.4f\n", tr.MeanSpikeDensity(ds))
	fmt.Fprintf(stdout, "parameters: %d\n", m.NumParams())
	return nil
}
