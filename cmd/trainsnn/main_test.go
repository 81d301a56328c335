package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTrainsWithBSAAndECP runs one short epoch with both training
// regularizers switched on and checks the report.
func TestTrainsWithBSAAndECP(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dataset", "dvs", "-epochs", "1", "-train", "8", "-test", "4", "-bsa", "0.0004", "-ecp", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"test accuracy", "mean regularized spike density", "parameters: "} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report lacks %q:\n%s", want, out.String())
		}
	}
}

func TestUnknownDataset(t *testing.T) {
	if err := run([]string{"-dataset", "nope"}, new(bytes.Buffer)); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}
