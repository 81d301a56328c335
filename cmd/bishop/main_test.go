package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestListAndRunOne(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), strings.Join(experiments.FigList(), "\n")+"\n"; got != want {
		t.Fatalf("-list printed %q, want %q", got, want)
	}

	out.Reset()
	if err := run([]string{"-exp", "fig17"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(fig17 in ") {
		t.Fatalf("-exp fig17 printed no timed table:\n%s", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {"-exp", "nope"}} {
		if err := run(args, new(bytes.Buffer)); err == nil {
			t.Errorf("bishop %s: no error", strings.Join(args, " "))
		}
	}
}
