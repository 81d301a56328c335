package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/transformer"
)

// TestProfilesEveryModel checks both sections list every Table 2 model.
func TestProfilesEveryModel(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, cfg := range transformer.ModelZoo() {
		if n := strings.Count(s, "  "+cfg.Name+" "); n != 2 {
			t.Errorf("model %s appears in %d of the 2 sections:\n%s", cfg.Name, n, s)
		}
	}
}
