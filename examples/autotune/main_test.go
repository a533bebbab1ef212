package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"auto-tuning SP at 16 ranks",
		"search:",
		// The measured ordering, not the paper's (EXPERIMENTS.md, "Known
		// divergences" #4).
		"winner: transpose",
		"#2 block 4x4 g",
		"verified against serial reference: true",
		"Table 8.1 ordering not reproduced",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
