package sched_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dhpf/internal/nas"
	"dhpf/internal/spmd"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// corpus is the shipped testdata programs plus the NAS codes at their
// parity-corpus sizes.
func corpus(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{
		"sp16": nas.SPSource(16, 1, 2, 2),
		"bt12": nas.BTSource(12, 1, 2, 2),
		"lu16": nas.LUSource(16, 1, 2, 2),
	}
	files, err := filepath.Glob("../../testdata/*.hpf")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[strings.TrimSuffix(filepath.Base(f), ".hpf")] = string(b)
	}
	return out
}

func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden file (%d bytes, want %d)", name, len(got), len(want))
	}
}

// TestZeroPointText pins Report() and EmitNodeProgram(r) — the callers
// of the planner at the zero point (parameter binding, depth 0, no
// strip) — byte for byte against text captured before the planner was
// unified (the goldens were written by comm.ReadTransfers /
// comm.WriteBackTransfers at PR 13).
func TestZeroPointText(t *testing.T) {
	for name, src := range corpus(t) {
		prog, err := spmd.CompileSource(src, nil, spmd.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		golden(t, name+".report", prog.Report())
		var sb strings.Builder
		for r := 0; r < prog.Grid.Size(); r++ {
			fmt.Fprintf(&sb, "=== rank %d ===\n%s", r, prog.EmitNodeProgram(r))
		}
		golden(t, name+".emit", sb.String())
	}
}
