package dep_test

import (
	"os"
	"strings"
	"testing"

	"dhpf/internal/dep"
	"dhpf/internal/nas"
	"dhpf/internal/parser"
	"dhpf/internal/spmd"
)

// TestColdCompileAnalyzeCount pins how often one cold compile derives
// dependences: once per procedure for the dependence pass, once per
// procedure for the verifier (which re-derives them on purpose) and once
// for every procedure loop distribution rewrote.  Communication planning
// reads ctx.Deps; before it did, the count was three per procedure.
func TestColdCompileAnalyzeCount(t *testing.T) {
	// conflict2 is cp's true §5 conflict: loop distribution rewrites
	// main.  No shipped program is distributed under defaults.
	split, err := os.ReadFile("../cp/testdata/conflict2.hpf")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		src          string
		procs, split int
		analyzeCalls int64
	}{
		{"spmod12", nas.SPModSource(12, 1, 2, 2), 8, 0, 16},
		{"conflict2", string(split), 1, 1, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			count, stop := dep.CountAnalyze()
			defer stop()
			prog, err := spmd.CompileSource(tc.src, nil, spmd.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			got := count()
			split := map[string]bool{}
			for _, n := range prog.Sel.Notes() {
				if name, rest, ok := strings.Cut(strings.TrimPrefix(n, "proc "), ": "); ok && strings.HasPrefix(rest, "distributed loop ") {
					split[name] = true
				}
			}
			if len(prog.IR.Procs) != tc.procs || len(split) != tc.split {
				t.Fatalf("%d procedures, %d rewritten by loopdist; the pin assumes %d and %d", len(prog.IR.Procs), len(split), tc.procs, tc.split)
			}
			if got != tc.analyzeCalls {
				t.Errorf("%d dep.Analyze calls, want %d (2 × %d procedures + %d rewritten by loopdist)",
					got, tc.analyzeCalls, tc.procs, tc.split)
			}
		})
	}
}

// TestAnalyzeAllocBudget pins the objects one Analyze of each of
// SP(12,1,2,2)'s procedures allocates, summed: measured plus a tenth.  A
// carried distance vector is cut from the tester's slab and a constant
// subscript difference is read without building it; a per-pair
// allocation there shows here first.
func TestAnalyzeAllocBudget(t *testing.T) {
	const budget = 225 // measured 205 (2 443 before the slab and ConstDiff)
	prog := parser.MustParse(nas.SPSource(12, 1, 2, 2))
	got := testing.AllocsPerRun(5, func() {
		for _, proc := range prog.Procs {
			dep.Analyze(proc.Body)
		}
	})
	if got > budget {
		t.Errorf("dep.Analyze over SP12's %d procedures allocates %.0f objects, budget %d", len(prog.Procs), got, budget)
	}
}
