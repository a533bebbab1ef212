package nas

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"dhpf/internal/parser"
	"dhpf/internal/spmd"
)

// handAgrees runs the mini-HPF source serially — the single source of
// truth for all implementations — and returns a check that each array a
// hand-written run computed agrees with it within 1e-12 relative.
func handAgrees(t *testing.T, src string) func(label string, got map[string][]float64) {
	ref, err := spmd.RunSerial(parser.MustParse(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	return func(label string, got map[string][]float64) {
		t.Helper()
		for _, name := range slices.Sorted(maps.Keys(got)) {
			want, _, _, err := ref.Array(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := spmd.Agree(name, got[name], want, 1e-12); err != nil {
				t.Errorf("%s: %v", label, err)
			}
		}
	}
}

func TestMultipartSPMatchesSerial(t *testing.T) {
	n, steps := 12, 2
	agrees := handAgrees(t, SPSource(n, steps, 1, 1))
	for _, procs := range []int{1, 4, 9} {
		run, err := RunMultipart("sp", n, steps, procs, smallMachine(procs))
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		agrees(fmt.Sprintf("procs=%d", procs), map[string][]float64{"u": run.U, "rhs": run.R})
		if procs > 1 && run.Machine.TotalMessages() == 0 {
			t.Errorf("procs=%d: no messages", procs)
		}
	}
}

func TestMultipartBTMatchesSerial(t *testing.T) {
	n, steps := 12, 2
	agrees := handAgrees(t, BTSource(n, steps, 1, 1))
	for _, procs := range []int{1, 4} {
		run, err := RunMultipart("bt", n, steps, procs, smallMachine(procs))
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		agrees(fmt.Sprintf("procs=%d", procs), map[string][]float64{"u": run.U, "r": run.R})
	}
}

func TestMultipartLoadBalance(t *testing.T) {
	run, err := RunMultipart("sp", 16, 1, 16, smallMachine(16))
	if err != nil {
		t.Fatal(err)
	}
	var minF, maxF float64 = math.Inf(1), 0
	for _, f := range run.Machine.RankFlops {
		minF = math.Min(minF, f)
		maxF = math.Max(maxF, f)
	}
	// Multipartitioning's selling point: near-even work.
	if maxF > 1.5*minF {
		t.Errorf("imbalanced: flops range [%g, %g]", minF, maxF)
	}
}

func TestMultipartCopyFacesMessageCount(t *testing.T) {
	// Per step each rank sends ≤6 copy_faces messages plus the sweep
	// handoffs (3 dims × 2 directions × (q-1) stage boundaries).
	n, steps, procs := 12, 1, 4
	run, err := RunMultipart("sp", n, steps, procs, smallMachine(procs))
	if err != nil {
		t.Fatal(err)
	}
	q := 2
	systems := len(SweepSystems("sp"))
	perRank := 6 + 3*2*systems*(q-1)
	want := int64(procs * perRank)
	if got := run.Machine.TotalMessages(); got > want {
		t.Errorf("messages = %d, want ≤ %d", got, want)
	}
}

func TestMultipartRejectsNonSquare(t *testing.T) {
	if _, err := RunMultipart("sp", 12, 1, 6, smallMachine(6)); err == nil {
		t.Fatal("expected error for non-square rank count")
	}
	if _, err := RunMultipart("nope", 12, 1, 4, smallMachine(4)); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestFlopWeightsExtraction(t *testing.T) {
	w := weightsFrom(SPSource(8, 1, 1, 1), false)
	if w.Rho != 4 { // one division
		t.Errorf("rho weight = %g, want 4", w.Rho)
	}
	if w.Stencil < 10 || w.Fwd <= 0 || w.Bwd <= 0 || w.Add <= 0 || w.Init <= 0 {
		t.Errorf("suspicious weights: %+v", w)
	}
	wb := weightsFrom(BTSource(8, 1, 1, 1), true)
	if wb.Rho != 4 || wb.Fwd <= 0 || wb.Bwd <= 0 {
		t.Errorf("suspicious BT weights: %+v", wb)
	}
}
