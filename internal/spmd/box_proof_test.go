package spmd_test

import (
	"fmt"
	"testing"

	"dhpf/internal/spmd"
)

// TestBoxProofIsInvisible: the precheck proves a statement's accesses
// over a whole guard box once per activation, and only where that fails
// over the box narrowed to each invocation.  Over the clock corpus and
// the hoist rows, at grains 1, 2 and 8 on every backend: every
// invocation that relied on a box proof passes the per-invocation proof
// too (CheckBoxProofs fails the run otherwise), and with box proofs off
// the run is bit-identical — arrays, clocks, flops, traffic, kernel
// calls and bails by reason, the hoist rows' pinned bails included.
func TestBoxProofIsInvisible(t *testing.T) {
	names, srcs := clockCorpus(t)
	bails := map[string]int64{}
	for _, row := range spmd.HoistRows {
		names, srcs[row.Name], bails[row.Name] = append(names, row.Name), row.Src, int64(row.Bails)
	}
	var checked int64
	for _, name := range names {
		for _, backend := range []string{"mp", "shm", "hybrid"} {
			for _, grain := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%s/g%d", name, backend, grain), func(t *testing.T) {
					prog := compileOn(t, srcs[name], grain, backend)
					on := execute(t, prog, spmd.EngineCompiled)
					n, restore := spmd.CheckBoxProofs(prog)
					execute(t, prog, spmd.EngineCompiled)
					restore()
					checked += n()
					restore = spmd.NoBoxProofs(prog)
					off := execute(t, prog, spmd.EngineCompiled)
					restore()
					if err := spmd.SameRun(prog, off, on); err != nil {
						t.Fatalf("against no box proofs: %v", err)
					}
					if k, o := on.Kernels, off.Kernels; k.Calls != o.Calls || k.EvalCalls != o.EvalCalls || k.Bails != o.Bails {
						t.Errorf("kernels: %s; without box proofs %s", k, o)
					}
					if got := on.Kernels.TotalBails(); got != bails[name] {
						t.Errorf("%d bails, want %d", got, bails[name])
					}
				})
			}
		}
	}
	if checked == 0 {
		t.Error("no invocation relied on a box proof")
	}
}
