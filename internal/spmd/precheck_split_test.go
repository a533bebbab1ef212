package spmd_test

import (
	"fmt"
	"testing"

	"dhpf/internal/spmd"
)

// TestPrecheckSplitIsInvisible: a unit's precheck finds the array
// geometry, its loops' clamps and the hulls of fixed bounds once per
// activation and packs the rest per invocation.  Over the clock corpus
// and the hoist rows, at grains 1, 2 and 8 on every backend, each
// precheck packs what it packs from that state found afresh
// (CheckPrechecks fails the run otherwise) — with the units running and
// with every one bailing — and the checked run is the plain one: arrays,
// clocks, flops, traffic, kernel calls and bails by reason.
func TestPrecheckSplitIsInvisible(t *testing.T) {
	names, srcs := clockCorpus(t)
	for _, row := range spmd.HoistRows {
		names, srcs[row.Name] = append(names, row.Name), row.Src
	}
	var checked int64
	for _, name := range names {
		for _, backend := range []string{"mp", "shm", "hybrid"} {
			for _, grain := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%s/g%d", name, backend, grain), func(t *testing.T) {
					prog := compileOn(t, srcs[name], grain, backend)
					for _, bailing := range []bool{false, true} {
						if bailing {
							defer spmd.BailAlways(prog)()
						}
						plain := execute(t, prog, spmd.EngineCompiled)
						n, restore := spmd.CheckPrechecks(prog)
						split := execute(t, prog, spmd.EngineCompiled)
						restore()
						checked += n()
						if err := spmd.SameRun(prog, split, plain); err != nil {
							t.Fatalf("bailing %v: checked against plain: %v", bailing, err)
						}
						if k, o := split.Kernels, plain.Kernels; k.Calls != o.Calls || k.EvalCalls != o.EvalCalls || k.Bails != o.Bails {
							t.Errorf("bailing %v: kernels: %s; plain %s", bailing, k, o)
						}
					}
				})
			}
		}
	}
	if checked == 0 {
		t.Error("no precheck was repeated")
	}
}
