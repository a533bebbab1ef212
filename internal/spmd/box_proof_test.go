package spmd_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"dhpf/internal/spmd"
)

var updateKernels = flag.Bool("update-kernels", false, "rewrite testdata/kernels.golden (only when which invocations a unit runs is meant to change)")

const kernelsGoldenPath = "testdata/kernels.golden"

// TestBoxProofIsInvisible: the precheck proves a statement's accesses
// over each whole guard box once per activation, and an invocation whose
// box is not proven bails to the walker.  Over the clock corpus and the
// hoist rows, at grains 1, 2, 3 and 8 on every backend and both compiled
// engines, each run is the interpreter's — arrays, clocks, flops and
// traffic — the hoist rows keep their pinned bails, and every run's
// kernel line and interpreted instances are testdata/kernels.golden's,
// written when a box that failed its proof could still be proven over
// each invocation's window.
func TestBoxProofIsInvisible(t *testing.T) {
	names, srcs := clockCorpus(t)
	bails := map[string]int64{}
	for _, row := range spmd.HoistRows {
		names, srcs[row.Name], bails[row.Name] = append(names, row.Name), row.Src, int64(row.Bails)
	}
	want, err := os.ReadFile(kernelsGoldenPath)
	if err != nil && !*updateKernels {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, name := range names {
		for _, backend := range []string{"mp", "shm", "hybrid"} {
			for _, grain := range []int{1, 2, 3, 8} {
				t.Run(fmt.Sprintf("%s/%s/g%d", name, backend, grain), func(t *testing.T) {
					prog := compileOn(t, srcs[name], grain, backend)
					ref := execute(t, prog, spmd.EngineInterp)
					for _, engine := range []spmd.Engine{spmd.EngineCompiled, spmd.EngineCodegen} {
						res := execute(t, prog, engine)
						if err := spmd.SameRun(prog, res, ref); err != nil {
							t.Fatalf("%s against the interpreter: %v", engine, err)
						}
						if n := res.Kernels.TotalBails(); n != bails[name] {
							t.Errorf("%s: %d bails, want %d", engine, n, bails[name])
						}
						fmt.Fprintf(&got, "%s %s g%d %s %s; walked %d\n", name, backend, grain, engine, res.Kernels, res.Nests.Walked)
					}
				})
			}
		}
	}
	if t.Failed() {
		return
	}
	if *updateKernels {
		if err := os.WriteFile(kernelsGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("kernel stats drifted from the golden at line %d:\n got  %s\n want %s", i+1, gl[i], wl[min(i, len(wl)-1)])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("kernel stats drifted from the golden: %d lines, want %d", len(gl), len(wl))
	}
}
