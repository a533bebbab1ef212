package spmd_test

import (
	"fmt"
	"testing"

	"dhpf/internal/mpsim"
	"dhpf/internal/spmd"
)

// TestFormsArePlans: every firing a rank walks is planned from its
// closed form, and with CheckForms on also by Planner.Plan at the same
// point, the rank panicking on the first transfer whose array, ranks,
// elements or boxes differ.  Over the clock corpus and the hoist rows at
// grains 1, 2 and 8 on every backend the executions pass, and compare
// firings — among them firings induced from their level's last
// evaluation, and firings evaluated in full where a window crossed an
// edge of a pair's allowed range, on each of mp, shm and hybrid at each
// grain.
func TestFormsArePlans(t *testing.T) {
	names, srcs := clockCorpus(t)
	for _, row := range spmd.HoistRows {
		names, srcs[row.Name] = append(names, row.Name), row.Src
	}
	var checked int64
	induced, crossed := map[string]int64{}, map[string]int64{}
	for _, name := range names {
		for _, backend := range []string{"mp", "shm", "hybrid"} {
			for _, grain := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%s/g%d", name, backend, grain), func(t *testing.T) {
					prog := compileOn(t, srcs[name], grain, backend)
					checked += checkForms(t, prog, spmd.EngineCompiled)
					in, cr := prog.Schedule().Inductions()
					site := fmt.Sprintf("%s/g%d", backend, grain)
					induced[site], crossed[site] = induced[site]+in, crossed[site]+cr
				})
			}
		}
	}
	if checked == 0 {
		t.Error("no firing was compared")
	}
	for _, backend := range []string{"mp", "shm", "hybrid"} {
		for _, grain := range []int{1, 2, 8} {
			if site := fmt.Sprintf("%s/g%d", backend, grain); induced[site] == 0 || crossed[site] == 0 {
				t.Errorf("%s: %d firings induced, %d crossed an edge; want some of each", site, induced[site], crossed[site])
			}
		}
	}
	t.Logf("%d firings compared; induced, crossed by backend and grain: %v, %v", checked, induced, crossed)
}

// checkForms executes prog on the engine with every plan compared with
// Planner.Plan's and returns how many were.
func checkForms(t testing.TB, prog *spmd.Program, engine spmd.Engine) int64 {
	t.Helper()
	n, restore := prog.Schedule().CheckForms()
	defer restore()
	if _, err := prog.ExecuteEngine(mpsim.SP2Config(prog.Grid.Size()), engine); err != nil {
		t.Fatal(err)
	}
	return n()
}
