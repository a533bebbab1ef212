package spmd_test

// The default engine runs kernel units on the in-process evaluator, so no
// ordinary run exercises the checked closures any more — they are what a
// precheck bail and a nest outside every unit fall to.  These tests keep
// all three ways of running a nest (interpreter, evaluator, checked
// closures) bit-identical on the NAS corpus and the shipped programs.

import (
	"fmt"
	"testing"

	"dhpf/internal/mpsim"
	"dhpf/internal/spmd"
)

// threeWaysAgree executes src at the grain on the backend three ways —
// the interpreter, the default engine (every kernel unit on the
// evaluator, nothing bailing) and the default engine with no unit bound
// (everything on checked closures) — and requires identical clocks, flops
// and traffic, and identical arrays unless the configuration is known to
// race on its values.
func threeWaysAgree(t *testing.T, src, backend string, grain int, values bool) {
	opt := spmd.DefaultOptions()
	opt.Backend = backend
	opt.PipelineGrain = grain
	prog, err := spmd.CompileSource(src, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	interp := execute(t, prog, spmd.EngineInterp)
	eval := execute(t, prog, spmd.EngineCompiled)
	checked, err := prog.ExecuteUnbound(mpsim.SP2Config(prog.Grid.Size()), spmd.EngineCompiled)
	if err != nil {
		t.Fatal(err)
	}
	if k := eval.Kernels; k.EvalCalls == 0 || k.TotalBails() != 0 {
		t.Errorf("default engine: %s, want units evaluated and no bails", k)
	}
	if k, n := checked.Kernels, checked.Nests; k.EvalCalls != 0 || n.InNest == 0 {
		t.Errorf("unbound run: %s; %s, want everything on checked closures", k, n)
	}
	spmd.RequireSameRun(t, prog, "evaluator", interp, eval, values)
	spmd.RequireSameRun(t, prog, "checked closures", interp, checked, values)
}

// racyValues: BT below grain 5 on a shared-memory backend races on r
// (ROADMAP, "BT below grain 5"), so its values differ run to run on every
// engine; clocks, flops and traffic do not depend on them.
func racyValues(name, backend string, grain int) bool {
	return name == "bt12" && grain < 5 && backend != "mp"
}

// TestThreeWaysAgree runs the clock corpus (SP, BT, LU, the shipped
// programs) at pipeline grains 1 and 8 on mp and shm three ways.
func TestThreeWaysAgree(t *testing.T) {
	names, srcs := clockCorpus(t)
	for _, name := range names {
		for _, backend := range []string{"mp", "shm"} {
			for _, grain := range []int{1, 8} {
				racy := racyValues(name, backend, grain)
				if racy && raceDetector {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/g%d", name, backend, grain), func(t *testing.T) {
					threeWaysAgree(t, srcs[name], backend, grain, !racy)
				})
			}
		}
	}
}

// FuzzThreeWays fuzzes the configuration TestThreeWaysAgree enumerates:
// program, grain 1–16 and backend change strip windows, guard boxes and
// event interleavings under the same three-way identity.
func FuzzThreeWays(f *testing.F) {
	f.Add(uint8(3), uint8(0), false)
	f.Add(uint8(4), uint8(2), true)
	f.Add(uint8(5), uint8(0), true)
	f.Fuzz(func(t *testing.T, idx, grain uint8, shm bool) {
		names, srcs := clockCorpus(t)
		name, backend, g := names[int(idx)%len(names)], "mp", 1+int(grain)%16
		if shm {
			backend = "shm"
		}
		racy := racyValues(name, backend, g)
		if racy && raceDetector {
			t.Skip()
		}
		threeWaysAgree(t, srcs[name], backend, g, !racy)
	})
}

// TestRuntimeErrorsSameOnEveryEngine: a subscript out of bounds and an
// array nobody declared fail with the interpreter's error text on every
// engine.  On the compiled engines the precheck cannot prove the first
// and bails, the second is in no kernel unit at all; either way the
// checked closures raise the interpreter's panic.  Only rank 3 runs the
// faulty statement, so the rank in the message is fixed.
func TestRuntimeErrorsSameOnEveryEngine(t *testing.T) {
	const head = `
program bad
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  do i = 0, N-1
    a(i) = 1.0 * i
  enddo
  do i = 12, N-1
`
	for _, c := range []struct{ name, stmt, want string }{
		{"out of bounds", "a(i) = a(i) + a(i+4)", "spmd: rank 3: spmd: a[16] out of bounds [[0]:[15]]"},
		{"undeclared read", "a(i) = a(i) + c(i)", `spmd: rank 3: spmd: read of undeclared array "c"`},
	} {
		prog, err := spmd.CompileSource(head+"    "+c.stmt+"\n  enddo\nend\n", nil, spmd.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, engine := range []spmd.Engine{spmd.EngineInterp, spmd.EngineCompiled, spmd.EngineCodegen} {
			_, err := prog.ExecuteEngine(mpsim.SP2Config(4), engine)
			if err == nil || err.Error() != c.want {
				t.Errorf("%s on %s: error %v, want %q", c.name, engine, err, c.want)
			}
		}
	}
}
