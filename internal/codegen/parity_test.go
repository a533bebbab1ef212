package codegen

// The three-tier differential harness: every corpus program — the NAS
// benchmarks, their ablation/backend/grain variants, and the feature
// programs — is executed under the interpreter, the default engine
// (kernel units on the in-process evaluator) and the native codegen
// tier, and all observables must be Float64bits-identical: global array
// contents, the virtual clocks (total, per-rank busy/idle/flops), and
// per-rank traffic counters.  The checked-in gen corpus, linked into the
// test binary, provides the kernels.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	_ "dhpf/internal/codegen/gen"
	"dhpf/internal/ir"
	"dhpf/internal/mpsim"
	"dhpf/internal/passes"
	"dhpf/internal/spmd"
)

// runEngine executes prog and fails the test on error.
func runEngine(t *testing.T, prog *spmd.Program, procs int, engine spmd.Engine) *spmd.ExecResult {
	t.Helper()
	res, err := prog.ExecuteEngine(mpsim.SP2Config(procs), engine)
	if err != nil {
		t.Fatalf("%v engine: %v", engine, err)
	}
	return res
}

// requireSameDeadlock executes a program that cannot finish under all
// three tiers: each must report the deadlock, with the same ranks in the
// same waits.
func requireSameDeadlock(t *testing.T, prog *spmd.Program, procs int) {
	t.Helper()
	var want string
	for _, engine := range []spmd.Engine{spmd.EngineInterp, spmd.EngineCompiled, spmd.EngineCodegen} {
		_, err := prog.ExecuteEngine(mpsim.SP2Config(procs), engine)
		if !errors.Is(err, mpsim.ErrDeadlock) {
			t.Fatalf("%v engine: %v, want a deadlock", engine, err)
		}
		if want == "" {
			want = err.Error()
		}
		if err.Error() != want {
			t.Fatalf("%v engine: %v\ninterp: %s", engine, err, want)
		}
	}
}

// requireSameRuns fails unless the codegen run rc is the compiled run
// and the interpreted run bit for bit (spmd.SameRun).
func requireSameRuns(t *testing.T, prog *spmd.Program, rc, compiled, interp *spmd.ExecResult) {
	t.Helper()
	for k, ro := range []*spmd.ExecResult{compiled, interp} {
		if err := spmd.SameRun(prog, rc, ro); err != nil {
			t.Fatalf("codegen against %s: %v", []string{"compiled", "interp"}[k], err)
		}
	}
}

// isNAS reports whether a corpus entry is one of the NAS codes (or a
// backend/ablation/grid variant of one): the programs whose flops sit
// almost entirely in loop nests, LOCALIZE wrappers included.
func isNAS(name string) bool {
	for _, p := range []string{"sp16", "bt12", "lu16"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// TestCodegenParityCorpus runs every corpus entry under all three
// execution tiers and requires bit-identical observables, and — since
// the gen package pre-registers every corpus kernel — requires that
// the native tier actually served the run: no precheck bailed, and on
// the NAS codes at least 95 % of the flops ran inside native kernels,
// so the tier cannot quietly fall back to the evaluator's speed.  On the
// NAS codes neither compiled engine may leave a statement instance to the
// interpreter (Nests.Walked): that is the slow path.  On sp16, bt12 and
// lu16 both compiled engines must do the same kernel work on the shm
// and hybrid backends as on mp.
func TestCodegenParityCorpus(t *testing.T) {
	for _, e := range Corpus() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := spmd.CompileSource(e.Source, e.Params, e.Opt)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			units := prog.KernelUnits()
			if len(units) == 0 {
				t.Fatalf("corpus entry extracts no kernel units")
			}
			for _, u := range units {
				if spmd.KernelFor(u.Fingerprint()) == nil {
					t.Fatalf("unit %s (proc %s, stmt %d) missing from the generated corpus — rerun go generate ./internal/codegen",
						u.Fingerprint(), u.Proc, u.RootID)
				}
			}
			if e.Name == "sp16-noavail" {
				// Without availability analysis SP's sweeps receive before
				// anyone sends (ROADMAP 1b): the entry is kept for its
				// kernels, and for the cycle every tier must agree on.
				requireSameDeadlock(t, prog, e.Procs)
				return
			}
			before := spmd.KernelInvocations()
			rc := runEngine(t, prog, e.Procs, spmd.EngineCodegen)
			if spmd.KernelInvocations() == before {
				t.Fatalf("codegen run invoked no native kernels (all prechecks bailed)")
			}
			if rc.Kernels.Units != len(units) || rc.Kernels.TotalBails() != 0 {
				t.Fatalf("native coverage, want all %d units bound and no bails: %s", len(units), rc.Kernels)
			}
			if share := rc.Kernels.NativeFlopShare(); isNAS(e.Name) && share < 0.95 {
				t.Fatalf("native flop share %.3f < 0.95: %s", share, rc.Kernels)
			}
			re := runEngine(t, prog, e.Procs, spmd.EngineCompiled)
			ri := runEngine(t, prog, e.Procs, spmd.EngineInterp)
			if k := re.Kernels; k.EvalCalls == 0 || k.Calls != 0 || k.TotalBails() != 0 {
				t.Fatalf("default engine, want every unit evaluated and no bails: %s", k)
			}
			if isNAS(e.Name) && (rc.Nests.Walked != 0 || re.Nests.Walked != 0) {
				t.Fatalf("statement instances interpreted: codegen %s; compiled %s", rc.Nests, re.Nests)
			}
			requireSameRuns(t, prog, rc, re, ri)
			if e.Name == "sp16" || e.Name == "bt12" || e.Name == "lu16" {
				requireSameUnitsOnEveryBackend(t, e, rc, re)
			}
		})
	}
}

// requireSameUnitsOnEveryBackend compiles e for the shm and hybrid
// backends and requires each compiled engine to run there exactly the
// kernel units, calls, bails and interpreted instances it ran on mp (rc
// under codegen, re under the default engine): the backends may differ
// only in how data moves, which is what makes their host times
// comparable.
func requireSameUnitsOnEveryBackend(t *testing.T, e CorpusEntry, rc, re *spmd.ExecResult) {
	t.Helper()
	for _, backend := range []string{passes.BackendShm, passes.BackendHybrid} {
		opt := e.Opt
		opt.Backend = backend
		prog, err := spmd.CompileSource(e.Source, e.Params, opt)
		if err != nil {
			t.Fatalf("compile %s: %v", backend, err)
		}
		for _, want := range []struct {
			engine spmd.Engine
			onMP   *spmd.ExecResult
		}{{spmd.EngineCodegen, rc}, {spmd.EngineCompiled, re}} {
			got := runEngine(t, prog, e.Procs, want.engine)
			if got.Kernels != want.onMP.Kernels || got.Nests != want.onMP.Nests {
				t.Fatalf("%s, %v engine: %s; %s\nmp: %s; %s",
					backend, want.engine, got.Kernels, got.Nests, want.onMP.Kernels, want.onMP.Nests)
			}
		}
	}
}

// TestGuardOverflowBails forces a guard over its box capacity: in
// features-localize the three ranks of the grid's middle row — the
// interior rank's cross included — compute rho over three boxes, the
// other six over two, so shrinking that statement's capacity to two
// must decline exactly those three invocations to the walker, counted as
// guard-overflow on both compiled engines, with every observable still
// bit-identical to the interpreter's.
func TestGuardOverflowBails(t *testing.T) {
	e := corpusEntry(t, "features-localize")
	prog, err := spmd.CompileSource(e.Source, e.Params, e.Opt)
	if err != nil {
		t.Fatal(err)
	}
	shrunk := 0
	var walk func(body []spmd.KStmt)
	walk = func(body []spmd.KStmt) {
		for _, s := range body {
			switch st := s.(type) {
			case *spmd.KLoop:
				walk(st.Body)
			case *spmd.KAssign:
				if st.MaxBoxes > 1 {
					st.MaxBoxes = 2
					shrunk++
				}
			}
		}
	}
	for _, u := range prog.KernelUnits() {
		u.Fingerprint() // memoized before the spec changes: the registered kernel still binds
		walk([]spmd.KStmt{u.Root})
	}
	if shrunk != 1 {
		t.Fatalf("want exactly one multi-box statement (rho), found %d", shrunk)
	}
	rc := runEngine(t, prog, e.Procs, spmd.EngineCodegen)
	ks := rc.Kernels
	if ks.Bails[spmd.BailGuardOverflow] != 3 || ks.TotalBails() != 3 {
		t.Fatalf("want three guard-overflow bails (ranks 1, 4 and 7), got %s", ks)
	}
	// What the walker interprets is exactly the bailed invocations: on each
	// rank whose rho guard has more than two boxes, every statement instance
	// of the localized nest, counted off the iteration sets.
	var walked int64
	main := prog.IR.Main()
	for rank := 0; rank < e.Procs; rank++ {
		var nest, boxes int64
		for _, a := range ir.Assignments(main.Body) {
			if len(a.Nest) > 0 && a.Nest[0].Var == "onetrip" {
				iters := prog.Ctx.IterSet(main, a.Assign.ID, prog.Sel.CPOf(a.Assign.ID), a.Nest, rank)
				nest += iters.Card()
				boxes = max(boxes, int64(len(iters.SharedBoxes())))
			}
		}
		if boxes > 2 {
			walked += nest
		}
	}
	if ks.Calls == 0 || ks.NativeFlopShare() >= 1 || walked == 0 || rc.Nests.Walked != walked {
		t.Fatalf("want the other ranks native and the bailed nest's %d instances interpreted, got %s; %s", walked, ks, rc.Nests)
	}
	if !strings.Contains(ks.String(), "3 bails (guard-overflow 3)") {
		t.Fatalf("summary line does not name the bail: %s", ks)
	}
	re := runEngine(t, prog, e.Procs, spmd.EngineCompiled)
	if ks := re.Kernels; ks.Bails[spmd.BailGuardOverflow] != 3 || ks.TotalBails() != 3 || ks.EvalCalls == 0 || re.Nests != rc.Nests {
		t.Fatalf("default engine: want the same three bails onto the same interpreted instances, got %s; %s", ks, re.Nests)
	}
	ri := runEngine(t, prog, e.Procs, spmd.EngineInterp)
	requireSameRuns(t, prog, rc, re, ri)
}

// bailAlways breaks the array geometry of every kernel unit of prog, so
// each precheck bails and the walker interprets the invocation: the
// wholesale form of the decline path, from outside spmd.  The first
// stride goes negative, which no live array's is.
func bailAlways(prog *spmd.Program) {
	for _, u := range prog.KernelUnits() {
		for i := range u.Arrays {
			u.Arrays[i].Stride[0] = -1 - u.Arrays[i].Stride[0]
		}
	}
}

// TestCodegenEmptyRegistryEqualsCompiled: a program whose kernels are
// not registered (novel source, not in the generated corpus) runs
// under EngineCodegen exactly as EngineCompiled — every unit on the
// evaluator, none native — bit-identical to it and to the interpreter.
func TestCodegenEmptyRegistryEqualsCompiled(t *testing.T) {
	const src = `
program novel
param N = 20
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  do i = 0, N-1
    a(i) = 3.25 * i + 0.125
  enddo
end
`
	prog, err := spmd.CompileSource(src, nil, spmd.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range prog.KernelUnits() {
		if spmd.KernelFor(u.Fingerprint()) != nil {
			t.Skipf("unit %s unexpectedly registered; cannot test the empty-registry path", u.Fingerprint())
		}
	}
	before := spmd.KernelInvocations()
	rc := runEngine(t, prog, 4, spmd.EngineCodegen)
	if spmd.KernelInvocations() != before {
		t.Fatalf("unregistered program still invoked kernels")
	}
	re := runEngine(t, prog, 4, spmd.EngineCompiled)
	if rc.Kernels != re.Kernels || rc.Kernels.EvalCalls != 4 || rc.Kernels.Units != 0 || rc.Nests != re.Nests || rc.Nests.Walked != 0 {
		t.Fatalf("want the one unit evaluated once per rank on both engines: codegen %s; %s, compiled %s; %s",
			rc.Kernels, rc.Nests, re.Kernels, re.Nests)
	}
	requireSameRuns(t, prog, rc, re, runEngine(t, prog, 4, spmd.EngineInterp))
}

// TestEnableNativePreRegistered: the generated package is the whole
// native tier — every unit of every corpus program has a registered
// kernel the moment the binary starts, and the registry holds exactly
// the corpus's distinct units, nothing else.
func TestEnableNativePreRegistered(t *testing.T) {
	units := corpusUnits(t)
	for _, u := range units {
		if spmd.KernelFor(u.Fingerprint()) == nil {
			t.Fatalf("unit %s (proc %s, stmt %d) has no registered kernel — rerun go generate ./internal/codegen",
				u.Fingerprint(), u.Proc, u.RootID)
		}
	}
	if got, want := spmd.RegisteredKernels(), len(dedupeSorted(units)); got != want {
		t.Fatalf("registry holds %d kernels, the corpus %d distinct units", got, want)
	}
}

// TestEnableNativeNoPluginFallback: a program outside the corpus runs
// under EngineCodegen with no error and nothing native — every unit on
// the in-process evaluator — bit-identical to the interpreter.
func TestEnableNativeNoPluginFallback(t *testing.T) {
	const src = `
program nofb
param N = 64
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  do i = 0, N-1
    a(i) = 1.5 * i + 2.5
  enddo
end
`
	prog, err := spmd.CompileSource(src, nil, spmd.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rc, err := prog.ExecuteEngine(mpsim.SP2Config(4), spmd.EngineCodegen)
	if err != nil {
		t.Fatalf("an out-of-corpus program must not be an error: %v", err)
	}
	if k := rc.Kernels; k.Units != 0 || k.Calls != 0 || k.EvalCalls == 0 {
		t.Fatalf("want 0 units bound and every unit evaluated: %s", k)
	}
	if err := spmd.SameRun(prog, rc, runEngine(t, prog, 4, spmd.EngineInterp)); err != nil {
		t.Fatalf("codegen against interp: %v", err)
	}
}

// FuzzCodegenVsEngine fuzzes the execution configuration — corpus
// entry, machine cost parameters, pipeline grain — and requires every
// way a kernel unit runs to stay bit-identical: native kernel, in-process
// evaluator, declined to the walker (a second compile whose every
// precheck bails) and the interpreter.  Cost
// parameters change virtual-time interleavings and strip windows
// without changing which kernels are registered, so prechecks and
// window packing get exercised under many schedules.  The seeds include
// the union-of-boxes guards: features-localize's cross and SP/BT on 1×4
// and 4×1 grids, whose LOCALIZE halo boxes differ in shape per rank.
func FuzzCodegenVsEngine(f *testing.F) {
	f.Add(uint8(0), uint16(29), uint16(12), uint8(8))
	f.Add(uint8(2), uint16(1), uint16(1), uint8(3))
	f.Add(uint8(7), uint16(500), uint16(80), uint8(1))
	for i, e := range Corpus() {
		switch e.Name {
		case "features-localize", "sp16-1x4", "sp16-4x1", "bt12-1x4", "bt12-4x1":
			f.Add(uint8(i), uint16(29), uint16(12), uint8(8))
		}
	}
	f.Fuzz(func(t *testing.T, idx uint8, latency, flop uint16, grain uint8) {
		corpus := Corpus()
		e := corpus[int(idx)%len(corpus)]
		opt := e.Opt
		opt.PipelineGrain = 1 + int(grain)%16
		prog, err := spmd.CompileSource(e.Source, e.Params, opt)
		if err != nil {
			t.Skip()
		}
		cfg := mpsim.SP2Config(e.Procs)
		cfg.Latency = float64(latency) * 1e-6
		cfg.FlopTime = float64(flop) * 1e-9
		bailing, err := spmd.CompileSource(e.Source, e.Params, opt)
		if err != nil {
			t.Fatal(err)
		}
		bailAlways(bailing)
		rc, errC := prog.ExecuteEngine(cfg, spmd.EngineCodegen)
		for _, other := range []struct {
			name   string
			prog   *spmd.Program
			engine spmd.Engine
		}{
			{"evaluator", prog, spmd.EngineCompiled},
			{"every precheck bailed", bailing, spmd.EngineCompiled},
			{"interp", prog, spmd.EngineInterp},
		} {
			ro, errO := other.prog.ExecuteEngine(cfg, other.engine)
			if fmt.Sprint(errC) != fmt.Sprint(errO) { // nil, or sp16-noavail's deadlock
				t.Fatalf("engines disagree on the outcome: codegen %v, %s %v", errC, other.name, errO)
			}
			if errC != nil {
				continue
			}
			if other.prog == bailing && (ro.Kernels.TotalBails() == 0 || ro.Nests.Walked == 0) {
				t.Fatalf("forced bails did not reach the walker: %s; %s", ro.Kernels, ro.Nests)
			}
			if err := spmd.SameRun(prog, rc, ro); err != nil {
				t.Fatalf("codegen against %s: %v", other.name, err)
			}
		}
	})
}
