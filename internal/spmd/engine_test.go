package spmd

// Differential tests of the compiled execution engine against the
// tree-walking interpreter, run three ways — interpreter, kernel units on
// the in-process evaluator, every unit's precheck bailing so the walker
// interprets it: all must be byte-identical on every observable — global
// array contents (bit-for-bit), the machine's virtual clocks (total,
// per-rank busy/idle/flops), and per-rank message and byte counters.  The
// corpus covers every shipped testdata program
// plus inline programs exercising reductions, interprocedural calls,
// data-dependent conditionals (the clamp-disabling case), wavefront
// pipelining, and replicated broadcast reads.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dhpf/internal/mpsim"
)

// engineCorpus lists inline differential sources by name.
var engineCorpus = map[string]string{
	"stencil2d": `
program det
param N = 32
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align a with tm(d0, d1)
!hpf$ align b with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs
subroutine main()
  real a(0:N-1, 0:N-1)
  real b(0:N-1, 0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      a(i,j) = 1.0 * i + j
    enddo
  enddo
  do j = 1, N-2
    do i = 1, N-2
      b(i,j) = a(i,j-1) + a(i,j+1)
    enddo
  enddo
end
`,
	"reduction": reductionSrc,
	"interprocedural": `
program interp
param N = 16
!hpf$ processors procs(2, 2)
!hpf$ template tm(N, N, N)
!hpf$ align w with tm(d0, d1, d2)
!hpf$ distribute tm(*, BLOCK, BLOCK) onto procs

subroutine scale_line(v, jj, kk)
  real v(0:N-1, 0:N-1, 0:N-1)
  do i = 0, N-1
    v(i, jj, kk) = v(i, jj, kk) * 2.0 + 1.0
  enddo
end

subroutine main()
  real w(0:N-1, 0:N-1, 0:N-1)
  do k = 0, N-1
    do j = 0, N-1
      do i = 0, N-1
        w(i,j,k) = 0.01 * i + 0.1 * j + k
      enddo
    enddo
  enddo
  do k = 0, N-1
    do j = 0, N-1
      call scale_line(w, j, k)
    enddo
  enddo
end
`,
	"nested-if": `
program nif
param N = 24
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  do i = 0, N-1
    if (i < N-4) then
      if (i > 3) then
        a(i) = sin(0.3 * i)
      else
        a(i) = 1.0
      endif
    else
      a(i) = 2.0
    endif
  enddo
end
`,
	"uniform-if": `
program uif
param N = 24
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  do i = 0, N-1
    if (i /= 7) then
      a(i) = 0.5 * i
    else
      a(i) = -1.0
    endif
  enddo
end
`,
	"wavefront": `
program wf
param N = 32
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align b with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs
subroutine main()
  real b(0:N-1, 0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      b(i,j) = 0.1 * i + j
    enddo
  enddo
  do j = 1, N-1
    do i = 1, N-1
      b(i,j) = b(i,j) + 0.5 * b(i-1,j-1)
    enddo
  enddo
end
`,
	"broadcast": `
program bc
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
!hpf$ distribute b(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  real b(0:N-1)
  do i = 0, N-1
    a(i) = 0.5 * i
  enddo
  do i = 0, N-1
    b(i) = a(9)
  enddo
end
`,
	// The shapes below sit on the boundary between the walker and the
	// compute nests the compiled engines claim from it.
	"call-and-assign-loop": callAndAssignSrc,
	"scalar-into-nest": `
program sin
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  real s
  s = 2.5
  do i = 0, N-1
    a(i) = s * i + s
  enddo
end
`,
	"value-formal": `
program vf
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine fill(v, x)
  real v(0:N-1)
  do i = 0, N-1
    v(i) = x + 0.5 * i
  enddo
end
subroutine main()
  real a(0:N-1)
  call fill(a, 1.25)
end
`,
	"reduction-read-after": `
program rra
param N = 32
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  real total
  real twice
  total = 1.0
  do i = 0, N-1
    a(i) = 0.125 * i
  enddo
  do i = 0, N-1
    total = total + a(i)
  enddo
  twice = 2.0 * total
  do i = 0, N-1
    a(i) = a(i) + twice - total
  enddo
end
`,
	// A NEW temporary read three columns to either side: its definition
	// runs ON_HOME lhs(i,j+3) ∪ lhs(i,j-3), two boxes with a gap between
	// them along the innermost loop — the evaluator's hoisted guard range
	// then covers columns no box holds.
	"gap-guard": `
program gap
param N = 16
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ template tline(N)
!hpf$ align lhs with tm(d0, d1)
!hpf$ align cv with tline(d0)
!hpf$ distribute tm(*, BLOCK) onto procs
!hpf$ distribute tline(BLOCK) onto procs
subroutine main()
  real lhs(0:N-1, 0:N-1)
  real cv(0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      lhs(i,j) = 0.0
    enddo
  enddo
  !hpf$ independent, new(cv)
  do i = 1, N-2
    do j = 0, N-1
      cv(j) = 0.1*j + 0.01*i
    enddo
    do j = 3, N-4
      lhs(i,j) = cv(j-3) + cv(j+3)
    enddo
  enddo
end
`,
	// A descending innermost loop of statements only: the evaluator
	// narrows its range from the top.
	"descending": `
program desc
param N = 32
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align a with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs
subroutine main()
  real a(0:N-1, 0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      a(i,j) = 0.01 * i + 0.1 * j
    enddo
  enddo
  do j = 1, N-2
    do i = N-2, 1, -1
      a(i,j) = a(i,j) + 0.5 * a(i+1,j)
    enddo
  enddo
end
`,
	"if-around-events": `
program ife
param N = 32
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
!hpf$ distribute b(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  real b(0:N-1)
  do i = 0, N-1
    a(i) = 0.5 * i
    b(i) = 0.0
  enddo
  do step = 1, 3
    if (step /= 2) then
      do i = 1, N-2
        b(i) = a(i-1) + a(i+1) + step
      enddo
    else
      do i = 0, N-1
        a(i) = a(i) + 1.0
      enddo
    endif
  enddo
end
`,
}

// callAndAssignSrc holds a loop the compiled engines cannot claim: it
// calls, so its own array assignment runs through the walker while the
// callee's loop is a nest.  It is also the committed FuzzExecEngines seed.
const callAndAssignSrc = `
program cal
param N = 16
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align w with tm(d0, d1)
!hpf$ align c with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs
subroutine bump(v, jj, x)
  real v(0:N-1, 0:N-1)
  do i = 0, N-1
    v(i, jj) = v(i, jj) * 2.0 + x
  enddo
end
subroutine main()
  real w(0:N-1, 0:N-1)
  real c(0:N-1, 0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      w(i,j) = 0.01 * i + 0.1 * j
    enddo
  enddo
  do j = 0, N-1
    call bump(w, j, 0.75)
    c(0,j) = w(0,j) + 1.0
  enddo
end
`

// threeWays executes prog on the interpreter, on the default engine
// (kernel units on the evaluator) and on the default engine with every
// precheck bailing (each invocation declined to the walker), in that
// order.
func threeWays(prog *Program, cfg mpsim.Config) (res [3]*ExecResult, errs [3]error) {
	res[0], errs[0] = prog.ExecuteEngine(cfg, EngineInterp)
	res[1], errs[1] = prog.ExecuteEngine(cfg, EngineCompiled)
	defer BailAlways(prog)()
	res[2], errs[2] = prog.ExecuteEngine(cfg, EngineCompiled)
	return res, errs
}

var threeWayNames = [3]string{"interp", "evaluator", "every precheck bailed"}

// sameOutcome reports whether two executions ended alike: both finished,
// or both failed — and when the machine aborted them (a deadlock, the
// virtual-time limit: both deterministic), with the same text.
func sameOutcome(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if errors.Is(a, mpsim.ErrAborted) || errors.Is(b, mpsim.ErrAborted) {
		return a.Error() == b.Error()
	}
	return true
}

// requireEnginesIdentical executes prog three ways and fails the test on
// any bit-level difference in results or machine state — or, for a
// program that does not finish (ysolve with availability analysis
// disabled deadlocks), in the error.
func requireEnginesIdentical(t *testing.T, prog *Program, cfg mpsim.Config) {
	t.Helper()
	res, errs := threeWays(prog, cfg)
	for k := 1; k < 3; k++ {
		if !sameOutcome(errs[0], errs[k]) {
			t.Fatalf("engines disagree on the outcome: interp err=%v, %s err=%v", errs[0], threeWayNames[k], errs[k])
		}
	}
	if errs[0] != nil {
		return
	}
	// BailAlways breaks the units' array geometry, so a unit that touches
	// no array keeps running in the bailing run; every other invocation
	// must decline.
	arrayless := slices.ContainsFunc(prog.KernelUnits(), func(u *KernelUnit) bool { return len(u.Arrays) == 0 })
	if ran, bailed := res[1].Kernels, res[2].Kernels; bailed.TotalBails()+bailed.EvalCalls != ran.EvalCalls+ran.TotalBails() ||
		!arrayless && bailed.EvalCalls > 0 {
		t.Fatalf("the bailing run did not decline the evaluated run's invocations: %s; evaluated %s", bailed, ran)
	}
	// Fuzz inputs such as arraylessUnitSrc declare no array in main;
	// SameRun reports that only after the machines and pulls matched.
	for k := 1; k < 3; k++ {
		if err := SameRun(prog, res[0], res[k]); err != nil && !errors.Is(err, errNoArray) {
			t.Fatalf("%s against interp: %v", threeWayNames[k], err)
		}
	}
}

// TestEnginesByteIdenticalInline runs the inline differential corpus.
func TestEnginesByteIdenticalInline(t *testing.T) {
	for name, src := range engineCorpus {
		t.Run(name, func(t *testing.T) {
			prog, err := CompileSource(src, nil, DefaultOptions())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			requireEnginesIdentical(t, prog, testMachine(prog.Grid.Size()))
		})
	}
}

// TestDeclinedNestRunsOnWalker: a nest holding a construct outside the
// unit grammar — here an intrinsic with one argument too many, which the
// interpreter evaluates and ignores — yields no unit; the walker
// interprets it, the other nest runs as a kernel unit on the evaluator
// (one invocation per rank), the run says so, and the engines still
// agree.
func TestDeclinedNestRunsOnWalker(t *testing.T) {
	prog, err := CompileSource(`
program dec
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  do i = 0, N-1
    a(i) = max(0.5 * i, 3.0, 100.0)
  enddo
  do i = 0, N-1
    a(i) = a(i) + 1.0
  enddo
end
`, nil, DefaultOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := testMachine(prog.Grid.Size())
	res, err := prog.ExecuteEngine(cfg, EngineCompiled)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Nests; n.Declined != 1 || n.Walked != 16 {
		t.Errorf("%s, want 1 declined nest with its 16 instances interpreted", n)
	}
	if k := res.Kernels; k.EvalCalls != 4 || k.Calls != 0 || k.TotalBails() != 0 {
		t.Errorf("%s, want the other nest evaluated once per rank", k)
	}
	requireEnginesIdentical(t, prog, cfg)
}

// TestEnginesByteIdenticalTestdata runs the whole shipped corpus, with
// pass ablations, under both engines.
func TestEnginesByteIdenticalTestdata(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.hpf")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata files found: %v", err)
	}
	ablations := [][]string{nil, {"availability"}, {"loopdist"}}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, disable := range ablations {
			name := filepath.Base(f)
			for _, d := range disable {
				name += "-no-" + d
			}
			t.Run(name, func(t *testing.T) {
				opt := DefaultOptions()
				opt.Disable = append(opt.Disable, disable...)
				prog, err := CompileSource(string(src), nil, opt)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				requireEnginesIdentical(t, prog, testMachine(prog.Grid.Size()))
			})
		}
	}
}

// TestEngineGrainSweep checks byte-identity across pipeline granularity
// settings (the tuner's full-evaluation tier runs the compiled engine
// over exactly this space).
func TestEngineGrainSweep(t *testing.T) {
	src, err := os.ReadFile("../../testdata/ysolve.hpf")
	if err != nil {
		t.Fatal(err)
	}
	for _, grain := range []int{1, 4, 16, 64} {
		opt := DefaultOptions()
		opt.PipelineGrain = grain
		prog, err := CompileSource(string(src), nil, opt)
		if err != nil {
			t.Fatalf("grain %d: compile: %v", grain, err)
		}
		requireEnginesIdentical(t, prog, testMachine(prog.Grid.Size()))
	}
}

// arraylessUnitSrc's one kernel unit touches no array, so BailAlways
// cannot make it bail: the bailing run evaluates it like the other.
const arraylessUnitSrc = `program z
!hpf$ processors procs(2)
subroutine main()
do A=0,0
A=0
enddo
end
`

// FuzzExecEngines cross-checks, on arbitrary source text, the three ways
// a compute nest runs: anything that compiles must execute identically
// on the interpreter, with kernel units on the evaluator, and with every
// unit's precheck bailing — or fail identically: a program that runs away
// trips the virtual-time limit and one that deadlocks is reported by the
// machine, both with the same text on every engine.
func FuzzExecEngines(f *testing.F) {
	files, _ := filepath.Glob("../../testdata/*.hpf")
	for _, file := range files {
		if src, err := os.ReadFile(file); err == nil {
			f.Add(string(src))
		}
	}
	for _, src := range engineCorpus {
		f.Add(src)
	}
	for _, row := range hoistRows {
		f.Add(row.Src)
	}
	f.Add(arraylessUnitSrc)
	f.Fuzz(func(t *testing.T, src string) {
		// The front end can panic on degenerate directives (pre-existing,
		// engine-independent); this target only hunts execution-engine
		// divergence, so treat any compile failure as a skip.
		prog, err := func() (p *Program, err error) {
			defer func() {
				if rec := recover(); rec != nil {
					err = fmt.Errorf("compile panic: %v", rec)
				}
			}()
			return CompileSource(src, nil, DefaultOptions())
		}()
		if err != nil {
			return
		}
		if prog.Grid.Size() > 16 {
			return
		}
		cfg := testMachine(prog.Grid.Size())
		cfg.TimeLimit = 1.0
		formsArePlans(t, prog, cfg)
		requireEnginesIdentical(t, prog, cfg)
	})
}

// formsArePlans executes prog with every plan its closed forms give
// compared with Planner.Plan's (sched.Schedule.CheckForms) and fails t
// on a difference.
func formsArePlans(t *testing.T, prog *Program, cfg mpsim.Config) {
	t.Helper()
	_, restore := prog.Schedule().CheckForms()
	defer restore()
	if _, err := prog.ExecuteEngine(cfg, EngineCompiled); err != nil && strings.Contains(err.Error(), "closed form is not Plan") {
		t.Fatal(err)
	}
}
