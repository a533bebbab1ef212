package spmd

// Differential tests of the compiled execution engine against the
// tree-walking interpreter: the two engines must be byte-identical on
// every observable — global array contents (bit-for-bit), the machine's
// virtual clocks (total, per-rank busy/idle/flops), and per-rank message
// and byte counters.  The corpus covers every shipped testdata program
// plus inline programs exercising reductions, interprocedural calls,
// data-dependent conditionals (the clamp-disabling case), wavefront
// pipelining, and replicated broadcast reads.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

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

// requireEnginesIdentical executes prog under both engines and fails the
// test on any bit-level difference in results or machine state.
func requireEnginesIdentical(t *testing.T, prog *Program, cfg mpsim.Config) {
	t.Helper()
	ri, erri := prog.ExecuteEngine(cfg, EngineInterp)
	rc, errc := prog.ExecuteEngine(cfg, EngineCompiled)
	if errors.Is(erri, mpsim.ErrWallLimit) || errors.Is(errc, mpsim.ErrWallLimit) {
		// Wall-limit aborts fire at nondeterministic points (some
		// configurations genuinely deadlock — e.g. ysolve with
		// availability analysis disabled, identically in both engines);
		// there is nothing deterministic to compare.
		t.Skipf("wall limit hit (interp err=%v, compiled err=%v)", erri, errc)
	}
	if (erri == nil) != (errc == nil) {
		t.Fatalf("engines disagree on success: interp err=%v, compiled err=%v", erri, errc)
	}
	if erri != nil {
		return
	}
	mi, mc := ri.Machine, rc.Machine
	if math.Float64bits(mi.Time) != math.Float64bits(mc.Time) {
		t.Fatalf("virtual time differs: interp %v, compiled %v", mi.Time, mc.Time)
	}
	if mi.TotalMessages() != mc.TotalMessages() || mi.TotalBytes() != mc.TotalBytes() {
		t.Fatalf("traffic differs: interp %d msgs/%d bytes, compiled %d msgs/%d bytes",
			mi.TotalMessages(), mi.TotalBytes(), mc.TotalMessages(), mc.TotalBytes())
	}
	for r := range mi.RankTime {
		if math.Float64bits(mi.RankTime[r]) != math.Float64bits(mc.RankTime[r]) {
			t.Fatalf("rank %d clock differs: %v vs %v", r, mi.RankTime[r], mc.RankTime[r])
		}
		if math.Float64bits(mi.RankIdle[r]) != math.Float64bits(mc.RankIdle[r]) {
			t.Fatalf("rank %d idle differs: %v vs %v", r, mi.RankIdle[r], mc.RankIdle[r])
		}
		if math.Float64bits(mi.RankFlops[r]) != math.Float64bits(mc.RankFlops[r]) {
			t.Fatalf("rank %d flops differ: %v vs %v", r, mi.RankFlops[r], mc.RankFlops[r])
		}
		if mi.SentMsgs[r] != mc.SentMsgs[r] || mi.SentBytes[r] != mc.SentBytes[r] || mi.RecvMsgs[r] != mc.RecvMsgs[r] {
			t.Fatalf("rank %d counters differ: interp %d/%d/%d, compiled %d/%d/%d", r,
				mi.SentMsgs[r], mi.SentBytes[r], mi.RecvMsgs[r],
				mc.SentMsgs[r], mc.SentBytes[r], mc.RecvMsgs[r])
		}
	}
	for _, d := range prog.IR.Main().Decls {
		if d.Rank() == 0 {
			continue
		}
		gi, loI, hiI, errI := ri.Global(d.Name)
		gc, loC, hiC, errC := rc.Global(d.Name)
		if (errI == nil) != (errC == nil) {
			t.Fatalf("%s: Global errors differ: %v vs %v", d.Name, errI, errC)
		}
		if errI != nil {
			continue
		}
		if len(gi) != len(gc) {
			t.Fatalf("%s: lengths differ: %d vs %d", d.Name, len(gi), len(gc))
		}
		for k := range loI {
			if loI[k] != loC[k] || hiI[k] != hiC[k] {
				t.Fatalf("%s: bounds differ", d.Name)
			}
		}
		for k := range gi {
			if math.Float64bits(gi[k]) != math.Float64bits(gc[k]) {
				t.Fatalf("%s[%d]: interp %v (%#x), compiled %v (%#x)",
					d.Name, k, gi[k], math.Float64bits(gi[k]), gc[k], math.Float64bits(gc[k]))
			}
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

// TestDeclinedNestRunsOnWalker: a nest holding a construct the closure
// compiler does not lower — here an intrinsic with one argument too many,
// which the interpreter evaluates and ignores — is not claimed; the
// walker runs it, the run says so, and the engines still agree.
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
	if n := res.Nests; n.Declined != 1 || n.Walked != 16 || n.InNest != 16 {
		t.Errorf("%s, want 1 declined nest with its 16 instances walked and the other nest's 16 compiled", n)
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
				cfg := testMachine(prog.Grid.Size())
				cfg.WallLimit = 3 * time.Second
				requireEnginesIdentical(t, prog, cfg)
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

// FuzzExecEngines cross-checks the engines on arbitrary source text:
// anything that compiles must execute identically under both.  A wall
// clock limit bounds runaway programs; wall-limit aborts fire at a
// nondeterministic virtual time, so those runs only check that both
// engines abort or neither does nothing further.
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
		cfg.TimeLimit = 1.0             // deterministic abort: identical across engines
		cfg.WallLimit = 2 * time.Second // catches deadlocks (frozen clocks), then skipped below
		ri, erri := prog.ExecuteEngine(cfg, EngineInterp)
		rc, errc := prog.ExecuteEngine(cfg, EngineCompiled)
		if errors.Is(erri, mpsim.ErrWallLimit) || errors.Is(errc, mpsim.ErrWallLimit) {
			return
		}
		if (erri == nil) != (errc == nil) {
			t.Fatalf("engines disagree on success: interp err=%v, compiled err=%v", erri, errc)
		}
		if erri != nil {
			return
		}
		mi, mc := ri.Machine, rc.Machine
		if math.Float64bits(mi.Time) != math.Float64bits(mc.Time) {
			t.Fatalf("virtual time differs: interp %v, compiled %v", mi.Time, mc.Time)
		}
		if mi.TotalMessages() != mc.TotalMessages() || mi.TotalBytes() != mc.TotalBytes() {
			t.Fatalf("traffic differs: %d/%d vs %d/%d",
				mi.TotalMessages(), mi.TotalBytes(), mc.TotalMessages(), mc.TotalBytes())
		}
		main := prog.IR.Main()
		if main == nil {
			return
		}
		for _, d := range main.Decls {
			if d.Rank() == 0 {
				continue
			}
			gi, _, _, errI := ri.Global(d.Name)
			gc, _, _, errC := rc.Global(d.Name)
			if (errI == nil) != (errC == nil) || errI != nil || len(gi) != len(gc) {
				if (errI == nil) != (errC == nil) {
					t.Fatalf("%s: Global errors differ: %v vs %v", d.Name, errI, errC)
				}
				continue
			}
			for k := range gi {
				if math.Float64bits(gi[k]) != math.Float64bits(gc[k]) {
					t.Fatalf("%s[%d]: interp %v, compiled %v", d.Name, k, gi[k], gc[k])
				}
			}
		}
	})
}
