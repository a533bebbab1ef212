package codegen

// codegen.go is the orchestration layer of the native tier: the shared
// emission corpus (the programs whose kernels are pre-generated into
// internal/codegen/gen), analysis-driven unit selection (specialize
// only phases whose flop count clears a threshold; everything else
// stays on the in-process evaluator), and EnableNative — the entry point
// cmd/dhpfc and the service use to bring a program's kernels online,
// falling back gracefully when plugins are unavailable.

//go:generate go run ./gencorpus -o gen/kernels.go

import (
	"fmt"
	"os"

	"dhpf/internal/ir"
	"dhpf/internal/nas"
	"dhpf/internal/passes"
	"dhpf/internal/spmd"
)

// DefaultMinPhaseFlops is the specialization threshold: a kernel unit
// is worth native code only when its phase's whole-program flop count
// (analysis.PhaseSummary.Flops, executed instances × cost summed over
// ranks) reaches it.  Phases below it — scalar epilogues, tiny setup
// loops — stay on the in-process evaluator, whose per-call overhead is
// already negligible at that size.
const DefaultMinPhaseFlops = 256

// CorpusEntry is one program of the emission corpus.
type CorpusEntry struct {
	Name   string
	Source string
	Params map[string]int
	// Procs is the rank count the parity tests execute with (the grid
	// declared by Source must have this size).
	Procs int
	Opt   spmd.Options
}

// Corpus returns the emission corpus: the NAS benchmark programs at
// their standard benchmark sizes (the exact compiles BenchmarkExecute*
// runs, so the checked-in gen package accelerates them out of the box),
// ablation variants (disabled passes change computation partitions and
// therefore kernel shapes), backend/grain variants, small feature
// programs covering emission paths the NAS codes miss (conditionals,
// intrinsics, broadcast reads, a cross-shaped LOCALIZE guard), and SP/BT
// on 1×4 and 4×1 grids — same kernels as 2×2 (guards are runtime data),
// but halo boxes of a different shape on every rank.  gencorpus emits
// kernels for every entry; the parity tests execute every entry under
// all three tiers.  Entries are appended, never reordered: the fuzz
// target's seeds index this list.
func Corpus() []CorpusEntry {
	shm := spmd.DefaultOptions()
	shm.Backend = passes.BackendShm
	grain := spmd.DefaultOptions()
	grain.PipelineGrain = 4
	return []CorpusEntry{
		{Name: "sp16", Source: nas.SPSource(16, 1, 2, 2), Procs: 4, Opt: spmd.DefaultOptions()},
		{Name: "bt12", Source: nas.BTSource(12, 1, 2, 2), Procs: 4, Opt: spmd.DefaultOptions()},
		{Name: "lu16", Source: nas.LUSource(16, 1, 2, 2), Procs: 4, Opt: spmd.DefaultOptions()},
		{Name: "sp16-nolocalize", Source: nas.SPSource(16, 1, 2, 2), Procs: 4,
			Opt: spmd.DefaultOptions().WithDisabled(passes.PassLocalize)},
		{Name: "sp16-noavail", Source: nas.SPSource(16, 1, 2, 2), Procs: 4,
			Opt: spmd.DefaultOptions().WithDisabled(passes.PassAvailability)},
		{Name: "bt12-noloopdist", Source: nas.BTSource(12, 1, 2, 2), Procs: 4,
			Opt: spmd.DefaultOptions().WithDisabled(passes.PassLoopDist)},
		{Name: "sp16-shm", Source: nas.SPSource(16, 1, 2, 2), Procs: 4, Opt: shm},
		{Name: "lu16-grain4", Source: nas.LUSource(16, 1, 2, 2), Procs: 4, Opt: grain},
		{Name: "features-cond", Source: featCondSource, Procs: 4, Opt: spmd.DefaultOptions()},
		{Name: "features-intrin", Source: featIntrinSource, Procs: 4, Opt: spmd.DefaultOptions()},
		{Name: "features-broadcast", Source: featBroadcastSource, Procs: 4, Opt: spmd.DefaultOptions()},
		{Name: "features-localize", Source: featLocalizeSource, Procs: 9, Opt: spmd.DefaultOptions()},
		{Name: "sp16-1x4", Source: nas.SPSource(16, 1, 1, 4), Procs: 4, Opt: spmd.DefaultOptions()},
		{Name: "sp16-4x1", Source: nas.SPSource(16, 1, 4, 1), Procs: 4, Opt: spmd.DefaultOptions()},
		{Name: "bt12-1x4", Source: nas.BTSource(12, 1, 1, 4), Procs: 4, Opt: spmd.DefaultOptions()},
		{Name: "bt12-4x1", Source: nas.BTSource(12, 1, 4, 1), Procs: 4, Opt: spmd.DefaultOptions()},
	}
}

// featCondSource exercises pIf lowering: nested conditionals with both
// arms, the "/=" operator, and guard boxes interacting with the
// conditional structure.
const featCondSource = `
program fcond
param N = 24
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
      if (i < N-4) then
        if (j /= 7) then
          a(i,j) = 0.25 * i + 0.5 * j
        else
          a(i,j) = -1.0
        endif
      else
        a(i,j) = 2.0
      endif
    enddo
  enddo
  do j = 1, N-2
    do i = 1, N-2
      b(i,j) = a(i-1,j) + a(i+1,j) + a(i,j-1) + a(i,j+1)
    enddo
  enddo
end
`

// featIntrinSource covers every canonical intrinsic the extractor
// admits, both unary and binary arities, plus scalar assignments
// inside a parallel loop.
const featIntrinSource = `
program fintr
param N = 32
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
!hpf$ distribute b(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  real b(0:N-1)
  do i = 0, N-1
    a(i) = sin(0.1 * i) + cos(0.2 * i)
  enddo
  do i = 0, N-1
    b(i) = sqrt(abs(a(i))) + exp(0.01 * i) + log(2.0 + i)
  enddo
  do i = 0, N-1
    a(i) = min(a(i), b(i)) + max(a(i), b(i)) + mod(1.0 * i, 7.0) + pow(1.01, 1.0 * i)
  enddo
end
`

// featBroadcastSource covers replicated reads of a remote element
// (broadcast communication at the loop root) feeding a kernel body.
const featBroadcastSource = `
program fbc
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
!hpf$ distribute b(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  real b(0:N-1)
  do i = 0, N-1
    a(i) = 0.5 * i + 1.0
  enddo
  do i = 0, N-1
    b(i) = a(9) * i + a(2)
  enddo
end
`

// featLocalizeSource covers union-of-boxes guards: rho is LOCALIZE'd
// and read at ±1 in both distributed dimensions, so on the 3×3 grid the
// interior rank computes rho over its own block plus four halo faces —
// a cross, which no single box describes.
const featLocalizeSource = `
program floc
param N = 18
!hpf$ processors procs(3, 3)
!hpf$ template tm(N, N)
!hpf$ align u with tm(d0, d1)
!hpf$ align v with tm(d0, d1)
!hpf$ align rho with tm(d0, d1)
!hpf$ distribute tm(BLOCK, BLOCK) onto procs
subroutine main()
  real u(0:N-1, 0:N-1)
  real v(0:N-1, 0:N-1)
  real rho(0:N-1, 0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      u(i,j) = 1.0 + 0.01 * i + 0.02 * j
      v(i,j) = 0.0
    enddo
  enddo
  !hpf$ independent, localize(rho)
  do onetrip = 1, 1
    do j = 0, N-1
      do i = 0, N-1
        rho(i,j) = 1.0 / u(i,j)
      enddo
    enddo
    do j = 1, N-2
      do i = 1, N-2
        v(i,j) = rho(i+1,j) + rho(i-1,j) + rho(i,j+1) + rho(i,j-1) - 4.0 * rho(i,j)
      enddo
    enddo
  enddo
end
`

// SelectUnits returns the program's kernel units whose containing
// top-level phase clears the flop threshold, per the static analysis
// (the same exact oracle the tuner trusts).  minPhaseFlops == 0 uses
// DefaultMinPhaseFlops; a negative value selects every unit (the
// corpus generator's setting, so parity tests can exercise kernels the
// threshold would skip).  If the analysis itself fails, every unit is
// selected: the precheck and registry make over-selection safe.
func SelectUnits(p *spmd.Program, minPhaseFlops float64) []*spmd.KernelUnit {
	units := p.KernelUnits()
	if minPhaseFlops < 0 {
		return units
	}
	if minPhaseFlops == 0 {
		minPhaseFlops = DefaultMinPhaseFlops
	}
	res, err := p.Analyze()
	if err != nil {
		return units
	}
	// Phase flops are keyed by top-level statement; map every statement
	// to its containing top-level statement, per procedure.
	topOf := map[string]map[int]int{}
	for _, proc := range p.IR.Procs {
		m := map[int]int{}
		for _, s := range proc.Body {
			top := s.StmtID()
			ir.Walk([]ir.Stmt{s}, func(st ir.Stmt, _ []*ir.Loop) bool {
				m[st.StmtID()] = top
				return true
			})
		}
		topOf[proc.Name] = m
	}
	flops := map[string]map[int]float64{}
	for _, ps := range res.Procs {
		m := map[int]float64{}
		for _, ph := range ps.Phases {
			m[ph.Stmt] = ph.Flops
		}
		flops[ps.Proc] = m
	}
	var out []*spmd.KernelUnit
	for _, u := range units {
		top, ok := topOf[u.Proc][u.RootID]
		if !ok {
			continue
		}
		if flops[u.Proc][top] >= minPhaseFlops {
			out = append(out, u)
		}
	}
	return out
}

// Options configures EnableNative.
type Options struct {
	// MinPhaseFlops is the specialization threshold (0 = default,
	// negative = every unit); see SelectUnits.
	MinPhaseFlops float64
	// CacheDir overrides the plugin build/cache directory (default: a
	// "dhpf-codegen" directory under os.UserCacheDir, falling back to
	// the system temp directory).
	CacheDir string
}

// Report says what EnableNative did.  Fallback is empty when native
// execution is fully available for the selected units; otherwise it is
// an INFO-grade reason (missing toolchain, plugins unsupported, build
// failure) and execution proceeds on the in-process evaluator for the
// units that stayed unregistered — never an error: every unit always has
// that back end.
type Report struct {
	Units      int    // kernel units extracted from the program
	Selected   int    // units above the specialization threshold
	Registered int    // selected units already in the registry
	Built      int    // kernels loaded from a freshly built plugin
	CacheHit   bool   // plugin came from the content-addressed cache
	Fallback   string // why some units stay on the evaluator ("" = none)
}

// String renders the report as the one-line diagnostic dhpfc prints.
func (r Report) String() string {
	s := fmt.Sprintf("codegen: %d units, %d selected, %d pre-registered, %d built",
		r.Units, r.Selected, r.Registered, r.Built)
	if r.CacheHit {
		s += " (cache hit)"
	}
	if r.Fallback != "" {
		s += "; fallback: " + r.Fallback
	}
	return s
}

// EnableNative makes the native tier available for p: it extracts and
// selects kernel units, reuses registry entries where fingerprints
// already match (the checked-in gen corpus covers the standard
// benchmarks), and emits + builds + loads a plugin for the rest.  The
// error return is reserved for invariant violations (corrupt cache
// store); every expected obstacle — no go toolchain, plugin buildmode
// unsupported on this platform, race-instrumented host binary,
// DHPF_NO_PLUGIN set in the environment (only kernels already in the
// registry are used) — lands in Report.Fallback with a nil error, and
// EngineCodegen silently evaluates unregistered units in process.
func EnableNative(p *spmd.Program, opt Options) (Report, error) {
	var rep Report
	units := p.KernelUnits()
	rep.Units = len(units)
	selected := SelectUnits(p, opt.MinPhaseFlops)
	rep.Selected = len(selected)
	var missing []*spmd.KernelUnit
	for _, u := range selected {
		if spmd.KernelFor(u.Fingerprint()) != nil {
			rep.Registered++
		} else {
			missing = append(missing, u)
		}
	}
	if len(missing) == 0 {
		return rep, nil
	}
	if os.Getenv("DHPF_NO_PLUGIN") != "" {
		rep.Fallback = fmt.Sprintf("%d kernels not pre-generated and plugin builds disabled", len(missing))
		return rep, nil
	}
	if reason := pluginUnsupported(); reason != "" {
		rep.Fallback = fmt.Sprintf("%d kernels not pre-generated and %s", len(missing), reason)
		return rep, nil
	}
	src := EmitPlugin(missing)
	kernels, cacheHit, err := buildAndLoad(src, p.Opt, opt)
	if err != nil {
		// Build or load failures degrade, not fail: the evaluator is
		// always a correct back end for every unit.
		rep.Fallback = err.Error()
		return rep, nil
	}
	rep.CacheHit = cacheHit
	for _, u := range missing {
		fp := u.Fingerprint()
		if fn, ok := kernels[fp]; ok {
			spmd.RegisterKernel(fp, fn)
			rep.Built++
		}
	}
	if rep.Built < len(missing) {
		rep.Fallback = fmt.Sprintf("plugin served %d of %d kernels", rep.Built, len(missing))
	}
	return rep, nil
}
