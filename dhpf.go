// Package dhpf is a Go reproduction of the Rice dHPF compiler described
// in "High Performance Fortran Compilation Techniques for Parallelizing
// Scientific Codes" (Adve, Jin, Mellor-Crummey, Yi — SC'98).
//
// It compiles a mini-HPF language (Fortran-style loops and affine array
// references plus the HPF directives PROCESSORS, TEMPLATE, ALIGN,
// DISTRIBUTE, INDEPENDENT, NEW, and dHPF's LOCALIZE extension) into SPMD
// message-passing programs, applying the paper's optimizations:
//
//   - computation-partition selection over the general ON_HOME model,
//   - CP propagation for privatizable (NEW) arrays with partial
//     replication of boundary computation (§4.1),
//   - LOCALIZE partial replication for distributed arrays (§4.2),
//   - communication-sensitive selective loop distribution (§5),
//   - interprocedural CP selection (§6),
//   - data-availability analysis eliminating redundant communication
//     (§7),
//
// and runs the result on a deterministic virtual-time message-passing
// machine, so compiled programs produce both verified numerics and
// realistic parallel-performance behaviour (pipelines, halos, load
// imbalance).
//
// A minimal end-to-end use:
//
//	prog, err := dhpf.Compile(src, nil, dhpf.DefaultOptions())
//	res, err := prog.Run(dhpf.SP2Machine(prog.Ranks()))
//	data, lo, hi, err := res.Array("a")
package dhpf

import (
	"context"

	"dhpf/internal/cache"
	"dhpf/internal/mpsim"
	"dhpf/internal/parser"
	"dhpf/internal/passes"
	"dhpf/internal/spmd"
	"dhpf/internal/store"
	"dhpf/internal/trace"
)

// Options configures the compilation pipeline; start from
// DefaultOptions, the paper's configuration.  Options.Disable drops
// optional passes by name (see the Pass* name constants) — the only way
// to turn an optimization off — and Options.Instrument enables the
// per-pass communication probe reported by Program.PassStats.
type Options = spmd.Options

// DefaultOptions enables all the paper's optimizations with a pipeline
// grain of 8.
func DefaultOptions() Options { return spmd.DefaultOptions() }

// PassStat is one pass's instrumentation record: wall time, decision
// summary and notes, and (with Options.Instrument) the communication
// volume as of the end of the pass.
type PassStat = passes.Stat

// Canonical pass names, in pipeline order.  The optional ones
// (PassNewProp through PassLoopDist, PassAvailability, PassWritebackRed,
// PassVerify, PassAnalyze) may be listed in Options.Disable to ablate
// that stage.
const (
	PassParse        = passes.PassParse
	PassBind         = passes.PassBind
	PassDependence   = passes.PassDependence
	PassCPSelect     = passes.PassCPSelect
	PassNewProp      = passes.PassNewProp
	PassLocalize     = passes.PassLocalize
	PassInterproc    = passes.PassInterproc
	PassLoopDist     = passes.PassLoopDist
	PassReductions   = passes.PassReductions
	PassCommPlan     = passes.PassCommPlan
	PassAvailability = passes.PassAvailability
	PassWritebackRed = passes.PassWritebackRed
	PassLower        = passes.PassLower
	PassVerify       = passes.PassVerify
	PassAnalyze      = passes.PassAnalyze
)

// Execution backends Options.Backend accepts: message-passing ranks
// (the default), shared-memory threads with barrier phases in place of
// messages, and the hybrid layout (ranks across grid dimension 0 ×
// threads within a rank).  All three produce bit-identical numerics;
// they differ in the cost model and in the verifier's obligations (the
// shared-memory backends add the race-freedom theorem).
const (
	BackendMP     = passes.BackendMP
	BackendShm    = passes.BackendShm
	BackendHybrid = passes.BackendHybrid
)

// PassNames lists every pass of the full pipeline, in order.
func PassNames() []string { return passes.PassNames() }

// OptionalPassNames lists the passes Options.Disable accepts, in
// pipeline order.
func OptionalPassNames() []string { return passes.OptionalPassNames() }

// StatsTable renders pass records as the table cmd/dhpfc -explain
// prints.
func StatsTable(stats []PassStat) string { return passes.StatsTable(stats) }

// MachineConfig fixes the simulated machine's size and cost model.
type MachineConfig = mpsim.Config

// SP2Machine returns a cost model approximating the paper's IBM SP2
// (120 MHz P2SC nodes, user-space MPI) for the given number of ranks.
func SP2Machine(procs int) MachineConfig { return mpsim.SP2Config(procs) }

// Program is a compiled SPMD program.
type Program struct {
	inner *spmd.Program
}

// Compile parses and compiles mini-HPF source.  params overrides the
// program's `param` defaults (e.g. problem size or processor counts).
func Compile(source string, params map[string]int, opt Options) (*Program, error) {
	return CompileCtx(context.Background(), source, params, opt)
}

// CompileCtx is Compile with cancellation: the pipeline checks ctx at
// every pass boundary, so a cancelled or timed-out context aborts the
// compilation between passes.  This is the entry point the compile
// service uses to enforce per-request timeouts.
func CompileCtx(ctx context.Context, source string, params map[string]int, opt Options) (*Program, error) {
	p, err := spmd.CompileSourceCtx(ctx, source, params, opt)
	if err != nil {
		return nil, err
	}
	return &Program{inner: p}, nil
}

// CompileDelta summarizes one incremental compile: procedure counts,
// which procedures were dirty, and the artifact hit/miss balance.
type CompileDelta = passes.Delta

// Incremental is a compiler with a per-unit artifact store: repeated
// Compile calls reuse the CP selections, communication plans,
// verification and analysis fragments of procedures whose content (and
// whose callees' content) is unchanged, re-analyzing only edited procedures —
// in parallel.  The output is byte-for-byte identical to a cold
// Compile of the same source.  Safe for concurrent use.
type Incremental struct {
	store *cache.ArtifactStore
}

// NewIncremental returns an incremental compiler whose artifact store
// holds at most maxBytes of frozen artifacts (0 = the 64 MiB default).
func NewIncremental(maxBytes int64) *Incremental {
	return &Incremental{store: cache.NewArtifactStore(maxBytes)}
}

// Persist layers a durable chunk store under the artifact tier: frozen
// artifacts are written through to st as content-addressed chunks and
// read back on later compiles — including by other processes, or after
// a restart.  Call before the first Compile.  The Incremental does not
// close st.
func (inc *Incremental) Persist(st *store.Store) {
	inc.store.SetBacking(passes.NewStoreBacking(st))
}

// Compile compiles source through the artifact store, returning the
// program plus the recompilation delta.
func (inc *Incremental) Compile(source string, params map[string]int, opt Options) (*Program, *CompileDelta, error) {
	return inc.CompileCtx(context.Background(), source, params, opt)
}

// CompileCtx is Compile with cancellation at pass boundaries.
func (inc *Incremental) CompileCtx(ctx context.Context, source string, params map[string]int, opt Options) (*Program, *CompileDelta, error) {
	p, delta, err := spmd.CompileIncrementalCtx(ctx, source, params, opt, inc.store)
	if err != nil {
		return nil, nil, err
	}
	return &Program{inner: p}, delta, nil
}

// ArtifactStats returns the artifact store's counter snapshot.
func (inc *Incremental) ArtifactStats() cache.ArtifactStats {
	return inc.store.Stats()
}

// Fingerprint returns the canonical content address of one compilation:
// a stable hash of (source, params, options), invariant under Options
// canonicalization (e.g. permuted or duplicated Disable lists) and param
// map ordering.  Identical fingerprints compile to programs with
// byte-identical Report and NodeProgram output; the compile service keys
// its program cache with it.  Options alone can be fingerprinted with
// Options.Fingerprint.
func Fingerprint(source string, params map[string]int, opt Options) string {
	return passes.FingerprintKey(source, params, opt)
}

// Ranks returns the number of processors the program was compiled for.
func (p *Program) Ranks() int { return p.inner.Grid.Size() }

// Report renders the compiler's decisions: per-statement computation
// partitionings, communication events (with eliminations), and notes.
func (p *Program) Report() string { return p.inner.Report() }

// NodeProgram renders the generated SPMD node program for one rank as
// readable pseudo-Fortran (localized bounds, guards, communication
// calls) — the analogue of inspecting dHPF's generated F77+MPI output.
func (p *Program) NodeProgram(rank int) string { return p.inner.EmitNodeProgram(rank) }

// PassStats returns per-pass instrumentation of the compilation: one
// record per executed pass, in pipeline order.  Wall times and decision
// summaries are always collected; communication volumes only when the
// program was compiled with Options.Instrument.
func (p *Program) PassStats() []PassStat { return p.inner.PassStats() }

// Verify re-runs the translation validator — the four safety theorems
// of the verify pass (iteration coverage, communication completeness,
// write-back soundness, pipeline legality) plus the privatization
// linter's surfaced bail-outs — over the compiled program's analyses and
// returns the wire-form report.  A default compile already fails when
// the proof does; callers that disabled the in-pipeline pass
// (Options.Disable PassVerify) use this to obtain the diagnostics
// instead — the -lint workflow.
func (p *Program) Verify() (VerifyReport, error) {
	rep, err := p.inner.Verify()
	if err != nil {
		return VerifyReport{}, err
	}
	return VerifyReportJSON(rep), nil
}

// Analyze runs the whole-program static analysis over the compiled
// facts — symbolic loop summaries, distributed-array dataflow
// diagnostics, and the static cost oracle — and returns the wire-form
// report.  The in-pipeline analyze pass already runs by default;
// Analyze recomputes so callers that disabled it (Options.Disable
// PassAnalyze) still get the full report — the -analyze workflow.
func (p *Program) Analyze() (AnalyzeReport, error) {
	res, err := p.inner.Analyze()
	if err != nil {
		return AnalyzeReport{}, err
	}
	cost, err := p.inner.PredictCost()
	if err != nil {
		return AnalyzeReport{}, err
	}
	return AnalyzeReportJSON(res, cost), nil
}

// PredictCost runs just the static cost oracle: the per-rank execution
// counters (flops, messages, bytes; pulls and barriers for the
// shared-memory backends) the virtual machine would measure, derived
// without executing anything.
func (p *Program) PredictCost() (*AnalyzeCost, error) {
	return p.inner.PredictCost()
}

// Run executes the program on the simulated machine with the default
// (compiled) execution engine.
func (p *Program) Run(cfg MachineConfig) (*Result, error) {
	return p.RunEngine(cfg, "")
}

// RunEngine executes the program with an explicit execution engine:
// "compiled" (or "", the default) for the compiled engine,
// "interp" for the reference tree-walking interpreter, "codegen" for
// native kernels (units of a program in the generated corpus — import
// dhpf/internal/codegen/gen — execute natively, the rest on the default
// engine's evaluator).  All engines produce byte-identical results; the
// interpreter exists as the oracle the others are differentially tested
// against.
func (p *Program) RunEngine(cfg MachineConfig, engine string) (*Result, error) {
	eng, err := spmd.ParseEngine(engine)
	if err != nil {
		return nil, err
	}
	res, err := p.inner.ExecuteEngine(cfg, eng)
	if err != nil {
		return nil, err
	}
	return &Result{exec: res}, nil
}

// Result is a finished execution: verified numeric state plus the
// virtual-time performance measurements.
type Result struct {
	exec *spmd.ExecResult
}

// Array returns the authoritative global contents of an array — each
// element its owner's copy, gathered once when the execution ended — as
// a fresh slice per call, plus its per-dimension inclusive bounds.
func (r *Result) Array(name string) (data []float64, lo, hi []int, err error) {
	return r.exec.Global(name)
}

// Seconds returns the virtual-time makespan of the run.
func (r *Result) Seconds() float64 { return r.exec.Machine.Time }

// Messages returns the total number of point-to-point messages sent.
func (r *Result) Messages() int64 { return r.exec.Machine.TotalMessages() }

// Bytes returns the total payload bytes sent.
func (r *Result) Bytes() int64 { return r.exec.Machine.TotalBytes() }

// RankSeconds returns each rank's final virtual clock.
func (r *Result) RankSeconds() []float64 { return r.exec.Machine.RankTime }

// Pulls returns the number of direct memory-to-memory copies the
// shared-memory backends performed in place of messages; zero for a
// message-passing run.
func (r *Result) Pulls() int64 {
	if r.exec.Shm == nil {
		return 0
	}
	return r.exec.Shm.TotalPulls()
}

// PulledBytes returns the bytes moved by those direct copies.
func (r *Result) PulledBytes() int64 {
	if r.exec.Shm == nil {
		return 0
	}
	return r.exec.Shm.TotalPulledBytes()
}

// KernelStats is one run's kernel-unit coverage: native units bound,
// native invocations and the native share of the flops, precheck bails
// by reason, and what the in-process evaluator ran.
type KernelStats = spmd.KernelStats

// Kernels reports which back end served the run's kernel units; the
// native counts are zero unless the run used the codegen engine.
func (r *Result) Kernels() KernelStats { return r.exec.Kernels }

// SpaceTime renders an ASCII space–time diagram of the run (requires the
// machine config to have had Trace enabled).
func (r *Result) SpaceTime(title string, bins int) string {
	return trace.Build(r.exec.Machine, bins).Render(title)
}

// Serial runs the program's reference (sequential) semantics, ignoring
// all directives — what the paper calls the NPB-serial starting point.
type Serial struct {
	inner *spmd.SerialResult
}

// RunSerial executes source sequentially with the given parameter
// overrides.
func RunSerial(source string, params map[string]int) (*Serial, error) {
	prog, err := parser.Parse(source)
	if err != nil {
		return nil, err
	}
	sr, err := spmd.RunSerial(prog, params)
	if err != nil {
		return nil, err
	}
	return &Serial{inner: sr}, nil
}

// AgreesWithSerial returns an error unless the named arrays (all of
// ref's by default) agree with ref as spmd.Agree decides under tol: bit
// for bit at 0, else finite and within tol·max(1, |serial|).
func (r *Result) AgreesWithSerial(ref *Serial, tol float64, names ...string) (worst float64, err error) {
	return r.exec.AgreesWithSerial(ref.inner, tol, names...)
}

// Array returns a main-procedure array's data and bounds.
func (s *Serial) Array(name string) (data []float64, lo, hi []int, err error) {
	return s.inner.Array(name)
}
