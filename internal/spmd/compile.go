// Package spmd is dhpf's back end: it lowers an analyzed mini-HPF
// program into an executable SPMD form and runs it on the mpsim virtual
// machine — every rank interprets its own partition of the iteration
// space, exchanging exactly the messages the communication analysis
// planned, so compiled programs produce real numeric results (checked
// against serial execution) *and* realistic virtual-time behaviour
// (pipelines serialize, boundary exchanges cost latency + volume).
package spmd

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"dhpf/internal/analysis"
	"dhpf/internal/cache"
	"dhpf/internal/comm"
	"dhpf/internal/cp"
	"dhpf/internal/hpf"
	"dhpf/internal/ir"
	"dhpf/internal/mpsim"
	"dhpf/internal/passes"
	"dhpf/internal/sched"
	"dhpf/internal/verify"
)

// Options bundles the optimization switches of the whole pipeline.  It
// is the pass pipeline's option set: besides the per-phase switches it
// carries Disable (drop optional passes by name) and Instrument
// (per-pass communication-volume probing).
type Options = passes.Options

// ReductionPlan is one recognized parallel reduction.
type ReductionPlan = passes.ReductionPlan

// DefaultOptions enables every optimization with the paper's defaults.
func DefaultOptions() Options { return passes.DefaultOptions() }

// Program is a compiled SPMD program.
type Program struct {
	IR   *ir.Program
	Ctx  *cp.Context
	Sel  *cp.Selection
	Comm map[string]*comm.Analysis // per procedure
	// Reductions lists the recognized parallel reductions per procedure:
	// scalar accumulations whose iterations the CP partitions, finalized
	// with a collective combine at the loop exit (dHPF's "reduction
	// recognition", §2).
	Reductions map[string][]ReductionPlan
	Grid       *hpf.Grid
	Opt        Options
	// Stats holds the per-pass instrumentation records of the pipeline
	// run that produced this program.
	Stats []passes.Stat

	// Lazily built compiled-engine plan (engine.go) — the slot numbering
	// and the kernel units cut against it: constructed at most once per
	// Program and shared read-only by every execution and rank.
	engOnce sync.Once
	eng     *enginePlan

	// Lazily built rank schedule (internal/sched), walked by every
	// execution, PredictCost and DryRun.
	schedOnce sync.Once
	sched     *sched.Schedule

	// Zero-point plans by event, each computed once (zeroPlan).
	zeroMu sync.Mutex
	zero   map[*comm.Event][]comm.Transfer

	// The idle crew the next execution borrows (exec.go): empty while an
	// execution holds it, or before the first one returns it.
	crew atomic.Pointer[crew]
}

// Schedule returns the program's rank schedule, building it once: the
// one schedule its executions, PredictCost and DryRun walk, and the
// keeper of the closed forms of its plans, derived by the first walk of
// each firing.
func (p *Program) Schedule() *sched.Schedule {
	p.schedOnce.Do(func() {
		p.sched = sched.New(sched.Input{
			IR: p.IR, Ctx: p.Ctx, Sel: p.Sel, Comm: p.Comm,
			Reductions: p.Reductions,
			Grid:       p.Grid,
			Grain:      p.Opt.PipelineGrain,
		})
	})
	return p.sched
}

// zeroPlan is the fully vectorized plan of one event — the planner at
// the zero point — as Report and EmitNodeProgram print it.  The plan is
// the same for every rank, so the first caller computes it for Report and
// all ranks' node programs; it is shared and read-only.
func (p *Program) zeroPlan(proc *ir.Procedure, e *comm.Event) []comm.Transfer {
	p.zeroMu.Lock()
	defer p.zeroMu.Unlock()
	plan, ok := p.zero[e]
	if !ok {
		plan = p.Schedule().Plan(proc, []*comm.Event{e}, sched.Point{Bind: p.Ctx.Bind.Params})
		if p.zero == nil {
			p.zero = map[*comm.Event][]comm.Transfer{}
		}
		p.zero[e] = plan
	}
	return plan
}

// Compile parses nothing: it takes an already-parsed program and runs
// the pass pipeline over it — directive binding, dependence analysis,
// CP selection (§2, §4, §6), selective loop distribution (§5), and
// communication planning with availability elimination (§7).
func Compile(prog *ir.Program, params map[string]int, opt Options) (*Program, error) {
	p, _, err := compile(context.Background(), &passes.CompileContext{IR: prog, Params: params, Opt: opt}, nil)
	return p, err
}

// CompileSource is Compile from mini-HPF source text (the parse pass
// does the parsing).
func CompileSource(src string, params map[string]int, opt Options) (*Program, error) {
	return CompileSourceCtx(context.Background(), src, params, opt)
}

// CompileSourceCtx is CompileSource with cancellation: the pipeline
// checks ctx at every pass boundary, so a cancelled or timed-out compile
// aborts between passes (the service's per-request timeout path).
func CompileSourceCtx(ctx context.Context, src string, params map[string]int, opt Options) (*Program, error) {
	p, _, err := compile(ctx, &passes.CompileContext{Source: src, Params: params, Opt: opt}, nil)
	return p, err
}

// compile is every compile's one body: the pass pipeline over cc with
// the artifact store (nil: nothing stored, nothing kept), then the hand-
// over to a program, which keeps only what its readers need — what only
// the passes read is released.
func compile(ctx context.Context, cc *passes.CompileContext, store *cache.ArtifactStore) (*Program, *passes.Delta, error) {
	delta, err := passes.RunIncrementalCtx(ctx, cc, store)
	if err != nil {
		return nil, nil, err
	}
	cc.Ctx.EndPipeline()
	return &Program{
		IR: cc.IR, Ctx: cc.Ctx, Sel: cc.Sel,
		Comm:       cc.Comm,
		Reductions: cc.Reductions,
		Grid:       cc.Grid, Opt: cc.Opt,
		Stats: cc.Stats,
	}, delta, nil
}

// CompileIncremental compiles source through the artifact store
// (passes.RunIncremental): per-procedure CP selections, communication
// plans, verification and analysis fragments are reused from the store
// when the procedure's environment fingerprint is unchanged, and only
// dirty procedures are re-analyzed.  The resulting Program is byte-for-byte
// identical to CompileSource of the same text.
func CompileIncremental(src string, params map[string]int, opt Options, store *cache.ArtifactStore) (*Program, *passes.Delta, error) {
	return CompileIncrementalCtx(context.Background(), src, params, opt, store)
}

// CompileIncrementalCtx is CompileIncremental with cancellation at pass
// boundaries.
func CompileIncrementalCtx(ctx context.Context, src string, params map[string]int, opt Options, store *cache.ArtifactStore) (*Program, *passes.Delta, error) {
	return compile(ctx, &passes.CompileContext{Source: src, Params: params, Opt: opt}, store)
}

// PassStats returns the per-pass instrumentation of the compilation:
// one record per executed pass, in pipeline order.
func (p *Program) PassStats() []passes.Stat { return p.Stats }

// Verify re-runs the translation validator over the program's analyses
// and returns the fresh report.  It always recomputes (never returns the
// report cached by the in-pipeline verify pass), so callers that mutate
// the analyses — the tuner's corruption tests, external tooling — get an
// honest verdict.
func (p *Program) Verify() (*verify.Report, error) {
	cc := &passes.CompileContext{
		IR: p.IR, Ctx: p.Ctx, Sel: p.Sel, Comm: p.Comm,
		Reductions: p.Reductions, Opt: p.Opt,
	}
	return verify.Run(cc.VerifyInput())
}

// AnalysisInput builds the static-analysis input for this program: the
// same post-pipeline facts the in-pipeline analyze pass reads, so
// analysis.Run on it agrees with the pipeline's own analysis.
func (p *Program) AnalysisInput() *analysis.Input {
	return &analysis.Input{IR: p.IR, Ctx: p.Ctx, Sel: p.Sel, Comm: p.Comm, Grid: p.Grid}
}

// Analyze runs the whole-program static analysis over the compiled
// facts: symbolic summaries plus dataflow diagnostics.
func (p *Program) Analyze() (*analysis.Result, error) {
	return analysis.Run(p.AnalysisInput())
}

// PredictCost runs the static cost oracle for this program's backend: a
// counting walk of the rank schedule Execute walks.
func (p *Program) PredictCost() (*analysis.Cost, error) {
	backend, _ := passes.ParseBackend(p.Opt.Backend)
	return analysis.Predict(p.Schedule(), backend)
}

// DryRun runs this program's schedule on the virtual machine without
// its values (analysis.DryRun): PredictCost's counters plus the
// machine's result, whose clocks and idle times are Execute's bit for
// bit.
func (p *Program) DryRun(cfg mpsim.Config) (*analysis.Cost, *mpsim.Result, error) {
	backend, err := passes.ParseBackend(p.Opt.Backend)
	if err != nil {
		return nil, nil, fmt.Errorf("spmd: %w", err)
	}
	return analysis.DryRun(p.Schedule(), backend, cfg)
}

// Report renders the compilation decisions (CPs, communication events,
// notes) as text — what cmd/dhpfc prints.
func (p *Program) Report() string {
	out := fmt.Appendf(nil, "program %s on %s%v (%d ranks)\n", p.IR.Name, p.Grid.Name, p.Grid.Shape, p.Grid.Size())
	for _, proc := range p.IR.Procs {
		out = fmt.Appendf(out, "\nsubroutine %s:\n", proc.Name)
		if e := p.Sel.Entry[proc.Name]; e != nil && !e.Replicated() {
			out = fmt.Appendf(out, "  entry CP: %s\n", e)
		}
		ir.Walk(proc.Body, func(s ir.Stmt, _ []*ir.Loop) bool {
			switch st := s.(type) {
			case *ir.Assign:
				out = fmt.Appendf(out, "  stmt %-3d %-40s %s\n", st.ID, append(st.LHS.AppendText(nil), " = ..."...), p.Sel.CPOf(st.ID))
			case *ir.CallStmt:
				out = fmt.Appendf(out, "  stmt %-3d call %-35s %s\n", st.ID, st.Callee, p.Sel.CPOf(st.ID))
			}
			return true
		})
		for _, e := range p.Comm[proc.Name].Events {
			out = append(append(out, "  "...), e.String()...)
			out = append(p.appendEventVolume(out, proc, e), '\n')
		}
	}
	if notes := p.Sel.Notes(); len(notes) > 0 {
		out = append(out, "\nnotes:\n"...)
		for _, n := range notes {
			out = append(append(append(out, "  "...), n...), '\n')
		}
	}
	return string(out)
}

// appendEventVolume summarizes a live event's fully-vectorized transfer
// plan (messages and bytes) for the report.
func (p *Program) appendEventVolume(out []byte, proc *ir.Procedure, e *comm.Event) []byte {
	if e.Eliminated {
		return out
	}
	plan := p.zeroPlan(proc, e)
	if len(plan) == 0 {
		return out
	}
	var bytes int64
	for _, t := range plan {
		bytes += t.Bytes()
	}
	return fmt.Appendf(out, "  [%d msgs, %d B vectorized]", len(plan), bytes)
}

// StaticFlops exposes the per-statement flop cost so that hand-coded
// implementations of the same formulas (the NAS baselines) can charge
// identical virtual-time work.
func StaticFlops(a *ir.Assign) float64 { return flopsOf(a) }

// flopsOf is the executor's per-statement flop charge.  It delegates to
// the analysis package's canonical model so the static cost oracle
// (analysis.Predict) and the measured counters agree by construction.
func flopsOf(a *ir.Assign) float64 { return analysis.FlopsOf(a) }
