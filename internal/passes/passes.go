// Package passes structures dhpf's compilation as an explicit pass
// pipeline: each stage of the paper — parsing, directive binding,
// dependence analysis, CP selection (§2), NEW propagation (§4.1),
// LOCALIZE (§4.2), selective loop distribution (§5), interprocedural CP
// selection (§6), communication planning, data-availability elimination
// (§7), write-back redundancy elimination, reduction recognition and
// SPMD lowering — is an ordered Pass over a shared CompileContext, with
// per-pass instrumentation (wall time, communication volume) and
// inter-pass invariant checks.  Ablations drop a pass by name instead of
// threading option booleans through three packages.
//
// Every pass has one body.  The per-procedure ones memoize their work in
// a cache.ArtifactStore (RunIncremental); a cold compile (Run) is the
// same run with a nil store, which stores and keeps nothing and treats
// every procedure as dirty.
package passes

import (
	"context"
	"fmt"
	"slices"
	"time"

	"dhpf/internal/analysis"
	"dhpf/internal/comm"
	"dhpf/internal/cp"
	"dhpf/internal/hpf"
	"dhpf/internal/ir"
	"dhpf/internal/parser"
	"dhpf/internal/verify"
)

// Canonical pass names, in pipeline order.
const (
	PassParse        = "parse"
	PassBind         = "bind"
	PassDependence   = "dependence"
	PassCPSelect     = "cpselect"
	PassNewProp      = "newprop"
	PassLocalize     = "localize"
	PassInterproc    = "interproc"
	PassLoopDist     = "loopdist"
	PassReductions   = "reductions"
	PassCommPlan     = "commplan"
	PassAvailability = "availability"
	PassWritebackRed = "wbelim"
	PassLower        = "lower"
	PassVerify       = "verify"
	PassAnalyze      = "analyze"
)

// Execution backends an Options.Backend may name.  The pipeline's
// analyses (partitioning, communication planning) are backend-neutral;
// the backend decides how the plans execute — as message traffic on the
// virtual message-passing machine, or as barrier phases and direct
// memory pulls on a shared-memory goroutine team (see internal/shm).
const (
	// BackendMP is the message-passing machine (mpsim); the default.
	BackendMP = "mp"
	// BackendShm is the shared-memory SPMD team: one goroutine per rank
	// of the grid, communication events become barrier/pull obligations.
	BackendShm = "shm"
	// BackendHybrid splits the grid hierarchically: ranks across the
	// first grid dimension exchange messages, threads within a rank
	// share memory.
	BackendHybrid = "hybrid"
)

// ParseBackend canonicalizes a backend name ("" = BackendMP).
func ParseBackend(s string) (string, error) {
	switch s {
	case "", BackendMP:
		return BackendMP, nil
	case BackendShm, BackendHybrid:
		return s, nil
	}
	return "", fmt.Errorf("unknown backend %q (want %s, %s or %s)", s, BackendMP, BackendShm, BackendHybrid)
}

// canonicalBackend is ParseBackend for contexts past validation: an
// unknown name (already rejected by BuildPipeline) passes through
// verbatim rather than erroring twice.
func canonicalBackend(s string) string {
	if b, err := ParseBackend(s); err == nil {
		return b
	}
	return s
}

// Options bundles the optimization switches of the whole pipeline.
type Options struct {
	CP cp.Options
	// PipelineGrain is the strip width of coarse-grain pipelining in
	// wavefront loops (iterations of the strip-mined inner loop per
	// message).  The paper notes dHPF applies one global granularity.
	PipelineGrain int

	// Backend selects the execution substrate the compiled program
	// targets: BackendMP (or "") for the message-passing machine,
	// BackendShm for the shared-memory goroutine team, BackendHybrid
	// for message ranks across the first grid dimension × shared-memory
	// threads within a rank.  Part of the fingerprint: two compilations
	// differing only in backend are distinct cache entries.
	Backend string

	// Disable lists optimization passes excluded from the pipeline by
	// name (PassNewProp, PassLocalize, PassInterproc, PassLoopDist,
	// PassAvailability, PassWritebackRed, PassVerify, PassAnalyze).  Core passes
	// cannot be disabled; unknown names are reported by BuildPipeline.
	Disable []string

	// Instrument turns on the per-pass communication-volume probe: after
	// each pass the would-be fully-vectorized transfer plan is computed
	// and recorded in the pass's Stat.  Costs roughly one communication
	// analysis per pass, so it is off by default (wall times and decision
	// summaries are always collected).
	Instrument bool
}

// DefaultOptions enables every optimization with the paper's defaults.
func DefaultOptions() Options {
	return Options{
		CP:            cp.DefaultOptions(),
		PipelineGrain: 8,
	}
}

// Disabled reports whether a pass name is in the Disable list.
func (o *Options) Disabled(name string) bool {
	for _, d := range o.Disable {
		if d == name {
			return true
		}
	}
	return false
}

// WithDisabled returns a copy of the options with the named passes added
// to the Disable list — the one-liner ablation switch.
func (o Options) WithDisabled(names ...string) Options {
	o.Disable = append(append([]string{}, o.Disable...), names...)
	return o
}

// CompileContext is the shared state the passes grow: the front half
// fills IR/Bind/Ctx, the selection passes fill Sel, the back half fills
// Comm and Reductions.  Stats accumulates one record per executed pass.
type CompileContext struct {
	// Source is the mini-HPF text to compile; ignored when IR is pre-set
	// (the caller already parsed).
	Source string
	Params map[string]int
	Opt    Options

	IR         *ir.Program
	Bind       *hpf.Binding
	Ctx        *cp.Context
	Grid       *hpf.Grid
	Sel        *cp.Selection
	Comm       map[string]*comm.Analysis
	Reductions map[string][]ReductionPlan
	// Verify holds the translation-validation report of the verify pass
	// (nil when the pass is disabled).
	Verify *verify.Report
	// Analysis holds the static-analysis result of the analyze pass —
	// symbolic loop summaries plus dataflow diagnostics (nil when the
	// pass is disabled).
	Analysis *analysis.Result

	Stats []Stat
}

// Pass is one named stage of the pipeline.
type Pass struct {
	Name string
	// Run does the work; Check verifies the inter-pass invariant the
	// pass establishes (nil when there is nothing structural to assert).
	Run   func(*CompileContext) error
	Check func(*CompileContext) error
	// Optional passes may be dropped via Options.Disable.
	Optional bool
}

// ArtifactKinds lists the per-procedure artifacts the incremental
// scheduler memoizes in the store, in pipeline order — every kind the
// store holds.  Dependence graphs are not one: a compile derives a
// procedure's only where a pass reads it (cp.Context.Deps).
func ArtifactKinds() []string {
	return []string{artifactSel, artifactComm, artifactVerify, artifactAnalyze}
}

// BuildPipeline returns the ordered pass list for the options: the full
// paper pipeline minus the disabled optional passes, bound to a fresh
// run with no artifact store — driven pass by pass (Run, then Check),
// the passes compile one program as RunCtx does.  Unknown or
// non-optional names in Disable are errors — a misspelled ablation must
// not silently run the full pipeline.
func BuildPipeline(opt Options) ([]Pass, error) {
	return (&pipelineRun{}).build(opt)
}

func (r *pipelineRun) build(opt Options) ([]Pass, error) {
	if _, err := ParseBackend(opt.Backend); err != nil {
		return nil, fmt.Errorf("passes: %w", err)
	}
	all := r.allPasses()
	for _, d := range opt.Disable {
		switch k := slices.IndexFunc(all, func(p Pass) bool { return p.Name == d }); {
		case k < 0:
			return nil, fmt.Errorf("passes: unknown pass %q in Disable (known: %s)", d, PassNames())
		case !all[k].Optional:
			return nil, fmt.Errorf("passes: pass %q is not optional and cannot be disabled", d)
		}
	}
	out := all[:0]
	for _, p := range all {
		if p.Optional && opt.Disabled(p.Name) {
			continue
		}
		out = append(out, p)
	}
	return out, nil
}

// PassNames lists every pass of the full pipeline, in order.
func PassNames() []string {
	var out []string
	for _, p := range (&pipelineRun{}).allPasses() {
		out = append(out, p.Name)
	}
	return out
}

// OptionalPassNames lists the passes Options.Disable accepts.
func OptionalPassNames() []string {
	var out []string
	for _, p := range (&pipelineRun{}).allPasses() {
		if p.Optional {
			out = append(out, p.Name)
		}
	}
	return out
}

// Run builds the pipeline for cc.Opt and executes it: each pass is
// timed, its decision summary and (with Opt.Instrument) communication
// volume recorded in cc.Stats, and its invariant check run before the
// next pass starts.
func Run(cc *CompileContext) error {
	return RunCtx(context.Background(), cc)
}

// RunCtx is Run with cancellation: the context is checked at every pass
// boundary, so a cancelled or timed-out compile aborts before the next
// pass starts and returns ctx.Err() (wrapped with the pass it stopped
// ahead of).  Passes themselves run to completion — the boundaries are
// the pipeline's consistency points, so an aborted context can never
// leave cc half-mutated by a pass.  It is RunIncrementalCtx with no
// artifact store.
func RunCtx(ctx context.Context, cc *CompileContext) error {
	_, err := RunIncrementalCtx(ctx, cc, nil)
	return err
}

// execute is the one pass loop: it builds the pipeline bound to r and
// runs it over cc, recording one Stat per pass.
func (r *pipelineRun) execute(ctx context.Context, cc *CompileContext) error {
	pipeline, err := r.build(cc.Opt)
	if err != nil {
		return err
	}
	var prev probe
	prevValid := false
	for _, p := range pipeline {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("passes: aborted before %s: %w", p.Name, err)
		}
		noteBase := 0
		if cc.Sel != nil {
			noteBase = cc.Sel.NoteCount()
		}
		start := time.Now() //vetdet:ok pass wall times are -explain telemetry, never fingerprinted
		r.cached = false
		if err := p.Run(cc); err != nil {
			return fmt.Errorf("pass %s: %w", p.Name, err)
		}
		st := Stat{Name: p.Name, Wall: time.Since(start), Cached: r.cached} //vetdet:ok telemetry
		if cc.Sel != nil {
			st.Notes = cc.Sel.NotesSince(noteBase)
		}
		st.Summary = summarize(p.Name, cc)
		if st.Summary == "" {
			st.Summary = fmt.Sprintf("%d decisions", len(st.Notes))
		}
		if cc.Opt.Instrument {
			cur, ok := measureComm(cc)
			if ok {
				st.Msgs, st.Bytes = cur.msgs, cur.bytes
				st.Measured = true
				if prevValid {
					st.DeltaBytes = cur.bytes - prev.bytes
					st.HasDelta = true
				}
				prev, prevValid = cur, true
			}
		}
		cc.Stats = append(cc.Stats, st)
		if p.Check != nil {
			if err := p.Check(cc); err != nil {
				return fmt.Errorf("pass %s: invariant violated: %w", p.Name, err)
			}
		}
	}
	return nil
}

// allPasses is the full pipeline in the order the paper's phases run,
// its per-procedure passes bound to r.
func (r *pipelineRun) allPasses() []Pass {
	return []Pass{
		{Name: PassParse, Run: runParse, Check: checkParse},
		{Name: PassBind, Run: runBind, Check: checkBind},
		{Name: PassDependence, Run: r.dependence, Check: checkDependence},
		{Name: PassCPSelect, Run: r.cpSelect, Check: checkCPSelect},
		{Name: PassNewProp, Run: r.newProp, Optional: true},
		{Name: PassLocalize, Run: r.localize, Optional: true},
		{Name: PassInterproc, Run: r.interproc, Check: checkInterproc, Optional: true},
		{Name: PassLoopDist, Run: r.beforeDistribution(runLoopDist), Check: checkLoopDist, Optional: true},
		{Name: PassReductions, Run: r.beforeDistribution(runReductions), Check: checkReductions},
		{Name: PassCommPlan, Run: r.commPlan, Check: checkCommPlan},
		{Name: PassAvailability, Run: r.eliminate(comm.ApplyAvailability), Check: checkElimReasons, Optional: true},
		{Name: PassWritebackRed, Run: r.eliminate(comm.ApplyWritebackElim), Check: checkElimReasons, Optional: true},
		{Name: PassLower, Run: r.lower, Check: checkLower},
		{Name: PassVerify, Run: r.verify, Check: checkVerify, Optional: true},
		{Name: PassAnalyze, Run: r.analyze, Check: checkAnalyze, Optional: true},
	}
}

// --- whole-program pass bodies -----------------------------------------------

func runParse(cc *CompileContext) error {
	if cc.IR != nil {
		return nil // caller supplied a parsed program
	}
	prog, err := parser.Parse(cc.Source)
	if err != nil {
		return err
	}
	cc.IR = prog
	return nil
}

func runBind(cc *CompileContext) error {
	bind, err := hpf.Bind(cc.IR, cc.Params)
	if err != nil {
		return err
	}
	cc.Bind = bind
	return nil
}

// newContext builds the CP context and fixes the processor grid.
func newContext(cc *CompileContext) error {
	ctx, err := cp.NewContext(cc.IR, cc.Bind)
	if err != nil {
		return err
	}
	grid, err := ctx.Grid()
	if err != nil {
		return err
	}
	cc.Ctx = ctx
	cc.Grid = grid
	return nil
}

// UndistributedPairError refuses a pipeline without loopdist in which CP
// selection marked a statement pair.  §5 gives such a pair no common CP
// and separates it by distributing the loop the two share; left in one
// loop, the pair computes a wrong answer the verifier does not catch.
type UndistributedPairError struct {
	Proc     string
	Src, Dst int // the pair's statement IDs
}

func (e *UndistributedPairError) Error() string {
	return fmt.Sprintf("proc %s: stmt %d and stmt %d have no common CP and only %s separates them, which is disabled",
		e.Proc, e.Src, e.Dst, PassLoopDist)
}

// refuseUndistributed returns the first marked pair, in program order, as
// an UndistributedPairError when loopdist is disabled.
func refuseUndistributed(cc *CompileContext) error {
	if !cc.Opt.Disabled(PassLoopDist) {
		return nil
	}
	for _, proc := range cc.IR.Procs {
		if pairs := cc.Sel.Marked[proc]; len(pairs) > 0 {
			return &UndistributedPairError{Proc: proc.Name, Src: pairs[0][0].ID, Dst: pairs[0][1].ID}
		}
	}
	return nil
}

// runLoopDist distributes loops.  A procedure with no marked pair is left
// alone without reading its dependences; one whose body it rewrote has
// them dropped, so the passes after it derive them from the body as it
// stands.
func runLoopDist(cc *CompileContext) error {
	for _, proc := range cc.IR.Procs {
		cp.DistributeLoops(cc.Ctx, proc, cc.Sel)
	}
	return nil
}

func runReductions(cc *CompileContext) error {
	cc.Reductions = map[string][]ReductionPlan{}
	for _, proc := range cc.IR.Procs {
		cc.Reductions[proc.Name] = planReductions(cc.Ctx, proc, cc.Sel)
	}
	return nil
}

// runLower finalizes the pipeline.  The executable/node-program forms
// are generated on demand by the spmd package from the analyses gathered
// here, so lowering's job at compile time is to validate that everything
// code generation will need is present and well-formed — its Check does
// the work.
func runLower(cc *CompileContext) error {
	if cc.Opt.PipelineGrain < 1 {
		return fmt.Errorf("PipelineGrain must be >= 1, got %d", cc.Opt.PipelineGrain)
	}
	return nil
}

// --- invariant checks --------------------------------------------------------

func checkParse(cc *CompileContext) error {
	if cc.IR == nil {
		return fmt.Errorf("no IR produced")
	}
	if len(cc.IR.Procs) == 0 {
		return fmt.Errorf("program has no procedures")
	}
	return nil
}

func checkBind(cc *CompileContext) error {
	if cc.Bind == nil {
		return fmt.Errorf("no binding produced")
	}
	return nil
}

func checkDependence(cc *CompileContext) error {
	if cc.Ctx == nil || cc.Grid == nil {
		return fmt.Errorf("no CP context or grid produced")
	}
	return nil
}

// checkCPSelect: every assignment has an explicit CP after selection.
func checkCPSelect(cc *CompileContext) error {
	for _, proc := range cc.IR.Procs {
		for _, a := range ir.Assignments(proc.Body) {
			if _, ok := cc.Sel.CPs[a.Assign.ID]; !ok {
				return fmt.Errorf("proc %s: stmt %d has no CP", proc.Name, a.Assign.ID)
			}
		}
	}
	return nil
}

// checkInterproc: every call statement has a CP and every procedure has
// an entry-CP record (possibly nil = non-uniform) after §6.
func checkInterproc(cc *CompileContext) error {
	for _, proc := range cc.IR.Procs {
		if _, ok := cc.Sel.Entry[proc.Name]; !ok {
			return fmt.Errorf("proc %s: no entry CP recorded", proc.Name)
		}
		var err error
		ir.Walk(proc.Body, func(s ir.Stmt, _ []*ir.Loop) bool {
			if call, ok := s.(*ir.CallStmt); ok {
				if _, has := cc.Sel.CPs[call.ID]; !has {
					err = fmt.Errorf("proc %s: call stmt %d has no CP", proc.Name, call.ID)
					return false
				}
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// checkLoopDist: distribution reuses statement objects, so every CP
// recorded by ID must still refer to a statement present in some body.
func checkLoopDist(cc *CompileContext) error {
	live := map[int]bool{}
	for _, proc := range cc.IR.Procs {
		ir.Walk(proc.Body, func(s ir.Stmt, _ []*ir.Loop) bool {
			switch st := s.(type) {
			case *ir.Assign:
				live[st.ID] = true
			case *ir.CallStmt:
				live[st.ID] = true
			}
			return true
		})
	}
	for _, proc := range cc.IR.Procs {
		for _, a := range ir.Assignments(proc.Body) {
			if !live[a.Assign.ID] {
				return fmt.Errorf("proc %s: stmt %d lost by distribution", proc.Name, a.Assign.ID)
			}
		}
	}
	return nil
}

// checkReductions: every recognized reduction has a supported combine
// operator (unsupported ones must have been replicated instead).
func checkReductions(cc *CompileContext) error {
	for proc, plans := range cc.Reductions {
		for _, r := range plans {
			switch r.Op {
			case '+', '<', '>':
			default:
				return fmt.Errorf("proc %s: reduction on %s has unsupported op %q", proc, r.Var, r.Op)
			}
		}
	}
	return nil
}

// checkCommPlan: every event belongs to a statement still in its
// procedure's body and carries a well-formed placement depth.
func checkCommPlan(cc *CompileContext) error {
	for _, proc := range cc.IR.Procs {
		a := cc.Comm[proc.Name]
		if a == nil {
			return fmt.Errorf("proc %s: no communication analysis", proc.Name)
		}
		inBody := map[int]bool{}
		ir.Walk(proc.Body, func(s ir.Stmt, _ []*ir.Loop) bool {
			if st, ok := s.(*ir.Assign); ok {
				inBody[st.ID] = true
			}
			return true
		})
		for _, e := range a.Events {
			if !inBody[e.Stmt.ID] {
				return fmt.Errorf("proc %s: event on stmt %d not in body", proc.Name, e.Stmt.ID)
			}
			if e.Depth < 0 || e.Depth > len(e.Nest) {
				return fmt.Errorf("proc %s: event on stmt %d has depth %d outside nest of %d",
					proc.Name, e.Stmt.ID, e.Depth, len(e.Nest))
			}
		}
	}
	return nil
}

// checkElimReasons: an eliminated event must say why (the report and the
// availability logic both rely on it).
func checkElimReasons(cc *CompileContext) error {
	for _, proc := range cc.IR.Procs {
		for _, e := range cc.Comm[proc.Name].Events {
			if e.Eliminated && e.Reason == "" {
				return fmt.Errorf("proc %s: eliminated event on stmt %d has no reason", proc.Name, e.Stmt.ID)
			}
		}
	}
	return nil
}

// checkLower: the final artifact set code generation needs.
func checkLower(cc *CompileContext) error {
	if cc.Grid == nil || cc.Sel == nil || cc.Comm == nil || cc.Reductions == nil {
		return fmt.Errorf("pipeline incomplete: grid/selection/comm/reductions missing")
	}
	return nil
}

// summarize renders a one-line decision summary for a pass from the
// context state after it ran.
func summarize(name string, cc *CompileContext) string {
	switch name {
	case PassParse:
		stmts := 0
		for _, p := range cc.IR.Procs {
			ir.Walk(p.Body, func(ir.Stmt, []*ir.Loop) bool { stmts++; return true })
		}
		return fmt.Sprintf("%d procs, %d stmts", len(cc.IR.Procs), stmts)
	case PassBind:
		return fmt.Sprintf("%d params", len(cc.Bind.Params))
	case PassDependence:
		return fmt.Sprintf("%d deps, grid %s%v", cc.Ctx.DepsHeld(), cc.Grid.Name, cc.Grid.Shape)
	case PassCPSelect:
		marked := 0
		for _, pairs := range cc.Sel.Marked {
			marked += len(pairs)
		}
		return fmt.Sprintf("%d stmt CPs, %d pairs marked", len(cc.Sel.CPs), marked)
	case PassNewProp, PassLocalize, PassInterproc, PassLoopDist:
		return "" // the per-pass Notes carry the decisions
	case PassReductions:
		n := 0
		for _, plans := range cc.Reductions {
			n += len(plans)
		}
		return fmt.Sprintf("%d reductions", n)
	case PassCommPlan:
		n := 0
		for _, a := range cc.Comm {
			n += len(a.Events)
		}
		return fmt.Sprintf("%d events", n)
	case PassAvailability, PassWritebackRed:
		return fmt.Sprintf("%d events eliminated", eliminatedCount(cc))
	case PassLower:
		return "SPMD artifacts validated"
	case PassVerify:
		if cc.Verify != nil {
			return cc.Verify.Summary()
		}
	case PassAnalyze:
		if cc.Analysis != nil {
			return cc.Analysis.Summary()
		}
	}
	return ""
}

func eliminatedCount(cc *CompileContext) int {
	n := 0
	for _, a := range cc.Comm {
		for _, e := range a.Events {
			if e.Eliminated {
				n++
			}
		}
	}
	return n
}
