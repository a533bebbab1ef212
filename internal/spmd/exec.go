package spmd

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"

	"dhpf/internal/comm"
	"dhpf/internal/cp"
	"dhpf/internal/ir"
	"dhpf/internal/iset"
	"dhpf/internal/mpsim"
	"dhpf/internal/passes"
	"dhpf/internal/shm"
)

// debugPanics prints rank panics immediately (set by tests when
// diagnosing distributed deadlocks caused by a dead rank).
var debugPanics = false

// ExecResult is the outcome of running a compiled program.
type ExecResult struct {
	// Machine carries the virtual clocks and (for the message backends)
	// the traffic counters.  Under the shared-memory backend it is
	// synthesized from the team's thread clocks — message counters hold
	// the hybrid layout's outer traffic, zero for pure shm — so callers
	// read makespan and per-rank times uniformly across backends.
	Machine *mpsim.Result
	// Shm carries the shared-memory team's own counters (pulls, pulled
	// bytes, barriers); nil under the message-passing backend.
	Shm *shm.Result
	// Kernels is the native tier's coverage of this run: units bound,
	// invocations, precheck bails by reason, native share of the flops.
	// All zero except under EngineCodegen.
	Kernels KernelStats
	prog    *Program
	ranks   []*rankExec
}

// Global assembles the authoritative global contents of an array: each
// element is taken from its owner's copy (replicated arrays come from
// rank 0).  Returns the flattened data plus the per-dimension bounds.
func (er *ExecResult) Global(name string) ([]float64, []int, []int, error) {
	decl := findDecl(er.prog.IR, name)
	if decl == nil {
		return nil, nil, nil, fmt.Errorf("spmd: unknown array %q", name)
	}
	a0 := er.ranks[0].mainFrame.arrays[name]
	if a0 == nil {
		return nil, nil, nil, fmt.Errorf("spmd: array %q not allocated in main", name)
	}
	out := newArrayLike(a0)
	layout := er.prog.Ctx.Bind.LayoutOf(name)
	if layout == nil {
		copy(out.data, a0.data)
		return out.data, out.lo, out.hi, nil
	}
	for rank := 0; rank < er.prog.Grid.Size(); rank++ {
		ra := er.ranks[rank].mainFrame.arrays[name]
		lb := layout.LocalBox(rank)
		lb.Each(func(p []int) bool {
			out.set(p, ra.get(p))
			return true
		})
	}
	return out.data, out.lo, out.hi, nil
}

// Execute runs the compiled program on the virtual machine with the
// engine named by Options.Engine ("" = the compiled closure engine).
func (p *Program) Execute(cfg mpsim.Config) (*ExecResult, error) {
	engine, err := ParseEngine(p.Opt.Engine)
	if err != nil {
		return nil, err
	}
	return p.ExecuteEngine(cfg, engine)
}

// ExecuteEngine runs the compiled program with an explicit engine
// choice.  EngineCompiled lowers procedure bodies to closure trees over
// a slot-indexed environment (engine.go) and is byte-identical to
// EngineInterp, the original tree-walking interpreter retained as the
// reference oracle.  If the engine plan cannot be built for a program,
// the interpreter runs instead.
func (p *Program) ExecuteEngine(cfg mpsim.Config, engine Engine) (*ExecResult, error) {
	if cfg.Procs != p.Grid.Size() {
		return nil, fmt.Errorf("spmd: machine has %d ranks, program wants %d", cfg.Procs, p.Grid.Size())
	}
	if b, err := passes.ParseBackend(p.Opt.Backend); err != nil {
		return nil, fmt.Errorf("spmd: %w", err)
	} else if b != passes.BackendMP {
		return p.executeShm(cfg, engine, b)
	}
	var plan *enginePlan
	if engine == EngineCompiled || engine == EngineCodegen {
		// Plan build happens once per Program, before any rank spawns;
		// the plan is immutable and shared read-only by all ranks.  A
		// build error (pathological program shape) falls back to the
		// interpreter for the whole run.
		plan, _ = p.enginePlanFor()
	}
	var kernels map[*pLoop]*boundKernel
	if engine == EngineCodegen && plan != nil {
		kernels = p.kernelBindings()
	}
	ranks := make([]*rankExec, cfg.Procs)
	var mu sync.Mutex
	var execErr error
	res := mpsim.Run(cfg, func(r *mpsim.Rank) {
		rx := &rankExec{p: p, rk: r, me: r.ID, bind: map[string]int{}, plan: plan, kernels: kernels}
		if plan != nil {
			rx.env.ints = make([]int, plan.nInts)
			rx.env.intSet = make([]bool, plan.nInts)
		}
		for k, v := range p.Ctx.Bind.Params {
			rx.bind[k] = v
			if plan != nil {
				s := plan.intSlot[k]
				rx.env.ints[s] = v
				rx.env.intSet[s] = true
			}
		}
		mu.Lock()
		ranks[r.ID] = rx
		mu.Unlock()
		defer func() {
			if rec := recover(); rec != nil {
				mu.Lock()
				if execErr == nil {
					// Machine aborts (time/wall limit) keep their typed
					// error so callers can errors.Is on ErrAborted.
					if err, ok := rec.(error); ok && errors.Is(err, mpsim.ErrAborted) {
						execErr = err
					} else {
						execErr = fmt.Errorf("spmd: rank %d: %v", r.ID, rec)
					}
				}
				if debugPanics {
					fmt.Println("SPMD-PANIC:", execErr)
				}
				mu.Unlock()
			}
		}()
		main := p.IR.Main()
		rx.runProc(main, map[string]*array{}, nil)
		rx.flushFlops()
	})
	if execErr != nil {
		return nil, execErr
	}
	return &ExecResult{Machine: res, Kernels: kernelStatsOf(len(kernels), ranks, res.RankFlops), prog: p, ranks: ranks}, nil
}

// --- array storage -----------------------------------------------------------

type array struct {
	name   string
	lo, hi []int
	stride []int
	data   []float64
}

func newArray(name string, lo, hi []int) *array {
	a := &array{name: name, lo: lo, hi: hi, stride: make([]int, len(lo))}
	size := 1
	for k := len(lo) - 1; k >= 0; k-- {
		a.stride[k] = size
		w := hi[k] - lo[k] + 1
		if w < 0 {
			w = 0
		}
		size *= w
	}
	a.data = make([]float64, size)
	return a
}

func newArrayLike(a *array) *array { return newArray(a.name, a.lo, a.hi) }

func (a *array) off(p []int) int {
	o := 0
	for k, v := range p {
		if v < a.lo[k] || v > a.hi[k] {
			panic(fmt.Sprintf("spmd: %s%v out of bounds [%v:%v]", a.name, p, a.lo, a.hi))
		}
		o += (v - a.lo[k]) * a.stride[k]
	}
	return o
}

func (a *array) get(p []int) float64    { return a.data[a.off(p)] }
func (a *array) set(p []int, v float64) { a.data[a.off(p)] = v }

func findDecl(prog *ir.Program, name string) *ir.Decl {
	for _, proc := range prog.Procs {
		if d := proc.DeclOf(name); d != nil {
			return d
		}
	}
	return nil
}

// --- per-rank execution -------------------------------------------------------

type frame struct {
	proc   *ir.Procedure
	arrays map[string]*array
	fenv   map[string]float64
	// iteration sets (this rank) per assignment/call statement id,
	// computed over the statement's full nest at procedure entry
	iters map[int]iset.Set
	vars  map[int][]string // nest variable names per statement id

	// Compiled-engine state (nil/unused under the interpreter): the
	// frame's slot views installed into the rank environment, the guards
	// and clamps derived from iters (engine_bounds.go), and the saved
	// caller views restored on frame pop.
	plan        *procPlan
	floats      []float64
	fset        []bool
	aslots      []*array
	guards      []stmtGuard
	clamps      []clampRange
	point       []int        // reusable membership buffer for guardSet
	setBoxes    [][]iset.Box // guardSet guards' boxes by guard index, for the kernel precheck
	savedFloats []float64
	savedFset   []bool
	savedArrays []*array
}

type stripCtl struct {
	variable string
	lo, hi   int
}

type rankExec struct {
	p *Program
	// Exactly one of rk and th is non-nil: the message-passing rank or
	// the shared-memory thread this executor runs on.  All machine
	// operations funnel through the helpers below (flushFlops,
	// allReduce) or through the backend branches in doTransfers and the
	// pipelined send/recv paths.
	rk        *mpsim.Rank
	th        *shm.Thread
	me        int
	bind      map[string]int // params + loop variables + integer formals
	frames    []*frame
	flops     float64
	tagSeq    int
	strip     *stripCtl
	mainFrame *frame // retained after execution for result gathering

	// Compiled-engine state (nil/zero under the interpreter).  env's
	// integer slots shadow bind — ints[slot] == bind[name], 0 when
	// unbound — except inside communication-free loops where only the
	// slot is maintained (engine.go).  payload is the reused message
	// staging buffer (mpsim.Send copies before returning).
	plan    *enginePlan
	env     engineEnv
	payload []float64

	// Native-kernel state (nil/empty except under EngineCodegen):
	// kernels maps plan loop roots to registered kernels for this
	// execution; kb/ka/khull/knarrow are reused invocation scratch
	// (kernel_invoke.go), never shared across ranks; kstats counts this
	// rank's invocations and bails, merged into ExecResult after the join.
	kernels map[*pLoop]*boundKernel
	kb      []int
	ka      [][]float64
	khull   []kiv
	knarrow []kiv
	kstats  KernelStats

	// Reused scratch for transferKey (never shared across ranks).
	keyBuf   []byte
	keyNames []string
}

func (rx *rankExec) top() *frame { return rx.frames[len(rx.frames)-1] }

func (rx *rankExec) flushFlops() {
	if rx.flops > 0 {
		if rx.th != nil {
			rx.th.Compute(rx.flops)
		} else {
			rx.rk.Compute(rx.flops)
		}
		rx.flops = 0
	}
}

// allReduce combines one value collectively on whichever substrate the
// executor runs on.  Both substrates fold contributions in rank order,
// so the result is bit-identical across backends.
func (rx *rankExec) allReduce(op byte, v float64) float64 {
	if rx.th != nil {
		return rx.th.AllReduce(op, v)
	}
	return rx.rk.AllReduce(op, v)
}

// runProc executes a procedure body in a fresh frame.  actualArrays maps
// formal array names to the caller's array objects (aliasing, like
// Fortran); intFormals were already installed into bind by the caller.
func (rx *rankExec) runProc(proc *ir.Procedure, actualArrays map[string]*array, floatFormals map[string]float64) {
	f := &frame{
		proc:   proc,
		arrays: map[string]*array{},
		fenv:   map[string]float64{},
		iters:  map[int]iset.Set{},
		vars:   map[int][]string{},
	}
	for name, a := range actualArrays {
		f.arrays[name] = a
	}
	for name, v := range floatFormals {
		f.fenv[name] = v
	}
	for _, d := range proc.Decls {
		if d.Rank() == 0 {
			continue
		}
		if _, aliased := f.arrays[d.Name]; aliased {
			continue
		}
		lo := make([]int, d.Rank())
		hi := make([]int, d.Rank())
		for k := range d.LB {
			lo[k] = d.LB[k].EvalOr(rx.bind, 0)
			hi[k] = d.UB[k].EvalOr(rx.bind, 0)
		}
		f.arrays[d.Name] = newArray(d.Name, lo, hi)
	}
	rx.frames = append(rx.frames, f)
	if rx.mainFrame == nil {
		rx.mainFrame = f
	}

	// Iteration sets for every assignment and call, on this rank, with
	// the current integer-formal binding.
	localOf := rx.p.Ctx.LocalOf(proc, rx.me)
	ir.Walk(proc.Body, func(s ir.Stmt, loops []*ir.Loop) bool {
		nest := make([]*ir.Loop, len(loops))
		copy(nest, loops)
		switch st := s.(type) {
		case *ir.Assign:
			f.iters[st.ID] = rx.p.Sel.CPOf(st.ID).IterSet(nest, rx.bind, localOf)
			f.vars[st.ID] = ir.NestVars(nest)
		case *ir.CallStmt:
			f.iters[st.ID] = rx.p.Sel.CPOf(st.ID).IterSet(nest, rx.bind, localOf)
			f.vars[st.ID] = ir.NestVars(nest)
		}
		return true
	})

	if rx.plan != nil {
		pp := rx.plan.procs[proc.Name]
		rx.pushPlanFrame(f, pp, floatFormals)
		rx.execPlanStmts(proc, pp.body)
		rx.popPlanFrame(f)
	} else {
		rx.execStmts(proc, proc.Body, 0)
	}
	rx.frames = rx.frames[:len(rx.frames)-1]
}

// execStmts interprets a statement list at the given loop depth.
func (rx *rankExec) execStmts(proc *ir.Procedure, stmts []ir.Stmt, depth int) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.Assign:
			rx.execAssign(proc, st, depth)
		case *ir.CallStmt:
			rx.execCall(proc, st, depth)
		case *ir.Loop:
			rx.execLoop(proc, st, depth)
		case *ir.IfStmt:
			if rx.evalCond(st.Cond) {
				rx.execStmts(proc, st.Then, depth)
			} else {
				rx.execStmts(proc, st.Else, depth)
			}
		}
	}
}

// evalCond evaluates a (processor-uniform) condition.
func (rx *rankExec) evalCond(c ir.Cond) bool {
	l, r := rx.eval(c.L), rx.eval(c.R)
	switch c.Op {
	case "<":
		return l < r
	case ">":
		return l > r
	case "<=":
		return l <= r
	case ">=":
		return l >= r
	case "==":
		return l == r
	case "/=":
		return l != r
	}
	panic(fmt.Sprintf("spmd: unknown comparison %q", c.Op))
}

func (rx *rankExec) execAssign(proc *ir.Procedure, a *ir.Assign, depth int) {
	f := rx.top()
	if depth == 0 {
		// Top-level statement: fire its comm events around it.
		rx.fireEvents(proc, rx.eventsAt(proc, a, comm.ReadComm), 0)
		if rx.ownsTopLevel(proc, a.ID) {
			rx.evalAndStore(proc, a)
		}
		rx.fireEvents(proc, rx.eventsAt(proc, a, comm.WriteBack), 0)
		return
	}
	// Membership: current loop point within the statement's own nest.
	vars := f.vars[a.ID]
	point := make([]int, len(vars))
	for k, v := range vars {
		point[k] = rx.bind[v]
	}
	if !f.iters[a.ID].Contains(point) {
		return
	}
	rx.evalAndStore(proc, a)
}

// ownsTopLevel guards a statement outside any loop: this rank executes
// it when the CP is replicated or when it owns the data of some ON_HOME
// term (subscripts are loop-invariant at depth 0).
func (rx *rankExec) ownsTopLevel(proc *ir.Procedure, id int) bool {
	c := rx.p.Sel.CPOf(id)
	if c.Replicated() {
		return true
	}
	for _, t := range c.Terms {
		layout := rx.p.Ctx.Layout(proc, t.Array)
		if layout == nil {
			return true
		}
		local := layout.LocalBox(rx.me)
		owns := true
		for k, sub := range t.Subs {
			if sub.IsRange {
				lo := sub.Lo.EvalOr(rx.bind, 0)
				hi := sub.Hi.EvalOr(rx.bind, 0)
				if max(lo, local.Lo[k]) > min(hi, local.Hi[k]) {
					owns = false
					break
				}
				continue
			}
			v := sub.Off.EvalOr(rx.bind, 0)
			if sub.Var != "" {
				v += sub.Coef * rx.bind[sub.Var]
			}
			if v < local.Lo[k] || v > local.Hi[k] {
				owns = false
				break
			}
		}
		if owns {
			return true
		}
	}
	return false
}

func (rx *rankExec) evalAndStore(proc *ir.Procedure, a *ir.Assign) {
	v := rx.eval(a.RHS)
	rx.flops += flopsOf(a)
	f := rx.top()
	if len(a.LHS.Subs) == 0 {
		f.fenv[a.LHS.Name] = v
		return
	}
	arr := f.arrays[a.LHS.Name]
	if arr == nil {
		panic(fmt.Sprintf("spmd: store to undeclared array %q", a.LHS.Name))
	}
	arr.set(rx.subVals(a.LHS), v)
}

func (rx *rankExec) subVals(r *ir.ArrayRef) []int {
	p := make([]int, len(r.Subs))
	for k, s := range r.Subs {
		if s.Var == "" {
			p[k] = s.Off.EvalOr(rx.bind, 0)
		} else {
			p[k] = s.Coef*rx.bind[s.Var] + s.Off.EvalOr(rx.bind, 0)
		}
	}
	return p
}

func (rx *rankExec) eval(e ir.Expr) float64 {
	switch x := e.(type) {
	case ir.FloatConst:
		return x.Val
	case ir.IndexRef:
		return float64(rx.bind[x.Name])
	case ir.ParamRef:
		return float64(rx.bind[x.Name])
	case ir.ScalarRef:
		if v, ok := rx.top().fenv[x.Name]; ok {
			return v
		}
		if v, ok := rx.bind[x.Name]; ok {
			return float64(v) // integer formal read as a value
		}
		return 0
	case *ir.ArrayRef:
		arr := rx.top().arrays[x.Name]
		if arr == nil {
			panic(fmt.Sprintf("spmd: read of undeclared array %q", x.Name))
		}
		return arr.get(rx.subVals(x))
	case *ir.Bin:
		l, r := rx.eval(x.L), rx.eval(x.R)
		switch x.Op {
		case '+':
			return l + r
		case '-':
			return l - r
		case '*':
			return l * r
		case '/':
			return l / r
		}
	case *ir.Intrinsic:
		args := make([]float64, len(x.Args))
		for i, a := range x.Args {
			args[i] = rx.eval(a)
		}
		switch x.Name {
		case "sqrt":
			return math.Sqrt(args[0])
		case "exp":
			return math.Exp(args[0])
		case "sin":
			return math.Sin(args[0])
		case "cos":
			return math.Cos(args[0])
		case "log":
			return math.Log(args[0])
		case "abs":
			return math.Abs(args[0])
		case "min":
			return math.Min(args[0], args[1])
		case "max":
			return math.Max(args[0], args[1])
		case "mod":
			return math.Mod(args[0], args[1])
		case "pow":
			return math.Pow(args[0], args[1])
		}
	}
	panic(fmt.Sprintf("spmd: cannot evaluate %v", e))
}

func (rx *rankExec) execCall(proc *ir.Procedure, call *ir.CallStmt, depth int) {
	f := rx.top()
	// Membership like an assignment.
	if depth == 0 {
		if !rx.ownsTopLevel(proc, call.ID) {
			return
		}
	} else {
		vars := f.vars[call.ID]
		point := make([]int, len(vars))
		for k, v := range vars {
			point[k] = rx.bind[v]
		}
		if !f.iters[call.ID].Contains(point) {
			return
		}
	}
	_ = f
	callee := rx.p.IR.Proc(call.Callee)
	actualArrays := map[string]*array{}
	floatFormals := map[string]float64{}
	var savedInts []struct {
		name string
		val  int
		had  bool
	}
	for k, formal := range callee.Formals {
		switch arg := call.Args[k].(type) {
		case *ir.ArrayRef:
			if len(arg.Subs) == 0 {
				actualArrays[formal] = f.arrays[arg.Name]
				continue
			}
			floatFormals[formal] = rx.eval(arg)
		case ir.IndexRef, ir.ParamRef:
			old, had := rx.bind[formal]
			savedInts = append(savedInts, struct {
				name string
				val  int
				had  bool
			}{formal, old, had})
			rx.bind[formal] = int(rx.eval(arg))
		case ir.FloatConst:
			if float64(int(arg.Val)) == arg.Val {
				old, had := rx.bind[formal]
				savedInts = append(savedInts, struct {
					name string
					val  int
					had  bool
				}{formal, old, had})
				rx.bind[formal] = int(arg.Val)
			} else {
				floatFormals[formal] = arg.Val
			}
		default:
			floatFormals[formal] = rx.eval(arg)
		}
	}
	rx.runProc(callee, actualArrays, floatFormals)
	for i := len(savedInts) - 1; i >= 0; i-- {
		s := savedInts[i]
		if s.had {
			rx.bind[s.name] = s.val
		} else {
			delete(rx.bind, s.name)
		}
	}
}

func (rx *rankExec) execLoop(proc *ir.Procedure, l *ir.Loop, depth int) {
	// Fire hoisted read events placed at this loop boundary.
	rx.fireEvents(proc, rx.eventsBeforeLoop(proc, l, depth, comm.ReadComm), depth)

	// Record initial values of reduction variables finalized here.
	plans := rx.reductionsAt(proc, l)
	s0 := make([]float64, len(plans))
	for i, p := range plans {
		s0[i] = rx.top().fenv[p.Var]
	}

	if pipe := rx.pipelinedEvents(proc, l); len(pipe) > 0 {
		rx.execPipelined(proc, l, depth, pipe, func() { rx.iterateLoop(proc, l, depth) })
	} else {
		rx.iterateLoop(proc, l, depth)
	}

	// Combine reduction partials collectively.
	for i, p := range plans {
		rx.flushFlops()
		v := rx.top().fenv[p.Var]
		switch p.Op {
		case '+':
			rx.top().fenv[p.Var] = s0[i] + rx.allReduce('+', v-s0[i])
		default: // '<' min, '>' max: every rank's partial includes s0
			rx.top().fenv[p.Var] = rx.allReduce(p.Op, v)
		}
	}

	// Deferred write-backs placed at this boundary.
	rx.fireEvents(proc, rx.eventsBeforeLoop(proc, l, depth, comm.WriteBack), depth)
}

// reductionsAt returns the reduction plans finalized at this loop.
func (rx *rankExec) reductionsAt(proc *ir.Procedure, l *ir.Loop) []ReductionPlan {
	var out []ReductionPlan
	for _, p := range rx.p.Reductions[proc.Name] {
		if p.Loop == l {
			out = append(out, p)
		}
	}
	return out
}

// iterateLoop runs the loop's range (restricted by an active strip when
// the loop is the strip loop).
func (rx *rankExec) iterateLoop(proc *ir.Procedure, l *ir.Loop, depth int) {
	lo := l.Lo.EvalOr(rx.bind, 0)
	hi := l.Hi.EvalOr(rx.bind, 0)
	if rx.strip != nil && rx.strip.variable == l.Var {
		if l.Step > 0 {
			lo, hi = max(lo, rx.strip.lo), min(hi, rx.strip.hi)
		} else {
			lo, hi = min(lo, rx.strip.hi), max(hi, rx.strip.lo)
		}
	}
	old, had := rx.bind[l.Var]
	if l.Step > 0 {
		for v := lo; v <= hi; v++ {
			rx.bind[l.Var] = v
			rx.execStmts(proc, l.Body, depth+1)
		}
	} else {
		for v := lo; v >= hi; v-- {
			rx.bind[l.Var] = v
			rx.execStmts(proc, l.Body, depth+1)
		}
	}
	if had {
		rx.bind[l.Var] = old
	} else {
		delete(rx.bind, l.Var)
	}
}

// --- event firing -------------------------------------------------------------

// eventsBeforeLoop selects the analysis events anchored at loop l at the
// given depth (their statements sit inside l, their placement hoists them
// exactly to l's boundary) that are live and not pipelined.
func (rx *rankExec) eventsBeforeLoop(proc *ir.Procedure, l *ir.Loop, depth int, kind comm.Kind) []*comm.Event {
	an := rx.p.Comm[proc.Name]
	var out []*comm.Event
	for _, e := range an.Events {
		if e.Kind != kind || e.Eliminated || e.Pipelined {
			continue
		}
		d := min(e.Depth, len(e.Nest)-1)
		if d < 0 {
			continue
		}
		if d == depth && e.Nest[d] == l {
			out = append(out, e)
		}
	}
	return out
}

// eventsAt selects events for a specific top-level statement.
func (rx *rankExec) eventsAt(proc *ir.Procedure, stmt *ir.Assign, kind comm.Kind) []*comm.Event {
	an := rx.p.Comm[proc.Name]
	var out []*comm.Event
	for _, e := range an.Events {
		if e.Kind != kind || e.Eliminated || e.Pipelined {
			continue
		}
		if e.Stmt == stmt && len(e.Nest) == 0 {
			out = append(out, e)
		}
	}
	return out
}

// fireEvents computes the transfers the events require under the current
// outer-loop binding and performs them (sends first, then receives —
// sends are buffered so this cannot deadlock).
func (rx *rankExec) fireEvents(proc *ir.Procedure, events []*comm.Event, depth int) {
	if len(events) == 0 {
		return
	}
	transfers := rx.transfersFor(proc, events, depth, nil)
	rx.doTransfers(proc, transfers)
}

// transferKey renders every input of a transfer plan into a memo key:
// the procedure, the call depth, each event's identity (statement, kind,
// full reference text, nest length — together these determine the
// event's sets), the strip window, and the entire scalar binding (a
// superset of the values the set algebra can read, so equal keys imply
// equal plans even if some bound scalar never occurs in a subscript).
func (rx *rankExec) transferKey(proc *ir.Procedure, events []*comm.Event, depth int, strip *stripCtl) string {
	b := rx.keyBuf[:0]
	b = append(b, proc.Name...)
	b = strconv.AppendInt(b, int64(depth), 10)
	for _, e := range events {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(e.Stmt.ID), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(e.Kind), 10)
		b = append(b, e.Ref.String()...)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(len(e.Nest)), 10)
	}
	if strip != nil {
		b = append(b, '#')
		b = append(b, strip.variable...)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(strip.lo), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(strip.hi), 10)
	}
	names := rx.keyNames[:0]
	for name := range rx.bind {
		names = append(names, name)
	}
	sort.Strings(names)
	rx.keyNames = names
	for _, name := range names {
		b = append(b, ';')
		b = append(b, name...)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(rx.bind[name]), 10)
	}
	rx.keyBuf = b
	return string(b)
}

// transfersFor computes the coalesced point-to-point transfers satisfying
// the events, restricted to the current values of the outermost `depth`
// loop variables and to an optional strip window.  Every rank computes
// the identical list (the plan depends only on sets), which keeps message
// tags consistent — so the plan is memoized on the Program and computed
// once per distinct key across all ranks and executions.
func (rx *rankExec) transfersFor(proc *ir.Procedure, events []*comm.Event, depth int, strip *stripCtl) []comm.Transfer {
	memoKey := rx.transferKey(proc, events, depth, strip)
	if cached, ok := rx.p.tplans.Load(memoKey); ok {
		return cached.([]comm.Transfer)
	}
	out := rx.computeTransfers(proc, events, depth, strip)
	rx.p.tplans.Store(memoKey, out)
	return out
}

func (rx *rankExec) computeTransfers(proc *ir.Procedure, events []*comm.Event, depth int, strip *stripCtl) []comm.Transfer {
	type key struct {
		array    string
		from, to int
	}
	acc := map[key]iset.Set{}
	var order []key
	grid := rx.p.Grid
	for _, e := range events {
		layout := rx.p.Ctx.Layout(proc, e.Ref.Name)
		if layout == nil {
			continue
		}
		vars := ir.NestVars(e.Nest)
		for t := 0; t < grid.Size(); t++ {
			iters := rx.p.Sel.CPOf(e.Stmt.ID).IterSet(e.Nest, rx.bind, rx.p.Ctx.LocalOf(proc, t))
			// Fix the outer loop dimensions at their current values.
			for k := 0; k < depth && k < len(vars); k++ {
				v := rx.bind[vars[k]]
				iters = iters.ClampDim(k, v, v)
			}
			if strip != nil {
				for k, v := range vars {
					if v == strip.variable {
						iters = iters.ClampDim(k, strip.lo, strip.hi)
					}
				}
			}
			if iters.IsEmpty() {
				continue
			}
			data := cp.RefDataSet(e.Ref, vars, iters, rx.bind)
			data = data.IntersectBox(layout.Space())
			nl := data.SubtractBox(layout.LocalBox(t))
			if nl.IsEmpty() {
				continue
			}
			for peer := 0; peer < grid.Size(); peer++ {
				if peer == t {
					continue
				}
				part := nl.IntersectBox(layout.LocalBox(peer))
				if part.IsEmpty() {
					continue
				}
				var k key
				if e.Kind == comm.ReadComm {
					k = key{array: e.Ref.Name, from: peer, to: t}
				} else {
					k = key{array: e.Ref.Name, from: t, to: peer}
				}
				if _, seen := acc[k]; !seen {
					order = append(order, k)
				}
				acc[k] = acc[k].Union(part)
			}
		}
	}
	out := make([]comm.Transfer, 0, len(order))
	for _, k := range order {
		out = append(out, comm.Transfer{Array: k.array, From: k.from, To: k.to, Data: acc[k]})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Array != b.Array {
			return a.Array < b.Array
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return out
}

// doTransfers performs a transfer plan: this rank sends every message it
// sources, then receives every message targeting it.  Tags derive from a
// per-rank sequence counter that advances identically on all ranks.
//
// Under the shared-memory backend the same plan runs with no message
// traffic: the rank publishes a rendezvous token per outgoing transfer
// (pointing at its own array storage), pulls every incoming transfer
// directly from the producer's array, and drains its published tokens
// before returning so no later write can race a lagging consumer.
// Direct pulls are safe because within a one-kind plan the regions a
// rank sources and the regions it receives are disjoint: read-comm
// sources lie inside the owner's local box and targets outside the
// reader's; write-backs are the mirror image.
func (rx *rankExec) doTransfers(proc *ir.Procedure, transfers []comm.Transfer) {
	if len(transfers) == 0 {
		return
	}
	rx.flushFlops()
	base := rx.tagSeq * 8192
	rx.tagSeq++
	f := rx.top()
	if rx.th != nil {
		for i, tr := range transfers {
			if tr.From != rx.me {
				continue
			}
			rx.th.Publish(tr.To, base+i, 8*int(tr.Data.Card()), f.arrays[tr.Array])
		}
		for i, tr := range transfers {
			if tr.To != rx.me {
				continue
			}
			src := rx.th.Await(tr.From, base+i).(*array)
			pullPayload(f.arrays[tr.Array], src, tr.Data)
			rx.th.Ack(tr.From, 8*int(tr.Data.Card()))
		}
		rx.th.Drain()
		return
	}
	for i, tr := range transfers {
		if tr.From != rx.me {
			continue
		}
		rx.payload = packPayload(rx.payload[:0], f.arrays[tr.Array], tr.Data)
		rx.rk.Send(tr.To, base+i, rx.payload)
	}
	for i, tr := range transfers {
		if tr.To != rx.me {
			continue
		}
		data := rx.rk.Recv(tr.From, base+i)
		unpackPayload(data, f.arrays[tr.Array], tr.Data)
		rx.rk.Recycle(data)
	}
}

// --- pipelined (wavefront) execution -------------------------------------------

// pipelinedEvents returns the live pipelined events carried by loop l.
func (rx *rankExec) pipelinedEvents(proc *ir.Procedure, l *ir.Loop) []*comm.Event {
	an := rx.p.Comm[proc.Name]
	var out []*comm.Event
	for _, e := range an.Events {
		if e.Pipelined && !e.Eliminated && e.CarriedBy == l {
			out = append(out, e)
		}
	}
	return out
}

// execPipelined runs a wavefront nest with coarse-grain pipelining: the
// innermost loop below the carrier is strip-mined with the configured
// grain; each strip receives its incoming boundary data, computes, and
// forwards its outgoing boundary data (SC'98 §2, §8.1).
//
// A pipelined loop nested inside another pipelined loop's strip (the
// 2-D diagonal wavefront of LU-class codes) does not re-strip: it runs
// block-serialized within the enclosing strip, exchanging its boundary
// restricted to that strip.
// The loop body itself runs through the iterate callback, so both the
// interpreter (iterateLoop) and the compiled engine (iteratePlanLoop)
// share this strip/chunk/tag protocol unchanged.
func (rx *rankExec) execPipelined(proc *ir.Procedure, l *ir.Loop, depth int, events []*comm.Event, iterate func()) {
	if rx.strip != nil {
		// Nested wavefront inside an enclosing pipeline strip.
		plan := rx.transfersFor(proc, events, depth, rx.strip)
		base := rx.recvMineTagged(plan)
		iterate()
		rx.sendMineTagged(plan, base)
		rx.drainPipeline()
		return
	}
	strip := rx.chooseStrip(l, events)
	if strip == nil {
		// No strip loop: block-serialized wavefront (granularity = whole
		// block).
		plan := rx.transfersFor(proc, events, depth, nil)
		base := rx.recvMineTagged(plan)
		iterate()
		rx.sendMineTagged(plan, base)
		rx.drainPipeline()
		return
	}
	lo := strip.Lo.EvalOr(rx.bind, 0)
	hi := strip.Hi.EvalOr(rx.bind, 0)
	if lo > hi {
		lo, hi = hi, lo
	}
	g := rx.p.Opt.PipelineGrain
	if g <= 0 {
		g = hi - lo + 1
	}
	for s := lo; s <= hi; s += g {
		chunk := &stripCtl{variable: strip.Var, lo: s, hi: min(s+g-1, hi)}
		plan := rx.transfersFor(proc, events, depth, chunk)
		base := rx.recvMineTagged(plan)
		rx.strip = chunk
		iterate()
		rx.strip = nil
		rx.sendMineTagged(plan, base)
	}
	rx.drainPipeline()
}

// drainPipeline is the shared-memory backend's end-of-wavefront
// obligation: block until every strip this rank published has been
// pulled by its consumer, so statements after the loop cannot overwrite
// boundary rows a neighbour is still reading.  The drain sits outside
// the strip loop — the pipeline itself stays fully overlapped — and is
// a no-op on the message-passing backend (Send copied the data).
func (rx *rankExec) drainPipeline() {
	if rx.th != nil {
		rx.th.Drain()
	}
}

// chooseStrip picks the strip-mining loop: the innermost loop enclosing
// the pipelined statements that is not the carrier itself.
func (rx *rankExec) chooseStrip(l *ir.Loop, events []*comm.Event) *ir.Loop {
	for _, e := range events {
		nest := e.Nest
		for i := len(nest) - 1; i >= 0; i-- {
			if nest[i] != l {
				return nest[i]
			}
		}
	}
	return nil
}

// recvMineTagged allocates the next tag block (identically on every
// rank), receives this rank's incoming transfers, and returns the block
// base for the matching sendMineTagged.  Under the shared-memory
// backend the receive is a rendezvous-then-pull: await the producer's
// token, copy straight from its array, acknowledge.  The producer
// published after computing the strip, so the pulled region is final
// for the duration of the loop (a strip is written once); its later
// overwrites wait in Drain at the end of execPipelined.
func (rx *rankExec) recvMineTagged(plan []comm.Transfer) int {
	rx.flushFlops()
	base := rx.tagSeq * 8192
	rx.tagSeq++
	f := rx.top()
	for i, tr := range plan {
		if tr.To != rx.me {
			continue
		}
		if rx.th != nil {
			src := rx.th.Await(tr.From, base+i).(*array)
			pullPayload(f.arrays[tr.Array], src, tr.Data)
			rx.th.Ack(tr.From, 8*int(tr.Data.Card()))
			continue
		}
		data := rx.rk.Recv(tr.From, base+i)
		unpackPayload(data, f.arrays[tr.Array], tr.Data)
		rx.rk.Recycle(data)
	}
	return base
}

func (rx *rankExec) sendMineTagged(plan []comm.Transfer, base int) {
	rx.flushFlops()
	f := rx.top()
	for i, tr := range plan {
		if tr.From != rx.me {
			continue
		}
		if rx.th != nil {
			rx.th.Publish(tr.To, base+i, 8*int(tr.Data.Card()), f.arrays[tr.Array])
			continue
		}
		rx.payload = packPayload(rx.payload[:0], f.arrays[tr.Array], tr.Data)
		rx.rk.Send(tr.To, base+i, rx.payload)
	}
}
