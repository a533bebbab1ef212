package spmd

// engine.go is the compile-once/run-many execution engine: it lowers a
// compiled Program's procedure bodies into closure trees over a
// slot-indexed environment, so the per-iteration-point work of Execute
// carries no map lookups, no slice allocations, and no interface
// dispatch.  The interpreter (the schedule walker with exec.go's
// evaluating ops) remains the reference oracle
// (Program.ExecuteEngine(cfg, EngineInterp)); the
// engine's results are byte-identical to it — same array contents, same
// virtual clocks, same message counts and bytes — because it performs
// the exact same floating-point operations, flop accounting, guard
// decisions, and communication calls in the exact same order: placement
// is read from the same rank schedule (internal/sched) at plan build,
// and firing, pipelining, procedure entry and integer-formal binding go
// through the same walker code at run time.  The plan tree stays
// compiled rather than walked because it is the fast path.  Only
// provably result-free work is removed:
//
//   - name → value resolution moves from per-point map lookups to
//     integer slots assigned once per Program (engineEnv);
//   - the per-point membership test against a statement's iteration set
//     becomes per-dimension bounds comparisons when the set is a single
//     box (iset.Set.AsBox), with loop ranges additionally clamped to the
//     union of member boxes for communication-free innermost loops
//     (engine_bounds.go);
//   - message payloads are packed/unpacked with bulk row copies into a
//     reused staging buffer instead of element-at-a-time gather/scatter
//     (engine_pack.go).
//
// Plan construction is total and conservative: any construct whose
// runtime behaviour the plan cannot reproduce exactly (a malformed call,
// a missing communication analysis) fails the build, and ExecuteEngine
// falls back to the interpreter for the whole run.

import (
	"fmt"
	"math"
	"sort"

	"dhpf/internal/comm"
	"dhpf/internal/ir"
	"dhpf/internal/sched"
)

// Engine selects Program.Execute's execution strategy.
type Engine int

const (
	// EngineCompiled is the closure-compiled engine (the default).
	EngineCompiled Engine = iota
	// EngineInterp is the original tree-walking interpreter, retained as
	// the reference oracle for differential testing.
	EngineInterp
	// EngineCodegen runs the closure engine with registered native
	// kernels (internal/codegen) replacing eligible loop nests; any nest
	// without a registered, precheck-passing kernel falls through to the
	// closures, so with an empty registry EngineCodegen ≡ EngineCompiled.
	EngineCodegen
)

func (e Engine) String() string {
	switch e {
	case EngineCompiled:
		return "compiled"
	case EngineInterp:
		return "interp"
	case EngineCodegen:
		return "codegen"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine parses an engine name as used by dhpfc -engine and the
// service's run request field.  The empty string selects the default.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "compiled":
		return EngineCompiled, nil
	case "interp":
		return EngineInterp, nil
	case "codegen":
		return EngineCodegen, nil
	}
	return 0, fmt.Errorf("spmd: unknown engine %q (want compiled, interp or codegen)", s)
}

// --- slot-indexed environment --------------------------------------------------

// engineEnv is the flat runtime environment compiled closures read and
// write.  Integer state (params, loop variables, integer formals) is
// program-global, mirroring the interpreter's shared bind map; float
// scalars and array bindings are per-frame views swapped on procedure
// entry/exit.  Invariant: ints[s] equals the interpreter's bind[name]
// when the name is bound and 0 when it is not (intSet tracks presence),
// so compiled affine evaluation matches AffExpr.EvalOr(bind, 0) exactly.
type engineEnv struct {
	ints   []int
	intSet []bool
	floats []float64 // current frame's scalar slots
	fset   []bool    // current frame's scalar presence (the fenv map's "ok")
	arrays []*array  // current frame's array slots
}

type (
	evalFn  func(*engineEnv) float64
	intFn   func(*engineEnv) int
	storeFn func(*engineEnv, float64)
	condFn  func(*engineEnv) bool
)

// --- plan representation -------------------------------------------------------

// enginePlan is the once-per-Program compiled form shared (read-only) by
// all ranks of all executions.
type enginePlan struct {
	nInts   int
	intSlot map[string]int
	procs   map[string]*procPlan
}

// procPlan is one procedure's compiled body plus its slot tables.
type procPlan struct {
	proc      *ir.Procedure
	nFloats   int
	floatSlot map[string]int
	nArrays   int
	arraySlot map[string]int
	body      []planStmt
	// guardStmts maps dense guard indices to the statement identity the
	// per-frame guard is derived from (engine_bounds.go).
	guardStmts []guardedStmt
	// clamps lists, per clampable loop, the guard indices whose boxes
	// bound the loop's useful range at the loop's nest position.
	clamps  []clampSpec
	maxNest int
}

type guardedStmt struct {
	id        int
	nestSlots []int
}

type clampSpec struct {
	pos     int   // the loop's index in each member's nest
	members []int // guard indices of all statements under the loop
}

type planStmt interface{ planStmtNode() }

type pAssign struct {
	a           *ir.Assign
	depth       int
	guardIdx    int // -1 at depth 0
	nestSlots   []int
	rhs         evalFn
	store       storeFn
	flops       float64
	readEvents  []*comm.Event // depth-0 statements only
	writeEvents []*comm.Event
}

type pCall struct {
	call      *ir.CallStmt
	callee    *ir.Procedure
	depth     int
	guardIdx  int // -1 at depth 0
	nestSlots []int
	args      []planArg
}

type planArg struct {
	kind    sched.ArgKind
	formal  string
	slot    int    // int slot of formal (ArgInt)
	srcName string // caller array name (ArgAlias)
	fn      evalFn // ArgInt / ArgFloat
}

type pLoop struct {
	l        *ir.Loop
	depth    int
	varSlot  int
	lo, hi   intFn
	body     []planStmt
	pure     bool // no calls/loops/comm inside: loop vars live in slots only
	clampIdx int  // index into frame.clamps, -1 when not clampable
	ls       *sched.LoopSched
	reds     []redSlot // ls.Reds resolved to float slots
}

type redSlot struct {
	op    byte
	fslot int
}

type pIf struct {
	cond ir.Cond
	fn   condFn
	then []planStmt
	els  []planStmt
}

func (*pAssign) planStmtNode() {}
func (*pCall) planStmtNode()   {}
func (*pLoop) planStmtNode()   {}
func (*pIf) planStmtNode()     {}

// --- plan construction ---------------------------------------------------------

// enginePlanFor returns the Program's compiled plan, building it once.
// A nil plan with a nil error never occurs; build failures surface as an
// error and the caller falls back to the interpreter.
func (p *Program) enginePlanFor() (*enginePlan, error) {
	p.engOnce.Do(func() {
		p.eng, p.engErr = buildEnginePlan(p)
	})
	return p.eng, p.engErr
}

func buildEnginePlan(p *Program) (*enginePlan, error) {
	if p.IR == nil || p.IR.Main() == nil {
		return nil, fmt.Errorf("spmd: engine: program has no procedures")
	}
	ep := &enginePlan{intSlot: map[string]int{}, procs: map[string]*procPlan{}}
	// Parameters claim their global slots first so Execute can install
	// them without consulting per-procedure tables.  Sorted: slot
	// numbers feed kernel-unit fingerprints and the emitted native
	// code, so allocation order must not depend on map iteration.
	if p.Ctx != nil && p.Ctx.Bind != nil {
		names := make([]string, 0, len(p.Ctx.Bind.Params))
		for name := range p.Ctx.Bind.Params {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ep.islot(name)
		}
	}
	for _, proc := range p.IR.Procs {
		if p.Comm[proc.Name] == nil {
			return nil, fmt.Errorf("spmd: engine: no communication analysis for %q", proc.Name)
		}
		c := &planCompiler{p: p, ep: ep, proc: proc, ps: p.Schedule().Proc(proc), pp: &procPlan{
			proc:      proc,
			floatSlot: map[string]int{},
			arraySlot: map[string]int{},
		}}
		// Formals may be bound as arrays, integers or floats depending on
		// the call site; give every formal all three identities up front.
		for _, formal := range proc.Formals {
			ep.islot(formal)
			c.fslot(formal)
			c.aslot(formal)
		}
		for _, d := range proc.Decls {
			if d.Rank() > 0 {
				c.aslot(d.Name)
			} else {
				c.fslot(d.Name)
			}
		}
		body, err := c.compileStmts(proc.Body, 0, nil)
		if err != nil {
			return nil, err
		}
		c.pp.body = body
		ep.procs[proc.Name] = c.pp
	}
	return ep, nil
}

func (ep *enginePlan) islot(name string) int {
	if s, ok := ep.intSlot[name]; ok {
		return s
	}
	s := ep.nInts
	ep.intSlot[name] = s
	ep.nInts++
	return s
}

// planCompiler compiles one procedure's body.
type planCompiler struct {
	p    *Program
	ep   *enginePlan
	proc *ir.Procedure
	ps   *sched.ProcSched
	pp   *procPlan
}

func (c *planCompiler) fslot(name string) int {
	if s, ok := c.pp.floatSlot[name]; ok {
		return s
	}
	s := c.pp.nFloats
	c.pp.floatSlot[name] = s
	c.pp.nFloats++
	return s
}

func (c *planCompiler) aslot(name string) int {
	if s, ok := c.pp.arraySlot[name]; ok {
		return s
	}
	s := c.pp.nArrays
	c.pp.arraySlot[name] = s
	c.pp.nArrays++
	return s
}

func (c *planCompiler) nestSlots(nest []*ir.Loop) []int {
	vars := ir.NestVars(nest)
	out := make([]int, len(vars))
	for i, v := range vars {
		out[i] = c.ep.islot(v)
	}
	if len(out) > c.pp.maxNest {
		c.pp.maxNest = len(out)
	}
	return out
}

func (c *planCompiler) newGuard(id int, nestSlots []int) int {
	idx := len(c.pp.guardStmts)
	c.pp.guardStmts = append(c.pp.guardStmts, guardedStmt{id: id, nestSlots: nestSlots})
	return idx
}

func (c *planCompiler) compileStmts(stmts []ir.Stmt, depth int, nest []*ir.Loop) ([]planStmt, error) {
	var out []planStmt
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.Assign:
			ps, err := c.compileAssign(st, depth, nest)
			if err != nil {
				return nil, err
			}
			out = append(out, ps)
		case *ir.CallStmt:
			ps, err := c.compileCall(st, depth, nest)
			if err != nil {
				return nil, err
			}
			out = append(out, ps)
		case *ir.Loop:
			ps, err := c.compileLoop(st, depth, nest)
			if err != nil {
				return nil, err
			}
			out = append(out, ps)
		case *ir.IfStmt:
			then, err := c.compileStmts(st.Then, depth, nest)
			if err != nil {
				return nil, err
			}
			els, err := c.compileStmts(st.Else, depth, nest)
			if err != nil {
				return nil, err
			}
			out = append(out, &pIf{cond: st.Cond, fn: c.compileCond(st.Cond), then: then, els: els})
			// Other statement kinds are ignored, as in execStmts.
		}
	}
	return out, nil
}

func (c *planCompiler) compileAssign(a *ir.Assign, depth int, nest []*ir.Loop) (*pAssign, error) {
	ps := &pAssign{
		a:        a,
		depth:    depth,
		guardIdx: -1,
		rhs:      c.compileExpr(a.RHS),
		store:    c.compileStore(a.LHS),
		flops:    flopsOf(a),
	}
	if depth == 0 {
		ps.readEvents, ps.writeEvents = c.ps.Top[a].Reads, c.ps.Top[a].Writes
	} else {
		ps.nestSlots = c.nestSlots(nest)
		ps.guardIdx = c.newGuard(a.ID, ps.nestSlots)
	}
	return ps, nil
}

func (c *planCompiler) compileCall(call *ir.CallStmt, depth int, nest []*ir.Loop) (*pCall, error) {
	callee := c.p.IR.Proc(call.Callee)
	if callee == nil {
		return nil, fmt.Errorf("spmd: engine: call to undefined procedure %q", call.Callee)
	}
	if len(call.Args) != len(callee.Formals) {
		return nil, fmt.Errorf("spmd: engine: call to %q has %d args for %d formals",
			call.Callee, len(call.Args), len(callee.Formals))
	}
	ps := &pCall{call: call, callee: callee, depth: depth, guardIdx: -1}
	if depth > 0 {
		ps.nestSlots = c.nestSlots(nest)
		ps.guardIdx = c.newGuard(call.ID, ps.nestSlots)
	}
	for k, formal := range callee.Formals {
		arg := call.Args[k]
		pa := planArg{kind: sched.ClassifyArg(arg), formal: formal}
		switch pa.kind {
		case sched.ArgAlias:
			pa.srcName = arg.(*ir.ArrayRef).Name
		case sched.ArgInt:
			pa.slot = c.ep.islot(formal)
			pa.fn = c.compileExpr(arg)
		default:
			pa.fn = c.compileExpr(arg)
		}
		ps.args = append(ps.args, pa)
	}
	return ps, nil
}

func (c *planCompiler) compileLoop(l *ir.Loop, depth int, nest []*ir.Loop) (*pLoop, error) {
	body, err := c.compileStmts(l.Body, depth+1, append(nest, l))
	if err != nil {
		return nil, err
	}
	pl := &pLoop{
		l:        l,
		depth:    depth,
		varSlot:  c.ep.islot(l.Var),
		lo:       c.compileAff(l.Lo),
		hi:       c.compileAff(l.Hi),
		body:     body,
		clampIdx: -1,
		ls:       c.ps.Loops[l],
	}
	for _, r := range pl.ls.Reds {
		pl.reds = append(pl.reds, redSlot{op: r.Op, fslot: c.fslot(r.Var)})
	}
	// A loop whose body holds only (possibly if-guarded) assignments has
	// no communication boundaries, calls or bind-map readers inside: its
	// variable can live in slots alone.  If additionally every if
	// condition in the body is panic-free, skipped iterations are fully
	// unobservable, so the range can be clamped to the union of the
	// statements' iteration boxes (engine_bounds.go).
	if members, pureOK, clampOK := pureMembers(body); pureOK {
		pl.pure = true
		if clampOK {
			pl.clampIdx = len(c.pp.clamps)
			c.pp.clamps = append(c.pp.clamps, clampSpec{pos: depth, members: members})
		}
	}
	return pl, nil
}

// pureMembers reports whether the compiled body contains only assigns
// and ifs (recursively), returning the guard indices of every assign.
// The third result additionally requires every if condition to be
// panic-free: the interpreter evaluates conditions even on iterations
// whose statements are all guarded out, so clamping such iterations away
// is only sound when that evaluation cannot be observed.
func pureMembers(body []planStmt) (members []int, pure, clampOK bool) {
	members, clampOK = nil, true
	for _, s := range body {
		switch st := s.(type) {
		case *pAssign:
			members = append(members, st.guardIdx)
		case *pIf:
			if !condPanicFree(st.cond) {
				clampOK = false
			}
			a, ok, aClamp := pureMembers(st.then)
			if !ok {
				return nil, false, false
			}
			b, ok, bClamp := pureMembers(st.els)
			if !ok {
				return nil, false, false
			}
			clampOK = clampOK && aClamp && bClamp
			members = append(members, a...)
			members = append(members, b...)
		default:
			return nil, false, false
		}
	}
	return members, true, clampOK
}

func condPanicFree(c ir.Cond) bool {
	switch c.Op {
	case "<", ">", "<=", ">=", "==", "/=":
		return exprPanicFree(c.L) && exprPanicFree(c.R)
	}
	return false
}

// exprPanicFree reports whether evaluating the expression can never
// panic: no array reads (bounds), no non-canonical intrinsic arities, no
// unknown node kinds.
func exprPanicFree(e ir.Expr) bool {
	switch x := e.(type) {
	case ir.FloatConst, ir.IndexRef, ir.ParamRef, ir.ScalarRef:
		return true
	case *ir.Bin:
		switch x.Op {
		case '+', '-', '*', '/':
			return exprPanicFree(x.L) && exprPanicFree(x.R)
		}
		return false
	case *ir.Intrinsic:
		switch x.Name {
		case "sqrt", "exp", "sin", "cos", "log", "abs":
			if len(x.Args) != 1 {
				return false
			}
		case "min", "max", "mod", "pow":
			if len(x.Args) != 2 {
				return false
			}
		default:
			return false
		}
		for _, a := range x.Args {
			if !exprPanicFree(a) {
				return false
			}
		}
		return true
	}
	return false
}

// --- expression compilation ----------------------------------------------------

// compileAff lowers an affine expression to slots; unbound names read 0,
// matching AffExpr.EvalOr(bind, 0).
func (c *planCompiler) compileAff(a ir.AffExpr) intFn {
	cst := a.Const
	if len(a.Terms) == 0 {
		return func(*engineEnv) int { return cst }
	}
	if len(a.Terms) == 1 {
		coef, slot := a.Terms[0].Coef, c.ep.islot(a.Terms[0].Name)
		return func(e *engineEnv) int { return cst + coef*e.ints[slot] }
	}
	type term struct{ coef, slot int }
	ts := make([]term, len(a.Terms))
	for i, t := range a.Terms {
		ts[i] = term{coef: t.Coef, slot: c.ep.islot(t.Name)}
	}
	return func(e *engineEnv) int {
		v := cst
		for _, t := range ts {
			v += t.coef * e.ints[t.slot]
		}
		return v
	}
}

// compileSub lowers one subscript Coef*Var + Off.
func (c *planCompiler) compileSub(s ir.Subscript) intFn {
	off := c.compileAff(s.Off)
	if s.Var == "" {
		return off
	}
	coef, slot := s.Coef, c.ep.islot(s.Var)
	return func(e *engineEnv) int { return coef*e.ints[slot] + off(e) }
}

// compileExpr lowers an RHS expression to a closure tree that performs
// the same floating-point operations in the same order as rankExec.eval,
// including its panics.
func (c *planCompiler) compileExpr(expr ir.Expr) evalFn {
	switch x := expr.(type) {
	case ir.FloatConst:
		v := x.Val
		return func(*engineEnv) float64 { return v }
	case ir.IndexRef:
		slot := c.ep.islot(x.Name)
		return func(e *engineEnv) float64 { return float64(e.ints[slot]) }
	case ir.ParamRef:
		slot := c.ep.islot(x.Name)
		return func(e *engineEnv) float64 { return float64(e.ints[slot]) }
	case ir.ScalarRef:
		fs, is := c.fslot(x.Name), c.ep.islot(x.Name)
		return func(e *engineEnv) float64 {
			if e.fset[fs] {
				return e.floats[fs]
			}
			if e.intSet[is] {
				return float64(e.ints[is]) // integer formal read as a value
			}
			return 0
		}
	case *ir.ArrayRef:
		return c.compileArrayRead(x)
	case *ir.Bin:
		l, r := c.compileExpr(x.L), c.compileExpr(x.R)
		switch x.Op {
		case '+':
			return func(e *engineEnv) float64 { return l(e) + r(e) }
		case '-':
			return func(e *engineEnv) float64 { return l(e) - r(e) }
		case '*':
			return func(e *engineEnv) float64 { return l(e) * r(e) }
		case '/':
			return func(e *engineEnv) float64 { return l(e) / r(e) }
		}
		// Unknown operator: evaluate both sides (for identical panic
		// order), then fail exactly like the interpreter.
		return func(e *engineEnv) float64 {
			l(e)
			r(e)
			panic(fmt.Sprintf("spmd: cannot evaluate %v", expr))
		}
	case *ir.Intrinsic:
		return c.compileIntrinsic(x)
	}
	return func(*engineEnv) float64 { panic(fmt.Sprintf("spmd: cannot evaluate %v", expr)) }
}

func (c *planCompiler) compileIntrinsic(x *ir.Intrinsic) evalFn {
	fns := make([]evalFn, len(x.Args))
	for i, a := range x.Args {
		fns[i] = c.compileExpr(a)
	}
	// Canonical arities specialize to allocation-free closures; anything
	// else falls back to the interpreter-shaped generic path so argument
	// evaluation order, extra-argument evaluation, and arity panics stay
	// identical.
	if len(fns) == 1 {
		a0 := fns[0]
		switch x.Name {
		case "sqrt":
			return func(e *engineEnv) float64 { return math.Sqrt(a0(e)) }
		case "exp":
			return func(e *engineEnv) float64 { return math.Exp(a0(e)) }
		case "sin":
			return func(e *engineEnv) float64 { return math.Sin(a0(e)) }
		case "cos":
			return func(e *engineEnv) float64 { return math.Cos(a0(e)) }
		case "log":
			return func(e *engineEnv) float64 { return math.Log(a0(e)) }
		case "abs":
			return func(e *engineEnv) float64 { return math.Abs(a0(e)) }
		}
	}
	if len(fns) == 2 {
		a0, a1 := fns[0], fns[1]
		switch x.Name {
		case "min":
			return func(e *engineEnv) float64 { return math.Min(a0(e), a1(e)) }
		case "max":
			return func(e *engineEnv) float64 { return math.Max(a0(e), a1(e)) }
		case "mod":
			return func(e *engineEnv) float64 { return math.Mod(a0(e), a1(e)) }
		case "pow":
			return func(e *engineEnv) float64 { return math.Pow(a0(e), a1(e)) }
		}
	}
	name := x.Name
	return func(e *engineEnv) float64 {
		args := make([]float64, len(fns))
		for i, fn := range fns {
			args[i] = fn(e)
		}
		switch name {
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
		panic(fmt.Sprintf("spmd: cannot evaluate %v", x))
	}
}

// compileArrayRead lowers an array element read: direct *array access
// with the offset accumulated dimension by dimension, bounds-checked
// like array.off (same panic, raised at the same first violating
// dimension).
func (c *planCompiler) compileArrayRead(x *ir.ArrayRef) evalFn {
	as := c.aslot(x.Name)
	subs := make([]intFn, len(x.Subs))
	for k, s := range x.Subs {
		subs[k] = c.compileSub(s)
	}
	name := x.Name
	return func(e *engineEnv) float64 {
		arr := e.arrays[as]
		if arr == nil {
			panic(fmt.Sprintf("spmd: read of undeclared array %q", name))
		}
		off := 0
		for k, sf := range subs {
			v := sf(e)
			if v < arr.lo[k] || v > arr.hi[k] {
				panic(oobMessage(arr, subs, e))
			}
			off += (v - arr.lo[k]) * arr.stride[k]
		}
		return arr.data[off]
	}
}

// compileStore lowers the LHS of an assignment.
func (c *planCompiler) compileStore(lhs *ir.ArrayRef) storeFn {
	if len(lhs.Subs) == 0 {
		fs := c.fslot(lhs.Name)
		return func(e *engineEnv, v float64) {
			e.floats[fs] = v
			e.fset[fs] = true
		}
	}
	as := c.aslot(lhs.Name)
	subs := make([]intFn, len(lhs.Subs))
	for k, s := range lhs.Subs {
		subs[k] = c.compileSub(s)
	}
	name := lhs.Name
	return func(e *engineEnv, v float64) {
		arr := e.arrays[as]
		if arr == nil {
			panic(fmt.Sprintf("spmd: store to undeclared array %q", name))
		}
		off := 0
		for k, sf := range subs {
			p := sf(e)
			if p < arr.lo[k] || p > arr.hi[k] {
				panic(oobMessage(arr, subs, e))
			}
			off += (p - arr.lo[k]) * arr.stride[k]
		}
		arr.data[off] = v
	}
}

// oobMessage reproduces array.off's panic text (cold path only).
func oobMessage(arr *array, subs []intFn, e *engineEnv) string {
	p := make([]int, len(subs))
	for k, sf := range subs {
		p[k] = sf(e)
	}
	return fmt.Sprintf("spmd: %s%v out of bounds [%v:%v]", arr.name, p, arr.lo, arr.hi)
}

func (c *planCompiler) compileCond(cond ir.Cond) condFn {
	l, r := c.compileExpr(cond.L), c.compileExpr(cond.R)
	switch cond.Op {
	case "<":
		return func(e *engineEnv) bool { return l(e) < r(e) }
	case ">":
		return func(e *engineEnv) bool { return l(e) > r(e) }
	case "<=":
		return func(e *engineEnv) bool { return l(e) <= r(e) }
	case ">=":
		return func(e *engineEnv) bool { return l(e) >= r(e) }
	case "==":
		return func(e *engineEnv) bool { return l(e) == r(e) }
	case "/=":
		return func(e *engineEnv) bool { return l(e) != r(e) }
	}
	op := cond.Op
	return func(e *engineEnv) bool {
		l(e)
		r(e)
		panic(fmt.Sprintf("spmd: unknown comparison %q", op))
	}
}

// --- engine execution ----------------------------------------------------------

// runProc executes a procedure body in a fresh frame: the shared
// activation set-up (pushFrame, the schedule's iteration sets) plus the
// engine's slot views.
func (rx *rankExec) runProc(proc *ir.Procedure, actualArrays map[string]*array, floatFormals map[string]float64) {
	f := rx.pushFrame(proc, rx.S.IterSets(proc, rx.Me, rx.Bind), actualArrays, floatFormals)
	pp := rx.plan.procs[proc.Name]
	rx.pushPlanFrame(f, pp, floatFormals)
	rx.execPlanStmts(proc, pp.body)
	rx.popPlanFrame(f)
	rx.frames = rx.frames[:len(rx.frames)-1]
}

// setSlot maintains the slot shadow of one Bind entry.
func (rx *rankExec) setSlot(slot, v int, set bool) {
	rx.env.ints[slot], rx.env.intSet[slot] = v, set
}

// pushPlanFrame installs a frame's slot views into the rank environment
// and derives the per-frame guards and clamps from the freshly computed
// iteration sets.
func (rx *rankExec) pushPlanFrame(f *frame, pp *procPlan, floatFormals map[string]float64) {
	f.plan = pp
	f.floats = make([]float64, pp.nFloats)
	f.fset = make([]bool, pp.nFloats)
	f.aslots = make([]*array, pp.nArrays)
	for name, idx := range pp.arraySlot {
		f.aslots[idx] = f.arrays[name]
	}
	for name, v := range floatFormals {
		if idx, ok := pp.floatSlot[name]; ok {
			f.floats[idx] = v
			f.fset[idx] = true
		}
	}
	f.point = make([]int, pp.maxNest)
	rx.buildGuards(f, pp)
	f.savedFloats, f.savedFset, f.savedArrays = rx.env.floats, rx.env.fset, rx.env.arrays
	rx.env.floats, rx.env.fset, rx.env.arrays = f.floats, f.fset, f.aslots
}

func (rx *rankExec) popPlanFrame(f *frame) {
	rx.env.floats, rx.env.fset, rx.env.arrays = f.savedFloats, f.savedFset, f.savedArrays
}

func (rx *rankExec) execPlanStmts(proc *ir.Procedure, stmts []planStmt) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *pAssign:
			rx.execPlanAssign(proc, st)
		case *pCall:
			rx.execPlanCall(proc, st)
		case *pLoop:
			rx.execPlanLoop(proc, st)
		case *pIf:
			if st.fn(&rx.env) {
				rx.execPlanStmts(proc, st.then)
			} else {
				rx.execPlanStmts(proc, st.els)
			}
		}
	}
}

// planGuardPass is the compiled counterpart of the interpreter's
// per-point membership test (point slice + iset.Contains): box-shaped
// iteration sets reduce to per-dimension comparisons on slot values.
func (rx *rankExec) planGuardPass(guardIdx int, nestSlots []int) bool {
	f := rx.top()
	g := &f.guards[guardIdx]
	switch g.kind {
	case guardNever:
		return false
	case guardBox:
		for k, sl := range nestSlots {
			if v := rx.env.ints[sl]; v < g.lo[k] || v > g.hi[k] {
				return false
			}
		}
		return true
	default: // guardSet
		pt := f.point[:len(nestSlots)]
		for k, sl := range nestSlots {
			pt[k] = rx.env.ints[sl]
		}
		return g.set.Contains(pt)
	}
}

func (rx *rankExec) execPlanAssign(proc *ir.Procedure, sp *pAssign) {
	if sp.depth == 0 {
		rx.Fire(proc, sp.readEvents, 0)
		if rx.S.OwnsTopLevel(proc, sp.a.ID, rx.Me, rx.Bind) {
			v := sp.rhs(&rx.env)
			rx.flops += sp.flops
			sp.store(&rx.env, v)
		}
		rx.Fire(proc, sp.writeEvents, 0)
		return
	}
	if !rx.planGuardPass(sp.guardIdx, sp.nestSlots) {
		return
	}
	v := sp.rhs(&rx.env)
	rx.flops += sp.flops
	sp.store(&rx.env, v)
}

func (rx *rankExec) execPlanCall(proc *ir.Procedure, pc *pCall) {
	if pc.depth == 0 {
		if !rx.S.OwnsTopLevel(proc, pc.call.ID, rx.Me, rx.Bind) {
			return
		}
	} else if !rx.planGuardPass(pc.guardIdx, pc.nestSlots) {
		return
	}
	f := rx.top()
	actualArrays := map[string]*array{}
	floatFormals := map[string]float64{}
	mark := rx.Mark()
	for i := range pc.args {
		a := &pc.args[i]
		switch a.kind {
		case sched.ArgAlias:
			actualArrays[a.formal] = f.arrays[a.srcName]
		case sched.ArgInt:
			v := int(a.fn(&rx.env))
			rx.BindInt(a.formal, v)
			rx.setSlot(a.slot, v, true)
		default:
			floatFormals[a.formal] = a.fn(&rx.env)
		}
	}
	rx.runProc(pc.callee, actualArrays, floatFormals)
	rx.Unbind(mark)
	// No call sits inside a slot-only loop, so every formal's slot
	// equalled its Bind entry before the call: restore it from there.
	for i := range pc.args {
		if a := &pc.args[i]; a.kind == sched.ArgInt {
			v, had := rx.Bind[a.formal]
			rx.setSlot(a.slot, v, had)
		}
	}
}

func (rx *rankExec) execPlanLoop(proc *ir.Procedure, pl *pLoop) {
	rx.Fire(proc, pl.ls.Reads, pl.depth)

	var s0 []float64
	if len(pl.reds) > 0 {
		s0 = make([]float64, len(pl.reds))
		for i, r := range pl.reds {
			s0[i] = rx.env.floats[r.fslot]
		}
	}

	if len(pl.ls.Pipe) > 0 {
		rx.Pipeline(proc, pl.ls, pl.depth, func() { rx.iteratePlanLoop(proc, pl) })
	} else {
		rx.iteratePlanLoop(proc, pl)
	}

	for i, r := range pl.reds {
		rx.env.floats[r.fslot] = rx.combine(r.op, rx.env.floats[r.fslot], s0[i])
		rx.env.fset[r.fslot] = true
	}

	rx.Fire(proc, pl.ls.Writes, pl.depth)
}

// iteratePlanLoop is the compiled loop iteration: bounds come from compiled
// affine closures, the range is clamped by the active strip and (for
// pure loops) by the hoisted union of member iteration boxes, and the
// loop variable is maintained in its slot — plus the bind map only when
// something inside the loop can read it.
func (rx *rankExec) iteratePlanLoop(proc *ir.Procedure, pl *pLoop) {
	if rx.kernels != nil {
		// EngineCodegen: a registered native kernel replaces the whole
		// closure walk when its precheck holds (kernel_invoke.go).  This
		// covers both direct and pipelined (per-strip) invocations.
		if bk := rx.kernels[pl]; bk != nil && rx.runKernel(bk) {
			return
		}
	}
	e := &rx.env
	l := pl.l
	lo, hi := rx.Strip.Clamp(l, pl.lo(e), pl.hi(e))
	if pl.clampIdx >= 0 {
		c := &rx.top().clamps[pl.clampIdx]
		if l.Step > 0 {
			lo, hi = max(lo, c.lo), min(hi, c.hi)
		} else {
			lo, hi = min(lo, c.hi), max(hi, c.lo)
		}
	}
	vs := pl.varSlot
	oldV, oldSet := e.ints[vs], e.intSet[vs]
	if pl.pure {
		if l.Step > 0 {
			for v := lo; v <= hi; v++ {
				e.ints[vs] = v
				e.intSet[vs] = true
				rx.execPlanStmts(proc, pl.body)
			}
		} else {
			for v := lo; v >= hi; v-- {
				e.ints[vs] = v
				e.intSet[vs] = true
				rx.execPlanStmts(proc, pl.body)
			}
		}
	} else {
		mark := rx.Mark()
		rx.BindInt(l.Var, lo)
		if l.Step > 0 {
			for v := lo; v <= hi; v++ {
				e.ints[vs] = v
				e.intSet[vs] = true
				rx.Bind[l.Var] = v
				rx.execPlanStmts(proc, pl.body)
			}
		} else {
			for v := lo; v >= hi; v-- {
				e.ints[vs] = v
				e.intSet[vs] = true
				rx.Bind[l.Var] = v
				rx.execPlanStmts(proc, pl.body)
			}
		}
		rx.Unbind(mark)
	}
	rx.setSlot(vs, oldV, oldSet) // oldV is 0 when the slot was unset
}
