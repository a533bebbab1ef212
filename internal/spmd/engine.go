package spmd

// engine.go is the compute-nest compiler and runner of the closure and
// native tiers.  Control belongs to the schedule walker on every engine:
// frames, calls, integer-formal binding, event firing, pipelining and
// reductions run through the reference interpreter's Ops (exec.go).  The
// compiled tiers add one thing: nestOps.Handled claims every compute nest
// — a loop whose strict interior the schedule marks as needing no walker
// (sched.LoopSched.ComputeNest) — and runs it compiled.  A nest is
// lowered twice.  Its kernel units (kernel_extract.go) run unchecked on
// a back end — a registered native kernel, or the in-process evaluator
// of kernel_eval.go — once the per-invocation precheck has proven every
// access in bounds (kernel_invoke.go).  The closure tree of this file,
// over a slot-indexed environment, checks every subscript at every
// point: it runs what lies outside every unit and whatever a precheck
// bails on, with the interpreter's panics.  Results are byte-identical
// to the interpreter because a nest performs the same floating-point
// operations, flop accounting, guard decisions and stores in the same
// order; only provably result-free work is removed:
//
//   - name → value resolution moves from per-point map lookups to
//     integer slots assigned once per Program (engineEnv);
//   - the per-point membership test against a statement's iteration set
//     becomes per-dimension bounds comparisons when the set is a single
//     box, with loop ranges additionally clamped to the
//     union of member boxes for innermost loops (engine_bounds.go).
//
// The nest contract: slots mean nothing outside a nest.  runNest copies
// the integers and scalars the nest names from Bind and the frame's fenv
// into their slots on entry and the scalars it may store back on exit;
// inside, loop variables live in slots only.  A nest holding a construct
// the compiler cannot lower is not claimed and the walker iterates it.

import (
	"fmt"
	"math"
	"sort"

	"dhpf/internal/ir"
	"dhpf/internal/sched"
)

// Engine selects Program.Execute's execution strategy.
type Engine int

const (
	// EngineCompiled is the compiled engine (the default): kernel units
	// on the in-process evaluator, everything else on checked closures.
	EngineCompiled Engine = iota
	// EngineInterp is the original tree-walking interpreter, retained as
	// the reference oracle for differential testing.
	EngineInterp
	// EngineCodegen is EngineCompiled with registered native kernels
	// (internal/codegen) preferred over the evaluator, unit by unit; with
	// an empty registry EngineCodegen ≡ EngineCompiled.
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

// engineEnv is the flat environment compiled closures and kernels read
// and write while a nest runs.  Integer slots are program-global, scalar
// and array slots per procedure; runNest loads them.  Invariant inside a
// nest: ints[s] equals the interpreter's bind[name] when the name is
// bound and 0 when it is not (intSet tracks presence), so compiled affine
// evaluation matches AffExpr.EvalOr(bind, 0) exactly.
type engineEnv struct {
	ints   []int
	intSet []bool
	floats []float64 // scalar slots
	fset   []bool    // scalar presence (the fenv map's "ok")
	arrays []*array  // the current frame's array slots
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
	nInts    int
	intSlot  map[string]int
	nFloats  int                // the widest procedure's scalar slots
	nests    map[*ir.Loop]*nest // claimed compute nests by root loop
	roots    []*nest            // the same, in program order
	declined int                // compute nests the compiler could not lower
}

// procPlan is one procedure's slot tables.
type procPlan struct {
	proc      *ir.Procedure
	nFloats   int
	floatSlot map[string]int
	nArrays   int
	arraySlot map[string]int
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

// nest is one claimed compute nest: its loop tree plus the names whose
// slots runNest loads on entry (ints from Bind, floats from fenv) and
// stores back on exit, each sorted by name.
type nest struct {
	pp     *procPlan
	root   *pLoop
	ints   []slotName
	floats []slotName
	stores []slotName
}

type slotName struct {
	name string
	slot int
}

type planStmt interface{ planStmtNode() }

type pAssign struct {
	a         *ir.Assign
	guardIdx  int
	nestSlots []int
	rhs       evalFn
	store     storeFn
	flops     float64
}

type pLoop struct {
	l        *ir.Loop
	depth    int
	varSlot  int
	lo, hi   intFn
	body     []planStmt
	clampIdx int // index into frame.clamps, -1 when not clampable
	unit     int // index of the kernel unit rooted here (kernel_extract.go), -1 when none
}

type pIf struct {
	cond ir.Cond
	fn   condFn
	then []planStmt
	els  []planStmt
}

func (*pAssign) planStmtNode() {}
func (*pLoop) planStmtNode()   {}
func (*pIf) planStmtNode()     {}

// --- plan construction ---------------------------------------------------------

// enginePlanFor returns the Program's compiled plan, building it once;
// nil for a program the schedule cannot walk.
func (p *Program) enginePlanFor() *enginePlan {
	p.engOnce.Do(func() {
		if p.Schedule().Check() == nil {
			p.eng = buildEnginePlan(p)
		}
	})
	return p.eng
}

func buildEnginePlan(p *Program) *enginePlan {
	ep := &enginePlan{intSlot: map[string]int{}, nests: map[*ir.Loop]*nest{}}
	c := &planCompiler{p: p, ep: ep}
	// Parameters claim their global slots first.  Sorted: slot numbers
	// feed kernel-unit fingerprints and the emitted native code, so
	// allocation order must not depend on map iteration.
	names := make([]string, 0, len(p.Ctx.Bind.Params))
	for name := range p.Ctx.Bind.Params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c.islot(name)
	}
	for _, proc := range p.IR.Procs {
		c.ps, c.pp = p.Schedule().Proc(proc), &procPlan{
			proc:      proc,
			floatSlot: map[string]int{},
			arraySlot: map[string]int{},
		}
		// Formals may be bound as arrays, integers or floats depending on
		// the call site; give every formal all three identities up front.
		for _, formal := range proc.Formals {
			c.islot(formal)
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
		// The whole body is compiled, in program order, and only the nests
		// are kept: slots and guard indices are claimed by compiling, so
		// their numbering — and with it every kernel fingerprint — does not
		// depend on where the schedule draws the nests.
		c.compileStmts(proc.Body, 0, nil)
		ep.nFloats = max(ep.nFloats, c.pp.nFloats)
	}
	return ep
}

// planCompiler compiles one procedure's body at a time.  While a nest is
// being compiled (cur != nil) every slot claim records its name on it,
// and bad collects constructs only the interpreter reproduces.
type planCompiler struct {
	p   *Program
	ep  *enginePlan
	ps  *sched.ProcSched
	pp  *procPlan
	cur *nestNames
	bad bool
}

// nestNames are the names a nest under compilation has claimed slots for.
type nestNames struct{ ints, floats, stores map[string]int }

func (c *planCompiler) islot(name string) int {
	s, ok := c.ep.intSlot[name]
	if !ok {
		s = c.ep.nInts
		c.ep.intSlot[name] = s
		c.ep.nInts++
	}
	if c.cur != nil {
		c.cur.ints[name] = s
	}
	return s
}

func (c *planCompiler) fslot(name string) int {
	s, ok := c.pp.floatSlot[name]
	if !ok {
		s = c.pp.nFloats
		c.pp.floatSlot[name] = s
		c.pp.nFloats++
	}
	if c.cur != nil {
		c.cur.floats[name] = s
	}
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

func (c *planCompiler) nestSlots(loops []*ir.Loop) []int {
	vars := ir.NestVars(loops)
	out := make([]int, len(vars))
	for i, v := range vars {
		out[i] = c.islot(v)
	}
	if len(out) > c.pp.maxNest {
		c.pp.maxNest = len(out)
	}
	return out
}

func (c *planCompiler) newGuard(id int, nestSlots []int) int {
	c.pp.guardStmts = append(c.pp.guardStmts, guardedStmt{id: id, nestSlots: nestSlots})
	return len(c.pp.guardStmts) - 1
}

func sortedSlots(m map[string]int) []slotName {
	out := make([]slotName, 0, len(m))
	for name, slot := range m { //vetdet:ok sorted below
		out = append(out, slotName{name, slot})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (c *planCompiler) compileStmts(stmts []ir.Stmt, depth int, loops []*ir.Loop) []planStmt {
	var out []planStmt
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.Assign:
			out = append(out, c.compileAssign(st, depth, loops))
		case *ir.CallStmt:
			c.claimCall(st, depth, loops)
		case *ir.Loop:
			out = append(out, c.compileLoop(st, depth, loops))
		case *ir.IfStmt:
			then := c.compileStmts(st.Then, depth, loops)
			els := c.compileStmts(st.Else, depth, loops)
			out = append(out, &pIf{cond: st.Cond, fn: c.compileCond(st.Cond), then: then, els: els})
		}
	}
	return out
}

func (c *planCompiler) compileAssign(a *ir.Assign, depth int, loops []*ir.Loop) *pAssign {
	ps := &pAssign{
		a:        a,
		guardIdx: -1,
		rhs:      c.compileExpr(a.RHS),
		store:    c.compileStore(a.LHS),
		flops:    flopsOf(a),
	}
	if depth > 0 {
		ps.nestSlots = c.nestSlots(loops)
		ps.guardIdx = c.newGuard(a.ID, ps.nestSlots)
	}
	return ps
}

// claimCall claims the guard index and the slots a call, its actuals and
// its integer formals name; the call itself runs through the walker.
func (c *planCompiler) claimCall(call *ir.CallStmt, depth int, loops []*ir.Loop) {
	if depth > 0 {
		c.newGuard(call.ID, c.nestSlots(loops))
	}
	for k, formal := range c.p.IR.Proc(call.Callee).Formals {
		kind := sched.ClassifyArg(call.Args[k])
		if kind == sched.ArgInt {
			c.islot(formal)
		}
		if kind != sched.ArgAlias {
			c.compileExpr(call.Args[k])
		}
	}
}

func (c *planCompiler) compileLoop(l *ir.Loop, depth int, loops []*ir.Loop) *pLoop {
	// The outermost loop the schedule marks is the nest; loops below it
	// are marked too and belong to it.
	root := c.cur == nil && c.ps.Loops[l].ComputeNest
	if root {
		c.cur, c.bad = &nestNames{map[string]int{}, map[string]int{}, map[string]int{}}, false
	}
	body := c.compileStmts(l.Body, depth+1, append(loops, l))
	pl := &pLoop{
		l:        l,
		depth:    depth,
		body:     body,
		varSlot:  c.islot(l.Var),
		lo:       c.compileAff(l.Lo),
		hi:       c.compileAff(l.Hi),
		clampIdx: -1,
		unit:     -1,
	}
	// An innermost loop whose if conditions all read no array skips
	// nothing observable on an iteration where every statement is guarded
	// out, so its range can be clamped to the union of the statements'
	// iteration boxes (engine_bounds.go).
	if members, ok := clampMembers(body); ok && c.cur != nil {
		pl.clampIdx = len(c.pp.clamps)
		c.pp.clamps = append(c.pp.clamps, clampSpec{pos: depth, members: members})
	}
	if root {
		if c.bad {
			c.ep.declined++
		} else {
			n := &nest{pp: c.pp, root: pl, ints: sortedSlots(c.cur.ints), floats: sortedSlots(c.cur.floats), stores: sortedSlots(c.cur.stores)}
			c.ep.nests[l] = n
			c.ep.roots = append(c.ep.roots, n)
		}
		c.cur = nil
	}
	return pl
}

// clampMembers returns the guard indices of every assign under body when
// it holds only assigns and ifs (recursively) and no condition reads an
// array: the interpreter evaluates conditions even on iterations whose
// statements are all guarded out, so clamping such iterations away is
// only sound when that evaluation cannot panic.
func clampMembers(body []planStmt) ([]int, bool) {
	var members []int
	for _, s := range body {
		switch st := s.(type) {
		case *pAssign:
			members = append(members, st.guardIdx)
		case *pIf:
			a, okA := clampMembers(st.then)
			b, okB := clampMembers(st.els)
			if !okA || !okB || !readsNoArray(st.cond.L) || !readsNoArray(st.cond.R) {
				return nil, false
			}
			members = append(append(members, a...), b...)
		default:
			return nil, false
		}
	}
	return members, true
}

// readsNoArray reports whether evaluating the expression, once compiled,
// can never panic: the panics compiled code keeps are array accesses'.
func readsNoArray(e ir.Expr) bool {
	ok := true
	ir.WalkExpr(e, func(x ir.Expr) {
		if _, isRef := x.(*ir.ArrayRef); isRef {
			ok = false
		}
	})
	return ok
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
		coef, slot := a.Terms[0].Coef, c.islot(a.Terms[0].Name)
		return func(e *engineEnv) int { return cst + coef*e.ints[slot] }
	}
	type term struct{ coef, slot int }
	ts := make([]term, len(a.Terms))
	for i, t := range a.Terms {
		ts[i] = term{coef: t.Coef, slot: c.islot(t.Name)}
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
	coef, slot := s.Coef, c.islot(s.Var)
	return func(e *engineEnv) int { return coef*e.ints[slot] + off(e) }
}

// compileExpr lowers an RHS expression to a closure tree that performs
// the same floating-point operations in the same order as rankExec.eval,
// including its bounds panics.
func (c *planCompiler) compileExpr(expr ir.Expr) evalFn {
	switch x := expr.(type) {
	case ir.FloatConst:
		v := x.Val
		return func(*engineEnv) float64 { return v }
	case ir.IndexRef:
		slot := c.islot(x.Name)
		return func(e *engineEnv) float64 { return float64(e.ints[slot]) }
	case ir.ParamRef:
		slot := c.islot(x.Name)
		return func(e *engineEnv) float64 { return float64(e.ints[slot]) }
	case ir.ScalarRef:
		fs, is := c.fslot(x.Name), c.islot(x.Name)
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
	case *ir.Intrinsic:
		return c.compileIntrinsic(x)
	}
	// An operator or node kind the interpreter fails on, in its own
	// evaluation order: the nest is left to it.
	c.bad = true
	return nil
}

func (c *planCompiler) compileIntrinsic(x *ir.Intrinsic) evalFn {
	fns := make([]evalFn, len(x.Args))
	for i, a := range x.Args {
		fns[i] = c.compileExpr(a)
	}
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
	// Any other name or arity evaluates and fails the interpreter's way.
	c.bad = true
	return nil
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
		if c.cur != nil {
			c.cur.stores[lhs.Name] = fs
		}
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
	c.bad = true
	return nil
}

// --- nest execution --------------------------------------------------------------

// nestOps is the sched.Ops of the closure and native tiers: the
// reference interpreter's, with compute nests claimed and counted.
type nestOps struct{ *rankExec }

func (o nestOps) Assign(a *ir.Assign) {
	o.nstats.Walked++
	o.rankExec.Assign(a)
}

func (o nestOps) Handled(_ *sched.Frame, l *ir.Loop, _ int) bool {
	n := o.plan.nests[l]
	if n == nil {
		return false
	}
	o.runNest(n)
	return true
}

// runNest runs one claimed nest over the walker's current binding and
// strip: slots are loaded from Bind and the frame's scalars on entry,
// and the scalars the nest may have stored go back on exit.
func (rx *rankExec) runNest(n *nest) {
	f, e := rx.top(), &rx.env
	if f.aslots == nil {
		f.aslots = make([]*array, n.pp.nArrays)
		for name, idx := range n.pp.arraySlot {
			f.aslots[idx] = f.arrays[name]
		}
		f.point = make([]int, n.pp.maxNest)
		buildGuards(f, n.pp)
	}
	e.arrays = f.aslots
	for _, v := range n.ints {
		e.ints[v.slot], e.intSet[v.slot] = rx.Bind[v.name]
	}
	for _, v := range n.floats {
		e.floats[v.slot], e.fset[v.slot] = f.fenv[v.name]
	}
	rx.nstats.Entries++
	rx.iteratePlanLoop(n.root)
	for _, v := range n.stores {
		if e.fset[v.slot] {
			f.fenv[v.name] = e.floats[v.slot]
		}
	}
}

func (rx *rankExec) execPlanStmts(stmts []planStmt) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *pAssign:
			if rx.planGuardPass(st.guardIdx, st.nestSlots) {
				v := st.rhs(&rx.env)
				rx.flops += st.flops
				st.store(&rx.env, v)
				rx.nstats.InNest++
			}
		case *pLoop:
			rx.iteratePlanLoop(st)
		case *pIf:
			if st.fn(&rx.env) {
				rx.execPlanStmts(st.then)
			} else {
				rx.execPlanStmts(st.els)
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

// iteratePlanLoop runs one loop of a nest: bounds come from compiled
// affine closures, the range is clamped by the active strip and (for
// innermost loops) by the hoisted union of member iteration boxes, and
// the loop variable lives in its slot.
func (rx *rankExec) iteratePlanLoop(pl *pLoop) {
	// A kernel unit's back end replaces the whole closure walk when its
	// precheck holds (kernel_invoke.go).  This covers both direct and
	// pipelined (per-strip) invocations.
	if pl.unit >= 0 && rx.kbind != nil && rx.runKernel(pl.unit) {
		return
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
	oldV, oldSet := e.ints[vs], e.intSet[vs] // oldV is 0 when the slot was unset
	e.intSet[vs] = true
	if l.Step > 0 {
		for v := lo; v <= hi; v++ {
			e.ints[vs] = v
			rx.execPlanStmts(pl.body)
		}
	} else {
		for v := lo; v >= hi; v-- {
			e.ints[vs] = v
			rx.execPlanStmts(pl.body)
		}
	}
	e.ints[vs], e.intSet[vs] = oldV, oldSet
}
