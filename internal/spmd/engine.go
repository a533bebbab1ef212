package spmd

// engine.go is what the compiled engines add to the reference
// interpreter.  Control belongs to the schedule walker on every engine:
// frames, calls, integer-formal binding, event firing, pipelining and
// reductions run through the interpreter's Ops (exec.go).  The compiled
// engines wrap those Ops in nestOps, whose Handled claims a loop when a
// kernel unit is rooted at it (kernel_extract.go) and this invocation's
// precheck proves every access in bounds (kernel_invoke.go); the unit
// then runs unchecked on a back end — a registered native kernel, or the
// in-process evaluator of kernel_eval.go.  A bail is a decline: Handled
// returns false and the walker iterates that loop with the interpreter's
// Ops — its panics, its error text, its flop accounting — exactly as it
// iterates a loop no unit covers.
//
// Units address values by number, not by name: integer slots are
// program-global, scalar and array slots per procedure, guards and clamps
// dense per procedure (engine_bounds.go).  This file assigns the numbers,
// in one walk of the IR whose order is part of the kernel ABI — slot and
// guard numbers feed every unit fingerprint and the emitted native code.
//
// The unit contract: slots mean nothing outside an invocation.  runUnit
// copies the integers and scalars the unit names from Bind and the
// frame's fenv into their slots on entry and the scalars it may store
// back on exit; inside, loop variables are kernel locals.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dhpf/internal/ir"
	"dhpf/internal/sched"
)

// Engine selects Program.Execute's execution strategy.
type Engine int

const (
	// EngineCompiled is the compiled engine (the default): kernel units
	// on the in-process evaluator, everything else interpreted.
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

// engineEnv is the flat environment kernels read and write while a unit
// runs; runUnit loads it from the walker's slots.  Invariant inside an
// invocation: ints[s] equals the walker's value of the name when the name
// is bound and 0 when it is not (intSet tracks presence), so affine
// evaluation over slots matches AffExpr.EvalOr(bind, 0) exactly.
type engineEnv struct {
	ints   []int
	intSet []bool
	floats []float64 // scalar slots
	fset   []bool    // scalar presence (the fenv map's "ok")
}

// enginePlan is the once-per-Program compiled form shared (read-only) by
// all ranks of all executions: the slot numbering and the kernel units
// cut against it.
type enginePlan struct {
	intSlot    map[string]int
	nFloats    int // the widest procedure's scalar slots
	units      []*KernelUnit
	unitAt     []int32      // unit index by root loop statement id, -1: none
	evalOnly   []KernelFunc // the default engine's binding: no unit native
	native     []KernelFunc // EngineCodegen's binding (bindKernels)
	nativeOnce sync.Once
	scratch    kernelScratch
	declined   int // compute nests no unit was cut from
	// Whether each precheck is repeated from an activation state built
	// afresh (recheck), and how many were: for tests (export_test.go).
	recheck   bool
	rechecked atomic.Int64
}

// procPlan is one procedure's slot, guard and clamp tables.
type procPlan struct {
	proc      *ir.Procedure
	floatSlot map[string]int
	arraySlot map[string]int
	// guardStmts maps dense guard indices to the statement identity the
	// per-frame guard is derived from (engine_bounds.go); guardOf is its
	// inverse, by statement id.
	guardStmts []guardedStmt
	guardOf    map[int]int
	// clamps lists, per clampable loop, the guard indices whose boxes
	// bound the loop's useful range at the loop's nest position.
	clamps  []clampSpec
	clampOf map[int]int // by loop statement id
	// nAssigns counts the statements of the procedure's kernel units, each
	// numbered by KAssign.ord; nUnits its units (KernelUnit.pidx), nLevels
	// their loop levels (lvBase), nArrays their arrays (kaBase) and nOuter
	// their outer dimensions' bounds (outBase).
	nAssigns, nUnits, nLevels, nArrays, nOuter int
}

type guardedStmt struct {
	id        int
	nestSlots []int
}

type clampSpec struct {
	pos     int   // the loop's index in each member's nest
	members []int // guard indices of all statements under the loop
}

// enginePlanFor returns the Program's plan, building it once; nil for a
// program the schedule cannot walk.
func (p *Program) enginePlanFor() *enginePlan {
	p.engOnce.Do(func() {
		if p.Schedule().Check() == nil {
			p.eng = buildEnginePlan(p)
		}
	})
	return p.eng
}

func buildEnginePlan(p *Program) *enginePlan {
	ep := &enginePlan{intSlot: map[string]int{}, unitAt: make([]int32, p.IR.MaxStmtID())}
	for i := range ep.unitAt {
		ep.unitAt[i] = -1
	}
	c := &numberer{p: p, ep: ep}
	// Parameters claim their global slots first.  Sorted: allocation order
	// must not depend on map iteration.
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
			guardOf:   map[int]int{},
			clampOf:   map[int]int{},
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
		// The whole body is numbered, in program order, whether or not a
		// unit will cover it: numbers — and with them every kernel
		// fingerprint — do not depend on where units are cut.
		c.stmts(proc.Body, nil)
		ep.nFloats = max(ep.nFloats, len(c.pp.floatSlot))
		cutKernelUnits(ep, c.pp, c.ps, p)
	}
	// An invocation loads its integers by walker slot; the engine's own
	// numbering above feeds the kernel fingerprints and stays.
	s := p.Schedule()
	for _, u := range ep.units {
		for i := range u.ints {
			u.ints[i].walk = s.Slot(u.ints[i].name)
		}
	}
	ep.evalOnly = make([]KernelFunc, len(ep.units))
	return ep
}

// numberer assigns one procedure's numbers at a time.  A name claims its
// slot where the walk first meets it: per assignment the right-hand side,
// the left-hand side, then the nest's variables with the guard; per call
// the guard, then each integer formal and non-alias actual; per loop the
// body, the variable, Lo, Hi, then the clamp; per if both arms, then the
// condition.
type numberer struct {
	p  *Program
	ep *enginePlan
	ps *sched.ProcSched
	pp *procPlan
}

func (c *numberer) islot(name string) int {
	s, ok := c.ep.intSlot[name]
	if !ok {
		s = len(c.ep.intSlot)
		c.ep.intSlot[name] = s
	}
	return s
}

func (c *numberer) fslot(name string) {
	if _, ok := c.pp.floatSlot[name]; !ok {
		c.pp.floatSlot[name] = len(c.pp.floatSlot)
	}
}

func (c *numberer) aslot(name string) {
	if _, ok := c.pp.arraySlot[name]; !ok {
		c.pp.arraySlot[name] = len(c.pp.arraySlot)
	}
}

func (c *numberer) aff(a ir.AffExpr) {
	for _, t := range a.Terms {
		c.islot(t.Name)
	}
}

func (c *numberer) ref(r *ir.ArrayRef) {
	c.aslot(r.Name)
	for _, s := range r.Subs {
		c.aff(s.Off)
		if s.Var != "" {
			c.islot(s.Var)
		}
	}
}

func (c *numberer) expr(e ir.Expr) {
	ir.WalkExpr(e, func(x ir.Expr) {
		switch x := x.(type) {
		case ir.IndexRef:
			c.islot(x.Name)
		case ir.ParamRef:
			c.islot(x.Name)
		case ir.ScalarRef:
			c.fslot(x.Name)
			c.islot(x.Name)
		case *ir.ArrayRef:
			c.ref(x)
		}
	})
}

// guard gives a statement inside a loop its guard index.
func (c *numberer) guard(id int, loops []*ir.Loop) {
	if len(loops) == 0 {
		return
	}
	slots := make([]int, len(loops))
	for i, l := range loops {
		slots[i] = c.islot(l.Var)
	}
	c.pp.guardOf[id] = len(c.pp.guardStmts)
	c.pp.guardStmts = append(c.pp.guardStmts, guardedStmt{id: id, nestSlots: slots})
}

func (c *numberer) stmts(stmts []ir.Stmt, loops []*ir.Loop) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.Assign:
			c.expr(st.RHS)
			if len(st.LHS.Subs) == 0 {
				c.fslot(st.LHS.Name)
			} else {
				c.ref(st.LHS)
			}
			c.guard(st.ID, loops)
		case *ir.CallStmt:
			c.guard(st.ID, loops)
			for k, formal := range c.p.IR.Proc(st.Callee).Formals {
				kind := sched.ClassifyArg(st.Args[k])
				if kind == sched.ArgInt {
					c.islot(formal)
				}
				if kind != sched.ArgAlias {
					c.expr(st.Args[k])
				}
			}
		case *ir.Loop:
			c.stmts(st.Body, append(loops, st))
			c.islot(st.Var)
			c.aff(st.Lo)
			c.aff(st.Hi)
			// An innermost loop of a compute nest whose if conditions all
			// read no array skips nothing observable on an iteration where
			// every statement is guarded out, so its range can be clamped to
			// the union of the statements' iteration boxes (engine_bounds.go).
			if members, ok := c.clampMembers(st.Body); ok && c.ps.Loop(st).ComputeNest {
				c.pp.clampOf[st.ID] = len(c.pp.clamps)
				c.pp.clamps = append(c.pp.clamps, clampSpec{pos: len(loops), members: members})
			}
		case *ir.IfStmt:
			c.stmts(st.Then, loops)
			c.stmts(st.Else, loops)
			c.expr(st.Cond.L)
			c.expr(st.Cond.R)
		}
	}
}

// clampMembers returns the guard indices of every assign under body when
// it holds only assigns and ifs (recursively) and no condition reads an
// array: the interpreter evaluates conditions even on iterations whose
// statements are all guarded out, so clamping such iterations away is
// only sound when that evaluation cannot panic.
func (c *numberer) clampMembers(body []ir.Stmt) ([]int, bool) {
	var members []int
	for _, s := range body {
		switch st := s.(type) {
		case *ir.Assign:
			members = append(members, c.pp.guardOf[st.ID])
		case *ir.IfStmt:
			a, okA := c.clampMembers(st.Then)
			b, okB := c.clampMembers(st.Else)
			if !okA || !okB || len(ir.Refs(st.Cond.L))+len(ir.Refs(st.Cond.R)) > 0 {
				return nil, false
			}
			members = append(append(members, a...), b...)
		default:
			return nil, false
		}
	}
	return members, true
}

// nestOps is the sched.Ops of the compiled engines: the reference
// interpreter's, with kernel units claimed and what is left counted.
type nestOps struct{ *rankExec }

func (o nestOps) Assign(a *ir.Assign) {
	o.walked++
	o.rankExec.Assign(a)
}

func (o nestOps) Handled(_ *sched.Frame, l *ir.Loop, _ int) bool {
	ui := o.plan.unitAt[l.ID]
	return ui >= 0 && o.runUnit(int(ui))
}
