package spmd

// kernel_extract.go cuts KernelUnit specs from the IR: loop subtrees of
// the compute nests the schedule marks (sched.LoopSched.ComputeNest),
// lowered against the slot, guard and clamp numbering of engine.go.
// Extraction is conservative and owns its grammar: a subtree qualifies
// only when the runtime precheck plus a back end's flat code can
// reproduce the interpreter's behaviour exactly — same FP operations and
// order, same flop accumulation, same guard decisions, same stores — so
// a shape whose bounds safety interval analysis cannot establish, and
// any operator, intrinsic, arity or comparison outside the tables of
// kernel.go, fails the candidate and is simply interpreted.  Maximal
// qualifying subtrees are chosen: if a loop qualifies, its descendants
// are covered by the same unit; if not, the walker iterates it and its
// body is scanned for smaller roots.

import (
	"slices"
	"strings"

	"dhpf/internal/cp"
	"dhpf/internal/ir"
	"dhpf/internal/sched"
)

// KernelUnits returns the program's specializable loop nests, extracted
// once and shared.  The list is deterministic (procedure order, then
// body order) and empty for a program the schedule cannot walk.
func (p *Program) KernelUnits() []*KernelUnit {
	if ep := p.enginePlanFor(); ep != nil {
		return ep.units
	}
	return nil
}

// kcut is the context one procedure's units are cut in.
type kcut struct {
	ep       *enginePlan
	pp       *procPlan
	ps       *sched.ProcSched
	params   map[string]int
	sel      *cp.Selection
	loopVars map[string]bool // every loop variable of the procedure
}

// cutKernelUnits scans one numbered procedure for unit roots.
func cutKernelUnits(ep *enginePlan, pp *procPlan, ps *sched.ProcSched, p *Program) {
	c := &kcut{ep: ep, pp: pp, ps: ps, params: p.Ctx.Bind.Params, sel: p.Sel, loopVars: map[string]bool{}}
	ir.Walk(pp.proc.Body, func(s ir.Stmt, _ []*ir.Loop) bool {
		if l, ok := s.(*ir.Loop); ok {
			c.loopVars[l.Var] = true
		}
		return true
	})
	c.scan(pp.proc.Body, 0, false)
}

// fixed reports whether the walker's value of an integer name is the same
// throughout an activation: a parameter or a formal that no loop of the
// procedure rebinds.
func (c *kcut) fixed(name string) bool {
	_, param := c.params[name]
	return (param || slices.Contains(c.pp.proc.Formals, name)) && !c.loopVars[name]
}

// scan looks for unit roots under stmts, depth loops deep; inNest says an
// enclosing loop is a compute nest already.  Only a compute nest's loops
// are candidates — whatever fires at a unit root's boundary fires outside
// its iteration, and inside a compute nest no interior loop has a
// boundary — and a compute nest no unit is cut from is counted declined.
func (c *kcut) scan(stmts []ir.Stmt, depth int, inNest bool) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.Loop:
			nest := c.ps.Loop(st).ComputeNest
			before := len(c.ep.units)
			var u *KernelUnit
			if nest {
				u = c.tryKernelUnit(st, depth)
			}
			if u != nil {
				c.ep.unitAt[st.ID] = int32(len(c.ep.units))
				u.pidx, u.lvBase, u.kaBase, u.outBase = c.pp.nUnits, c.pp.nLevels, c.pp.nArrays, c.pp.nOuter
				c.pp.nUnits, c.pp.nLevels, c.pp.nArrays = c.pp.nUnits+1, c.pp.nLevels+u.NumLevels, c.pp.nArrays+len(u.Arrays)
				c.pp.nOuter += 2 * u.RootDepth
				c.ep.units = append(c.ep.units, u)
				c.ep.scratch.fit(u.lower())
			} else {
				c.scan(st.Body, depth+1, nest)
			}
			if nest && !inNest && len(c.ep.units) == before {
				c.ep.declined++
			}
		case *ir.IfStmt:
			c.scan(st.Then, depth, inNest)
			c.scan(st.Else, depth, inNest)
		}
	}
}

// kextract converts one candidate subtree; any unsupported construct
// flips ok and the candidate is abandoned.
type kextract struct {
	*kcut
	u *KernelUnit

	scope    []kscopeEntry // in-scope kernel loops, outer → inner
	nLevels  int
	nBounds  int
	nAssigns int
	ordBase  int // the procedure's unit statements before this unit's
	arrIdx   map[string]int
	curRefs  []KRefCheck
	noArray  bool // inside an if condition: array reads are ineligible
	ok       bool
}

type kscopeEntry struct {
	name  string
	level int
}

func (c *kcut) tryKernelUnit(l *ir.Loop, depth int) *KernelUnit {
	x := &kextract{
		kcut: c,
		u: &KernelUnit{
			Proc:      c.pp.proc.Name,
			RootID:    l.ID,
			RootDepth: depth,
			SlotNames: map[int]string{},
			pp:        c.pp,
		},
		arrIdx: map[string]int{},
		ok:     true,
	}
	x.ordBase = c.pp.nAssigns
	root := x.loop(l)
	if !x.ok || x.nAssigns == 0 {
		return nil
	}
	c.pp.nAssigns += x.nAssigns
	x.u.Root = root
	x.u.NumLevels = x.nLevels
	x.u.NumBounds = x.nBounds
	x.u.Points = x.points(root)
	return x.u
}

func (x *kextract) fail() {
	x.ok = false
}

func (x *kextract) lookupScope(name string) (int, bool) {
	for i := len(x.scope) - 1; i >= 0; i-- {
		if x.scope[i].name == name {
			return x.scope[i].level, true
		}
	}
	return 0, false
}

// addSlot records a name whose slot an invocation loads, once.
func addSlot(list []slotName, name string, slot int) []slotName {
	for _, v := range list {
		if v.slot == slot {
			return list
		}
	}
	return append(list, slotName{name: name, slot: slot})
}

// islot resolves an integer name the unit reads from its slot.
func (x *kextract) islot(name string) int {
	s := x.ep.intSlot[name] // numbered: the walk of engine.go met every name
	x.u.SlotNames[s] = name
	x.u.ints = addSlot(x.u.ints, name, s)
	return s
}

// fslot resolves a scalar name the unit reads or stores.
func (x *kextract) fslot(name string) int {
	s := x.pp.floatSlot[name]
	x.u.floats = addSlot(x.u.floats, name, s)
	return s
}

// loop converts one loop level.
func (x *kextract) loop(l *ir.Loop) *KLoop {
	if !x.ok {
		return nil
	}
	if l.Step != 1 && l.Step != -1 {
		x.fail()
		return nil
	}
	clamp, ok := x.pp.clampOf[l.ID]
	if !ok {
		clamp = -1
	}
	// Lo/Hi are converted before this level enters scope: the interpreter
	// evaluates them with the loop's own variable still holding its
	// pre-entry binding, which is what its slot holds for the invocation.
	kl := &KLoop{
		Var:      l.Var,
		Slot:     x.ep.intSlot[l.Var],
		Level:    x.nLevels,
		Step:     l.Step,
		Lo:       x.aff(l.Lo),
		Hi:       x.aff(l.Hi),
		ClampIdx: clamp,
		WinIdx:   x.nBounds,
	}
	x.nLevels++
	x.nBounds += 2
	x.scope = append(x.scope, kscopeEntry{name: l.Var, level: kl.Level})
	kl.Body = x.stmts(l.Body)
	x.scope = x.scope[:len(x.scope)-1]
	return kl
}

func (x *kextract) stmts(body []ir.Stmt) []KStmt {
	var out []KStmt
	for _, s := range body {
		if !x.ok {
			return nil
		}
		switch st := s.(type) {
		case *ir.Assign:
			out = append(out, x.assign(st))
		case *ir.Loop:
			out = append(out, x.loop(st))
		case *ir.IfStmt:
			out = append(out, x.ifStmt(st))
		}
	}
	return out
}

func (x *kextract) assign(a *ir.Assign) *KAssign {
	gi := x.pp.guardOf[a.ID]
	nestSlots := x.pp.guardStmts[gi].nestSlots
	kd := len(nestSlots) - x.u.RootDepth
	if kd != len(x.scope) || kd < 1 {
		x.fail()
		return nil
	}
	// The loops enclosing the root hold the outer point of the guard: the
	// precheck reads their slots.
	for k, l := range x.ps.Nest[a.ID][:x.u.RootDepth] {
		x.u.ints = addSlot(x.u.ints, l.Var, nestSlots[k])
	}
	x.u.outer = nestSlots[:x.u.RootDepth]
	levels := make([]int, kd)
	for i, sc := range x.scope {
		levels[i] = sc.level
	}
	x.curRefs = nil
	rhs := x.expr(a.RHS)
	ka := &KAssign{
		GuardIdx:  gi,
		NestSlots: nestSlots,
		Levels:    levels,
		BoundsIdx: x.nBounds,
		KDims:     kd,
		MaxBoxes:  1,
		RHS:       rhs,
		Flops:     flopsOf(a),
	}
	// IterSet unions one box per CP term, so only a multi-term CP can
	// give this rank a guard of more than one box.
	if len(x.sel.CPOf(a.ID).Terms) > 1 {
		ka.MaxBoxes = KernelGuardBoxes
		x.nBounds++ // the packed-box count
	}
	x.nBounds += ka.MaxBoxes * 2 * kd
	if lhs := a.LHS; len(lhs.Subs) == 0 {
		ka.Scalar = true
		ka.FSlot = x.fslot(lhs.Name)
		x.u.stores = addSlot(x.u.stores, lhs.Name, ka.FSlot)
	} else {
		ka.Arr, ka.Subs = x.arefParts(lhs)
	}
	ka.Refs = x.curRefs
	x.curRefs = nil
	if !x.ok {
		return nil
	}
	ka.ord = x.ordBase + x.nAssigns
	ka.boxRefs = x.boxRefs(ka)
	x.nAssigns++
	return ka
}

// boxRefs restates st's accesses over its guard box, for the precheck's
// once-per-activation proof.  The box bounds every variable a subscript
// can read but the fixed ones: a kernel level through its kernel
// dimension, a loop enclosing the root through its outer dimension (the
// precheck drops a box its point misses).  nil when some subscript reads
// any other slot.
func (x *kextract) boxRefs(st *KAssign) []KRefCheck {
	outer := st.NestSlots[:x.u.RootDepth]
	ok := true
	term := func(local bool, level, slot int) (bool, int, int) {
		if local {
			return true, x.u.RootDepth + slices.Index(st.Levels, level), 0
		}
		if k := slices.Index(outer, slot); k >= 0 {
			return true, k, 0
		}
		ok = ok && x.fixed(x.u.SlotNames[slot])
		return false, 0, slot
	}
	out := make([]KRefCheck, len(st.Refs))
	for i, rc := range st.Refs {
		out[i] = KRefCheck{Arr: rc.Arr, Subs: slices.Clone(rc.Subs)}
		for k := range out[i].Subs {
			s := &out[i].Subs[k]
			s.Off.Terms = slices.Clone(s.Off.Terms)
			for j := range s.Off.Terms {
				t := &s.Off.Terms[j]
				t.Local, t.Level, t.Slot = term(t.Local, t.Level, t.Slot)
			}
			if s.HasVar {
				s.VarLocal, s.Level, s.VarSlot = term(s.VarLocal, s.Level, s.VarSlot)
			}
		}
	}
	if !ok {
		return nil
	}
	return out
}

func (x *kextract) ifStmt(st *ir.IfStmt) *KIf {
	if _, known := kcompare[st.Cond.Op]; !known {
		x.fail()
		return nil
	}
	// The interpreter evaluates the condition on every enclosing
	// iteration point regardless of guards; that is only reproducible
	// without bounds analysis if the condition cannot touch arrays.
	x.noArray = true
	l := x.expr(st.Cond.L)
	r := x.expr(st.Cond.R)
	x.noArray = false
	ki := &KIf{Op: st.Cond.Op, L: l, R: r}
	ki.Then = x.stmts(st.Then)
	ki.Els = x.stmts(st.Else)
	if !x.ok {
		return nil
	}
	return ki
}

func (x *kextract) expr(e ir.Expr) KExpr {
	if !x.ok {
		return nil
	}
	switch v := e.(type) {
	case ir.FloatConst:
		return KConst{Val: v.Val}
	case ir.IndexRef:
		return x.intName(v.Name)
	case ir.ParamRef:
		return x.intName(v.Name)
	case ir.ScalarRef:
		if lv, in := x.lookupScope(v.Name); in {
			return KScalarLocal{FSlot: x.fslot(v.Name), Level: lv}
		}
		return KScalar{FSlot: x.fslot(v.Name), ISlot: x.islot(v.Name)}
	case *ir.ArrayRef:
		if x.noArray {
			x.fail()
			return nil
		}
		ai, subs := x.arefParts(v)
		if !x.ok {
			return nil
		}
		return &KARead{Arr: ai, Subs: subs}
	case *ir.Bin:
		if strings.IndexByte(kbinOps, v.Op) < 0 {
			x.fail()
			return nil
		}
		l := x.expr(v.L)
		r := x.expr(v.R)
		if !x.ok {
			return nil
		}
		return &KBin{Op: v.Op, L: l, R: r}
	case *ir.Intrinsic:
		if in, known := kintrinsics[v.Name]; !known || in.arity != len(v.Args) {
			x.fail()
			return nil
		}
		args := make([]KExpr, len(v.Args))
		for i, a := range v.Args {
			args[i] = x.expr(a)
		}
		if !x.ok {
			return nil
		}
		return &KIntrin{Name: v.Name, Args: args}
	}
	x.fail()
	return nil
}

// intName resolves an IndexRef/ParamRef: an in-scope kernel loop
// variable reads the loop local; anything else reads its integer slot,
// whose value is invariant for the whole invocation (kernels never write
// integer slots).
func (x *kextract) intName(name string) KExpr {
	if lv, in := x.lookupScope(name); in {
		return KLocal{Level: lv}
	}
	return KSlotInt{Slot: x.islot(name)}
}

// arefParts converts an array access and queues its precheck entry.
func (x *kextract) arefParts(ar *ir.ArrayRef) (int, []KSub) {
	ai := x.array(ar.Name)
	if !x.ok {
		return 0, nil
	}
	if len(ar.Subs) != len(x.u.Arrays[ai].Lo) {
		x.fail()
		return 0, nil
	}
	subs := make([]KSub, len(ar.Subs))
	for k, s := range ar.Subs {
		subs[k] = x.sub(s)
	}
	x.curRefs = append(x.curRefs, KRefCheck{Arr: ai, Subs: subs})
	return ai, subs
}

// array resolves a name to a unit array with compile-time geometry.
// Declared bounds must be affine in program parameters only, so lo, hi
// and the row-major strides are constants the emitted code can inline;
// the runtime precheck re-verifies the live array against them (a
// formal's dummy shape may differ from the actual — then the unit simply
// does not run).
func (x *kextract) array(name string) int {
	if ai, ok := x.arrIdx[name]; ok {
		return ai
	}
	d := x.pp.proc.DeclOf(name)
	if d == nil || d.Rank() == 0 {
		x.fail()
		return 0
	}
	rank := d.Rank()
	ka := KArray{ASlot: x.pp.arraySlot[name], Name: name, Lo: make([]int, rank), Hi: make([]int, rank), Stride: make([]int, rank)}
	for k := 0; k < rank; k++ {
		lo, ok1 := x.paramAff(d.LB[k])
		hi, ok2 := x.paramAff(d.UB[k])
		if !ok1 || !ok2 {
			x.fail()
			return 0
		}
		ka.Lo[k], ka.Hi[k] = lo, hi
	}
	size := 1
	for k := rank - 1; k >= 0; k-- {
		ka.Stride[k] = size
		w := ka.Hi[k] - ka.Lo[k] + 1
		if w < 0 {
			w = 0
		}
		size *= w
	}
	ai := len(x.u.Arrays)
	x.u.Arrays = append(x.u.Arrays, ka)
	x.arrIdx[name] = ai
	return ai
}

// paramAff evaluates a declaration-bound affine over parameters alone,
// matching frame.reset's evalAff when every term is a parameter.
func (x *kextract) paramAff(a ir.AffExpr) (int, bool) {
	v := a.Const
	for _, t := range a.Terms {
		pv, ok := x.params[t.Name]
		if !ok {
			return 0, false
		}
		v += t.Coef * pv
	}
	return v, true
}

func (x *kextract) aff(a ir.AffExpr) KAff {
	out := KAff{Const: a.Const}
	for _, t := range a.Terms {
		if lv, in := x.lookupScope(t.Name); in {
			out.Terms = append(out.Terms, KTerm{Coef: t.Coef, Local: true, Level: lv})
		} else {
			out.Terms = append(out.Terms, KTerm{Coef: t.Coef, Slot: x.islot(t.Name)})
		}
	}
	return out
}

func (x *kextract) sub(s ir.Subscript) KSub {
	out := KSub{Off: x.aff(s.Off)}
	if s.Var == "" {
		return out
	}
	out.HasVar = true
	out.Coef = s.Coef
	if lv, in := x.lookupScope(s.Var); in {
		out.VarLocal = true
		out.Level = lv
	} else {
		out.VarSlot = x.islot(s.Var)
	}
	return out
}

// points estimates the unit's iteration points per invocation from
// parameter-resolvable loop bounds (levels with data-dependent bounds
// contribute a factor of 1 — a deliberate underestimate).
func (x *kextract) points(kl *KLoop) float64 {
	trip := 1.0
	if lo, ok1 := x.staticAff(kl.Lo); ok1 {
		if hi, ok2 := x.staticAff(kl.Hi); ok2 {
			n := hi - lo + 1
			if kl.Step < 0 {
				n = lo - hi + 1
			}
			if n < 0 {
				n = 0
			}
			trip = float64(n)
		}
	}
	inner := 0.0
	any := false
	for _, s := range kl.Body {
		if il, ok := s.(*KLoop); ok {
			inner += x.points(il)
			any = true
		}
	}
	if !any {
		return trip
	}
	return trip * inner
}

func (x *kextract) staticAff(a KAff) (int, bool) {
	v := a.Const
	for _, t := range a.Terms {
		if t.Local {
			return 0, false
		}
		name, ok := x.u.SlotNames[t.Slot]
		if !ok {
			return 0, false
		}
		pv, ok := x.params[name]
		if !ok {
			return 0, false
		}
		v += t.Coef * pv
	}
	return v, true
}
