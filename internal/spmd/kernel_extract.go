package spmd

// kernel_extract.go lowers loop subtrees of the engine plan's compute
// nests to KernelUnit specs.  Extraction is conservative: a subtree
// qualifies only when the runtime precheck plus the emitted flat code can
// reproduce the closure tree's behaviour exactly — same FP operations
// and order, same flop accumulation, same guard decisions, same stores —
// so shapes whose bounds safety interval analysis cannot establish are
// simply left to the closures.  Units are cut from claimed nests only,
// so every operator, intrinsic and comparison met here is one the closure
// compiler lowered.  Maximal qualifying subtrees are chosen: if a loop
// qualifies, its descendants are covered by the same unit; if not, its
// body is scanned for smaller roots.

import (
	"dhpf/internal/cp"
	"dhpf/internal/ir"
)

// KernelUnits returns the program's specializable loop nests, extracted
// once and shared.  The list is deterministic (procedure order, then
// body order) and empty for a program the schedule cannot walk.
func (p *Program) KernelUnits() []*KernelUnit {
	p.kuOnce.Do(func() {
		if ep := p.enginePlanFor(); ep != nil {
			for _, n := range ep.roots {
				scanKernelRoots(ep, n.pp, []planStmt{n.root}, p)
			}
		}
		p.kbind.native = make([]KernelFunc, len(p.kbind.units))
	})
	return p.kbind.units
}

func scanKernelRoots(ep *enginePlan, pp *procPlan, body []planStmt, p *Program) {
	for _, s := range body {
		switch st := s.(type) {
		case *pLoop:
			if u := tryKernelUnit(ep, pp, p.Ctx.Bind.Params, p.Sel, st); u != nil {
				st.unit = len(p.kbind.units)
				p.kbind.units = append(p.kbind.units, u)
				sc := &p.kbind.scratch
				sc.arrays = max(sc.arrays, len(u.Arrays))
				sc.bounds = max(sc.bounds, u.NumBounds)
				sc.levels = max(sc.levels, u.NumLevels)
				sc.refs = max(sc.refs, u.numRefs)
				sc.assigns = max(sc.assigns, u.numAssigns)
			} else {
				scanKernelRoots(ep, pp, st.body, p)
			}
		case *pIf:
			scanKernelRoots(ep, pp, st.then, p)
			scanKernelRoots(ep, pp, st.els, p)
		}
	}
}

// kextract converts one candidate subtree; any unsupported construct
// flips ok and the candidate is abandoned.
type kextract struct {
	ep     *enginePlan
	pp     *procPlan
	params map[string]int
	sel    *cp.Selection
	u      *KernelUnit

	scope    []kscopeEntry // in-scope kernel loops, outer → inner
	nLevels  int
	nBounds  int
	nAssigns int
	nRefs    int
	arrIdx   map[string]int
	curRefs  []KRefCheck
	noArray  bool // inside an if condition: array reads are ineligible
	ok       bool
}

type kscopeEntry struct {
	name  string
	level int
}

func tryKernelUnit(ep *enginePlan, pp *procPlan, params map[string]int, sel *cp.Selection, pl *pLoop) *KernelUnit {
	x := &kextract{
		ep: ep, pp: pp, params: params, sel: sel,
		u: &KernelUnit{
			Proc:      pp.proc.Name,
			RootID:    pl.l.ID,
			RootDepth: pl.depth,
			SlotNames: map[int]string{},
		},
		arrIdx: map[string]int{},
		ok:     true,
	}
	root := x.loop(pl)
	if !x.ok || x.nAssigns == 0 {
		return nil
	}
	x.u.Root = root
	x.u.NumLevels = x.nLevels
	x.u.NumBounds = x.nBounds
	x.u.numRefs, x.u.numAssigns = x.nRefs, x.nAssigns
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

func (x *kextract) islot(name string) int {
	s, ok := x.ep.intSlot[name]
	if !ok {
		// Plan compilation registered a slot for every referenced name;
		// a miss means the construct never went through compileExpr.
		x.fail()
		return 0
	}
	x.u.SlotNames[s] = name
	return s
}

// loop converts one pLoop level.  Whatever fires at the unit root's
// boundary fires outside its iteration, and inside a compute nest no
// interior loop has a boundary.
func (x *kextract) loop(pl *pLoop) *KLoop {
	if !x.ok {
		return nil
	}
	if pl.l.Step != 1 && pl.l.Step != -1 {
		x.fail()
		return nil
	}
	// Lo/Hi are converted before this level enters scope: the closure
	// engine evaluates them with the loop's own slot still holding its
	// pre-entry value, which slot restoration keeps invariant across
	// repeated entries within one kernel invocation.
	kl := &KLoop{
		Var:      pl.l.Var,
		Slot:     pl.varSlot,
		Level:    x.nLevels,
		Step:     pl.l.Step,
		Lo:       x.aff(pl.l.Lo),
		Hi:       x.aff(pl.l.Hi),
		ClampIdx: pl.clampIdx,
		WinIdx:   x.nBounds,
	}
	x.nLevels++
	x.nBounds += 2
	x.scope = append(x.scope, kscopeEntry{name: pl.l.Var, level: kl.Level})
	kl.Body = x.stmts(pl.body)
	x.scope = x.scope[:len(x.scope)-1]
	return kl
}

func (x *kextract) stmts(body []planStmt) []KStmt {
	var out []KStmt
	for _, s := range body {
		if !x.ok {
			return nil
		}
		switch st := s.(type) {
		case *pAssign:
			out = append(out, x.assign(st))
		case *pLoop:
			out = append(out, x.loop(st))
		case *pIf:
			out = append(out, x.ifStmt(st))
		}
	}
	return out
}

func (x *kextract) assign(st *pAssign) *KAssign {
	kd := len(st.nestSlots) - x.u.RootDepth
	if kd != len(x.scope) || kd < 1 {
		x.fail()
		return nil
	}
	levels := make([]int, kd)
	for i, sc := range x.scope {
		levels[i] = sc.level
	}
	x.curRefs = nil
	rhs := x.expr(st.a.RHS)
	ka := &KAssign{
		GuardIdx:  st.guardIdx,
		NestSlots: st.nestSlots,
		Levels:    levels,
		BoundsIdx: x.nBounds,
		KDims:     kd,
		MaxBoxes:  1,
		RHS:       rhs,
		Flops:     st.flops,
	}
	// IterSet unions one box per CP term, so only a multi-term CP can
	// give this rank a guard of more than one box.
	if len(x.sel.CPOf(st.a.ID).Terms) > 1 {
		ka.MaxBoxes = KernelGuardBoxes
		x.nBounds++ // the packed-box count
	}
	x.nBounds += ka.MaxBoxes * 2 * kd
	lhs := st.a.LHS
	if len(lhs.Subs) == 0 {
		fs, ok := x.pp.floatSlot[lhs.Name]
		if !ok {
			x.fail()
			return nil
		}
		ka.Scalar = true
		ka.FSlot = fs
	} else {
		ai, subs := x.arefParts(lhs)
		ka.Arr = ai
		ka.Subs = subs
	}
	ka.Refs = x.curRefs
	x.nRefs += len(ka.Refs)
	x.curRefs = nil
	if !x.ok {
		return nil
	}
	x.nAssigns++
	return ka
}

func (x *kextract) ifStmt(st *pIf) *KIf {
	// The closure engine evaluates the condition on every enclosing
	// iteration point regardless of guards; that is only reproducible
	// without bounds analysis if the condition cannot touch arrays.
	x.noArray = true
	l := x.expr(st.cond.L)
	r := x.expr(st.cond.R)
	x.noArray = false
	ki := &KIf{Op: st.cond.Op, L: l, R: r}
	ki.Then = x.stmts(st.then)
	ki.Els = x.stmts(st.els)
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
		fs, ok := x.pp.floatSlot[v.Name]
		if !ok {
			x.fail()
			return nil
		}
		if lv, in := x.lookupScope(v.Name); in {
			return KScalarLocal{FSlot: fs, Level: lv}
		}
		return KScalar{FSlot: fs, ISlot: x.islot(v.Name)}
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
		l := x.expr(v.L)
		r := x.expr(v.R)
		if !x.ok {
			return nil
		}
		return &KBin{Op: v.Op, L: l, R: r}
	case *ir.Intrinsic:
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
// whose value is invariant for the whole invocation (kernels never
// write slots, and interior loops restore them on exit exactly like
// iteratePlanLoop).
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
	if !x.ok {
		return 0, nil
	}
	x.curRefs = append(x.curRefs, KRefCheck{Arr: ai, Subs: subs})
	return ai, subs
}

// array resolves a name to a unit array with compile-time geometry.
// Declared bounds must be affine in program parameters only, so lo, hi
// and the row-major strides are constants the emitted code can inline;
// the runtime precheck re-verifies the live array against them (a
// formal's dummy shape may differ from the actual — then the kernel
// simply does not run).
func (x *kextract) array(name string) int {
	if ai, ok := x.arrIdx[name]; ok {
		return ai
	}
	aslot, ok := x.pp.arraySlot[name]
	if !ok {
		x.fail()
		return 0
	}
	d := x.pp.proc.DeclOf(name)
	if d == nil || d.Rank() == 0 {
		x.fail()
		return 0
	}
	rank := d.Rank()
	ka := KArray{ASlot: aslot, Name: name, Lo: make([]int, rank), Hi: make([]int, rank), Stride: make([]int, rank)}
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
// matching pushFrame's EvalOr(Bind, 0) when every term is a parameter.
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
