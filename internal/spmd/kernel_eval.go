package spmd

// kernel_eval.go is the in-process back end of the kernel spec: where
// internal/codegen emits a KernelUnit as Go source, this file lowers the
// same unit to a closure tree, and both run behind the one precheck of
// kernel_invoke.go.  The evaluator therefore has the emitted code's
// semantics, not the interpreter's: loop variables are locals, never
// slot writes; an array access is one folded linear form over the unit's
// inlined geometry with no per-dimension range check (the precheck proved
// it in bounds); a guard is a test against the boxes packed in bounds[];
// every floating-point operation is one node, in the expression tree's
// order; flops accumulate per executed statement in iteration order.  Two
// things the emitted code computes at every point are computed once per
// loop entry instead, neither observable: the part of each array index
// that the loop's own variable does not move, and the range of that
// variable over which each statement's guard passes.  A built evaluator
// is immutable and shared by every rank of every execution; all
// per-invocation state lives in the rank's kenv.

import (
	"math"
	"slices"
)

// kenv is one rank's evaluator state: the kernel ABI's arguments plus
// the loop locals and what loops hoist to their entry, reused across
// invocations.
type kenv struct {
	loc    []int // loop locals, by KLoop.Level
	off    []int // per array access: its flat index less the innermost loop's term
	rng    []int // per assignment: lo, hi of the innermost local its guard passes, and whether boxes must still be tested
	ints   []int
	intSet []bool
	floats []float64
	fset   []bool
	arrays [][]float64
	bounds []int
	flops  float64
}

type (
	kvalFn  func(*kenv) float64
	kintFn  func(*kenv) int
	kstmtFn func(*kenv)
)

// kterm is one term coef·x of a linear form; at is a loop level or an
// integer slot.
type kterm struct{ coef, at int }

// klin is a linear form c + Σ slot terms + Σ local terms, terms sorted.
type klin struct {
	c             int
	slots, locals []kterm
}

func (l *klin) add(coef int, local bool, at int) {
	ts := &l.slots
	if local {
		ts = &l.locals
	}
	i := 0
	for i < len(*ts) && (*ts)[i].at < at {
		i++
	}
	if i < len(*ts) && (*ts)[i].at == at {
		(*ts)[i].coef += coef
		return
	}
	*ts = append(*ts, kterm{})
	copy((*ts)[i+1:], (*ts)[i:])
	(*ts)[i] = kterm{coef, at}
}

func (l *klin) addAff(a KAff, scale int) {
	l.c += a.Const * scale
	for _, t := range a.Terms {
		if t.Local {
			l.add(t.Coef*scale, true, t.Level)
		} else {
			l.add(t.Coef*scale, false, t.Slot)
		}
	}
}

// eval sums the form's terms, without c.
func (l *klin) eval(e *kenv) int {
	v := 0
	for _, t := range l.slots {
		v += t.coef * e.ints[t.at]
	}
	for _, t := range l.locals {
		v += t.coef * e.loc[t.at]
	}
	return v
}

// evaluator returns the unit's evaluator — its lowered root loop — built
// on first use: a program whose units all run native kernels never pays
// for one.
func (u *KernelUnit) evaluator() kstmtFn {
	u.evOnce.Do(func() { u.ev = (&kevalBuilder{u: u}).loop(u.Root) })
	return u.ev
}

// kloopEntry is what one loop hoists to its entry for the statements
// directly in its body (through ifs), whose innermost local is the
// loop's own: everything else in their array indices and guards is fixed
// while the loop runs.
type kloopEntry struct {
	level int
	// offs groups the body's array accesses by the part of their index
	// that is not the loop's own term — accesses to same-shaped arrays
	// under the same subscripts share it — so entry costs one sum per
	// group and one addition per access.
	offs   []koffGroup
	guards []kguardEntry
	pure   bool // no nested loop: the range may shrink to the statements' own
}

type koffGroup struct {
	rest    klin // slot and outer-local terms; c unused
	members []koffMember
}

type koffMember struct{ ai, c int }

// kguardEntry is one body statement's guard as the precheck packed it.
type kguardEntry struct {
	si, at, kdims int
	multi         bool  // KAssign.MaxBoxes > 1: a box count, then the boxes
	outer         []int // levels of the dimensions above the loop's own
}

// enter runs the hoists and returns the hull of the guards' ranges.
func (h *kloopEntry) enter(e *kenv) (int, int) {
	for i := range h.offs {
		g := &h.offs[i]
		s := g.rest.eval(e)
		for _, m := range g.members {
			e.off[m.ai] = m.c + s
		}
	}
	rlo, rhi := math.MaxInt, math.MinInt
	for i := range h.guards {
		g := &h.guards[i]
		r := e.rng[3*g.si : 3*g.si+3]
		g.rangeOf(e, r)
		if r[0] <= r[1] {
			rlo, rhi = min(rlo, r[0]), max(rhi, r[1])
		}
	}
	return rlo, rhi
}

// rangeOf sets r to the values of the loop's own local at which the
// statement's guard passes, the outer locals being fixed: of the packed
// boxes that hold the outer point, the own-dimension intervals.  The
// boxes are disjoint, so the intervals are; r[2] says they leave a gap
// inside their hull, where the per-point box test still decides.
func (g *kguardEntry) rangeOf(e *kenv, r []int) {
	q, n, w := e.bounds[g.at:], 1, 2*g.kdims
	if g.multi {
		q, n = q[1:], q[0]
	}
	lo, hi, covered := math.MaxInt, math.MinInt, 0
	for ; n > 0; n, q = n-1, q[w:] {
		in := true
		for d, lv := range g.outer {
			if v := e.loc[lv]; v < q[2*d] || v > q[2*d+1] {
				in = false
				break
			}
		}
		if bl, bh := q[w-2], q[w-1]; in && bl <= bh {
			lo, hi = min(lo, bl), max(hi, bh)
			covered += bh - bl + 1
		}
	}
	if covered == 0 {
		lo, hi = 1, 0
	}
	r[0], r[1], r[2] = lo, hi, 0
	if covered != hi-lo+1 {
		r[2] = 1
	}
}

type kevalBuilder struct {
	u    *KernelUnit
	cur  *kloopEntry // the loop whose body is being lowered
	nAcc int
	nAsg int
}

// index folds an access to its flat row-major index over the array's
// inlined Lo/Stride, registers everything but the current loop's own
// term for hoisting, and returns the access's ordinal and that term's
// coefficient.  Integer arithmetic wraps the same way folded or not, so
// the index equals the emitted code's Σ (sub−lo)·stride bit for bit.
func (b *kevalBuilder) index(arr int, subs []KSub) (ai, coef int) {
	ka := &b.u.Arrays[arr]
	var l klin
	for k, s := range subs {
		st := ka.Stride[k]
		l.c -= ka.Lo[k] * st
		l.addAff(s.Off, st)
		if s.HasVar && s.VarLocal {
			l.add(s.Coef*st, true, s.Level)
		} else if s.HasVar {
			l.add(s.Coef*st, false, s.VarSlot)
		}
	}
	for i, t := range l.locals {
		if t.at == b.cur.level {
			coef = t.coef
			l.locals = append(l.locals[:i:i], l.locals[i+1:]...)
			break
		}
	}
	ai = b.nAcc
	b.nAcc++
	m := koffMember{ai, l.c}
	for i := range b.cur.offs {
		g := &b.cur.offs[i]
		if slices.Equal(g.rest.slots, l.slots) && slices.Equal(g.rest.locals, l.locals) {
			g.members = append(g.members, m)
			return ai, coef
		}
	}
	b.cur.offs = append(b.cur.offs, koffGroup{rest: l, members: []koffMember{m}})
	return ai, coef
}

// aff lowers a loop bound: slot terms are read at loop entry, as the
// emitted code reads its hoisted slot locals.
func (b *kevalBuilder) aff(a KAff) kintFn {
	var l klin
	l.addAff(a, 1)
	c := l.c
	switch {
	case len(l.locals) == 0 && len(l.slots) == 0:
		return func(*kenv) int { return c }
	case len(l.locals) == 0 && len(l.slots) == 1:
		k, s := l.slots[0].coef, l.slots[0].at
		return func(e *kenv) int { return c + k*e.ints[s] }
	}
	return func(e *kenv) int { return c + l.eval(e) }
}

func (b *kevalBuilder) stmts(body []KStmt) []kstmtFn {
	out := make([]kstmtFn, len(body))
	for i, s := range body {
		switch st := s.(type) {
		case *KLoop:
			b.cur.pure = false
			out[i] = b.loop(st)
		case *KAssign:
			out[i] = b.assign(st)
		case *KIf:
			out[i] = b.ifStmt(st)
		}
	}
	return out
}

func runStmts(body []kstmtFn, e *kenv) {
	for _, s := range body {
		s(e)
	}
}

// loop lowers one level: bounds from the affine forms, then the window
// the precheck packed, exactly the emitted code's clamping; then the
// entry hoists, and for a loop of statements only the range shrinks to
// the hull of their guards' ranges — iterations on which none runs.
func (b *kevalBuilder) loop(kl *KLoop) kstmtFn {
	loF, hiF, lv, w := b.aff(kl.Lo), b.aff(kl.Hi), kl.Level, kl.WinIdx
	outer := b.cur
	h := &kloopEntry{level: lv, pure: true}
	b.cur = h
	body := b.stmts(kl.Body)
	b.cur = outer
	if kl.Step > 0 {
		return func(e *kenv) {
			lo, hi := max(loF(e), e.bounds[w]), min(hiF(e), e.bounds[w+1])
			if lo > hi {
				return
			}
			if rlo, rhi := h.enter(e); h.pure {
				lo, hi = max(lo, rlo), min(hi, rhi)
			}
			for v := lo; v <= hi; v++ {
				e.loc[lv] = v
				runStmts(body, e)
			}
		}
	}
	return func(e *kenv) {
		lo, hi := min(loF(e), e.bounds[w+1]), max(hiF(e), e.bounds[w])
		if lo < hi {
			return
		}
		if rlo, rhi := h.enter(e); h.pure {
			lo, hi = min(lo, rhi), max(hi, rlo)
		}
		for v := lo; v >= hi; v-- {
			e.loc[lv] = v
			runStmts(body, e)
		}
	}
}

func (b *kevalBuilder) ifStmt(ki *KIf) kstmtFn {
	l, r := b.expr(ki.L), b.expr(ki.R)
	then, els := b.stmts(ki.Then), b.stmts(ki.Els)
	cmp := kcompare[ki.Op]
	return func(e *kenv) {
		if cmp(l(e), r(e)) {
			runStmts(then, e)
		} else {
			runStmts(els, e)
		}
	}
}

// boxes lowers a multi-box statement's per-point test over the kernel
// dimensions against the boxes the precheck packed (KAssign's bounds
// layout); it decides where the hoisted range has a gap.
func (b *kevalBuilder) boxes(ka *KAssign) func(*kenv) bool {
	at, levels, w := ka.BoundsIdx, ka.Levels, 2*ka.KDims
	return func(e *kenv) bool {
		q := e.bounds[at+1:]
	next:
		for n := e.bounds[at]; n > 0; n, q = n-1, q[w:] {
			for d, lv := range levels {
				if v := e.loc[lv]; v < q[2*d] || v > q[2*d+1] {
					continue next
				}
			}
			return true
		}
		return false
	}
}

// assign lowers guard → evaluate → count flops → store, the emitted
// statement's sequence, the guard being the range its loop hoisted.
func (b *kevalBuilder) assign(ka *KAssign) kstmtFn {
	si, lv := b.nAsg, b.cur.level
	b.nAsg++
	b.cur.guards = append(b.cur.guards, kguardEntry{si: si, at: ka.BoundsIdx, kdims: ka.KDims,
		multi: ka.MaxBoxes > 1, outer: ka.Levels[:ka.KDims-1]})
	boxes := func(*kenv) bool { return true } // one box leaves no gap: never asked
	if ka.MaxBoxes > 1 {
		boxes = b.boxes(ka)
	}
	rhs, fl := b.expr(ka.RHS), ka.Flops
	var store func(*kenv, float64)
	if ka.Scalar {
		fs := ka.FSlot
		store = func(e *kenv, v float64) { e.floats[fs], e.fset[fs] = v, true }
	} else {
		arr := ka.Arr
		ai, k := b.index(arr, ka.Subs)
		store = func(e *kenv, v float64) { e.arrays[arr][e.off[ai]+k*e.loc[lv]] = v }
	}
	return func(e *kenv) {
		r := e.rng[3*si : 3*si+3]
		if v := e.loc[lv]; v < r[0] || v > r[1] || r[2] != 0 && !boxes(e) {
			return
		}
		v := rhs(e)
		e.flops += fl
		store(e, v)
	}
}

// read lowers an array element read: the hoisted part of the index plus
// the innermost loop's term.
func (b *kevalBuilder) read(x *KARead) kvalFn {
	arr, lv := x.Arr, b.cur.level
	ai, k := b.index(arr, x.Subs)
	if k == 0 {
		return func(e *kenv) float64 { return e.arrays[arr][e.off[ai]] }
	}
	return func(e *kenv) float64 { return e.arrays[arr][e.off[ai]+k*e.loc[lv]] }
}

// expr lowers an expression: one closure per node, so no operation can
// fuse with its neighbour and results stay bit-identical to the emitted
// code's float64(...)-wrapped operations.
func (b *kevalBuilder) expr(x KExpr) kvalFn {
	switch x := x.(type) {
	case KConst:
		v := x.Val
		return func(*kenv) float64 { return v }
	case KLocal:
		lv := x.Level
		return func(e *kenv) float64 { return float64(e.loc[lv]) }
	case KSlotInt:
		s := x.Slot
		return func(e *kenv) float64 { return float64(e.ints[s]) }
	case KScalar:
		fs, is := x.FSlot, x.ISlot
		return func(e *kenv) float64 {
			if e.fset[fs] {
				return e.floats[fs]
			}
			if e.intSet[is] {
				return float64(e.ints[is])
			}
			return 0
		}
	case KScalarLocal:
		fs, lv := x.FSlot, x.Level
		return func(e *kenv) float64 {
			if e.fset[fs] {
				return e.floats[fs]
			}
			return float64(e.loc[lv])
		}
	case *KARead:
		return b.read(x)
	case *KBin:
		l, r := b.expr(x.L), b.expr(x.R)
		switch x.Op {
		case '+':
			return func(e *kenv) float64 { return l(e) + r(e) }
		case '-':
			return func(e *kenv) float64 { return l(e) - r(e) }
		case '*':
			return func(e *kenv) float64 { return l(e) * r(e) }
		case '/':
			return func(e *kenv) float64 { return l(e) / r(e) }
		}
	case *KIntrin:
		return b.intrin(x)
	}
	panic("spmd: kernel evaluator: unknown expression")
}

func (b *kevalBuilder) intrin(x *KIntrin) kvalFn {
	in, a0 := kintrinsics[x.Name], b.expr(x.Args[0])
	if in.arity == 1 {
		f := in.f1
		return func(e *kenv) float64 { return f(a0(e)) }
	}
	f, a1 := in.f2, b.expr(x.Args[1])
	return func(e *kenv) float64 { return f(a0(e), a1(e)) }
}
