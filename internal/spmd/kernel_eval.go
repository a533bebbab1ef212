package spmd

// kernel_eval.go is the in-process back end of the kernel spec: where
// internal/codegen emits a KernelUnit as Go source, this file lowers the
// same unit to a form it interprets, and both run behind the one precheck
// of kernel_invoke.go.  The evaluator therefore has the emitted code's
// semantics, not the interpreter's: loop variables are locals, never
// slot writes; an array access is one folded linear form over the unit's
// inlined geometry with no per-dimension range check (the precheck proved
// it in bounds); a guard is a test against the boxes packed in bounds[];
// flops accumulate per executed statement in iteration order.
//
// A loop or an if is a closure; the assignments of a body are records one
// function (krun) runs in line, a right-hand side being a postfix program
// of one-byte opcodes.  An opcode is an operand kind — a constant, an
// array element, a constant times one, a loop local, a temporary — plus
// an operation, and krun's one switch over the dense opcodes is a jump
// table (CI checks): an instruction reads its operand without a call and
// applies its operation in one dispatch.  What is guaranteed of the
// arithmetic is one rounding per operation, on the expression tree's
// operands in the tree's order: each result is converted to float64
// before the next operation uses it, as in the emitted code, so no
// platform may contract two into a fused multiply-add (CI cross-compiles
// this package for arm64 and greps for one).
//
// Three things the emitted code computes at every point are computed once
// per loop entry, none observable.  The part of each array index the
// loop's own variable does not move: carried down the nest, one
// multiply-add per loop level.  The range of that variable over which each
// statement's guard passes: the packed boxes still holding the locals
// above, tested one dimension per level against each loop's whole range —
// kept from one entry to the next while the enclosing loop hands down the
// same boxes.  And every maximal operation subtree of an assignment whose
// value cannot change while the loop runs (invariant): a floating-point
// operation neither traps nor has a side effect, so only its array reads
// could show, and it is computed only at an entry where the statement's
// range is non-empty — at a point of a guard box over which the precheck
// proved every access of the statement in bounds.
//
// A built evaluator is immutable and shared by every rank of every
// execution; all per-invocation state lives in the rank's kenv.

import (
	"math"
	"math/bits"
	"slices"
	"strings"
)

// kenv is one rank's evaluator state: the kernel ABI's arguments plus
// the loop locals and what loops hoist to their entry, reused across
// invocations.
type kenv struct {
	loc    []int   // loop locals, by KLoop.Level
	v      int     // the local of the innermost loop running
	free   bool    // that loop's range is every statement's of its body: none tests its own
	shared bool    // two of the invocation's arrays are one: hoisted values are computed by their statements
	off    []int   // per loop and index part it carries down (koffGroup): its value
	cell   []kcell // per array access, and per temporary
	msk    []int   // per assignment and nest position: the guard boxes its loop inherits (kguardStep)
	ent    []int   // per loop: the guards' part of its last entry (kloopEntry.guard)
	rng    []int   // per assignment: lo, hi of the innermost local its guard passes; the boxes to test per point when they leave a gap (else 0); whether lo..hi is not empty
	ints   []int
	intSet []bool
	floats []float64
	fset   []bool
	arrays [][]float64
	bounds []int
	flops  float64
}

type kvalFn func(*kenv) float64

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

func klinOf(a KAff) (l klin) {
	l.addAff(a, 1)
	return l
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

// take removes the local term of a level and returns its coefficient.
func (l *klin) take(level int) int {
	for i, t := range l.locals {
		if t.at == level {
			l.locals = append(l.locals[:i:i], l.locals[i+1:]...)
			return t.coef
		}
	}
	return 0
}

func (l *klin) val(e *kenv) int {
	v := l.c
	for _, t := range l.slots {
		v += t.coef * e.ints[t.at]
	}
	for _, t := range l.locals {
		v += t.coef * e.loc[t.at]
	}
	return v
}

// lower builds the unit's evaluator, with the unit when its plan is built
// so that a rank's scratch can be sized for what was built, and returns
// what an invocation of the unit needs.
func (u *KernelUnit) lower() kernelScratch {
	b := &kevalBuilder{u: u}
	u.ev = &keval{root: b.loop(u.Root), arr: b.arr}
	return kernelScratch{bounds: u.NumBounds, levels: u.NumLevels, dims: u.RootDepth + u.NumLevels,
		offs: b.nOff, masks: b.nMsk, assigns: b.nAsg, cells: len(b.arr)}
}

// kloopEntry is what one loop computes at its entry: for the statements
// directly in its body (through ifs) the rest of their array indices,
// their guard ranges and their invariant subtrees — everything else in
// them is fixed while the loop runs — and for the statements of the loops
// nested in it the part of that already fixed here.
type kloopEntry struct {
	level  int
	offs   []koffGroup
	guards []kguardStep
	hoists []kstmt // toTemp statements, each si its assignment's: an invariant subtree is computed at an entry where the assignment's range is non-empty
	pure   bool    // no nested loop: the range may shrink to the statements' own
}

// kloopBuild is a loop's entry while its body is being lowered.
type kloopBuild struct {
	*kloopEntry
	up   *kloopBuild // the enclosing loop, nil at the root
	keys []klin      // per group of offs: its terms
	// What the body stores, nested loops and if arms included: scalars by
	// slot, arrays by unit index.
	scalars, arrays []int
}

// koffGroup is the part of an array index fixed at a loop's entry — its
// slot terms and the terms of the enclosing loops' locals — shared by
// every access whose index has it (same-shaped arrays under the same
// subscripts) and by the groups of nested loops built on it: entry costs
// one multiply-add per group and one addition per access.
type koffGroup struct {
	from, at int // e.off: the enclosing loop's group, which this one adds coef·local to, and its own value
	coef     int
	slots    []kterm // at the root, from -1: the slot terms
	members  []koffMember
}

type koffMember struct{ ai, c int }

// kguardStep is one statement's guard at one loop of its nest, as the
// precheck packed it.  The loop at nest position k inherits in
// e.msk[msk+k] the boxes holding the locals above it, tests their
// dimension k against the whole range it is about to run, and hands the
// next position the boxes that hold all of it — or, when some box holds
// only part, their complement: the boxes the next loop must test against
// this loop's local at each of its entries.  The statement's own loop
// takes the last dimension of the boxes left as its range.
type kguardStep struct {
	at, msk int32 // the statement's packed boxes; e.msk index of its position 0
	w, k    uint8 // ints per box; the loop's position in the statement's nest
	multi   bool  // KAssign.MaxBoxes > 1: a box count, then the boxes
	own     bool
	x       int32 // own: the statement's ordinal; else the level of the loop at position k+1
}

// enter runs the loop's entry for its values vlo..vhi and returns the hull
// of its own statements' ranges, and whether each of them is the same.
func (h *kloopEntry) enter(e *kenv, vlo, vhi int) (int, int, bool) {
	for i := range h.offs {
		g := &h.offs[i]
		s := 0
		if g.from >= 0 {
			s = e.off[g.from] + g.coef*e.v
		}
		for _, t := range g.slots {
			s += t.coef * e.ints[t.at]
		}
		e.off[g.at] = s
		for _, m := range g.members {
			e.cell[m.ai].off = m.c + s
		}
	}
	// The guards' part of the entry depends on the boxes this loop inherits
	// and on vlo..vhi only: it is the last one's again until the enclosing
	// loop hands down other boxes.
	c := e.ent[5*h.level : 5*h.level+5]
	if c[0]&1 == 0 || c[1] != vlo || c[2] != vhi {
		h.guard(e, vlo, vhi, c)
	}
	for i := range h.hoists {
		if e.rng[4*h.hoists[i].si+3] != 0 && !e.shared {
			krun(h.hoists[i:i+1], e)
		}
	}
	return c[3], c[4], c[0]&2 != 0
}

// guard runs the guards' part of an entry and leaves it in c: vlo, vhi and
// the hull of the own statements' ranges, behind two bits — 1: it holds for
// the entries to come, the boxes inherited being final; 2: the statements'
// ranges are the same.
func (h *kloopEntry) guard(e *kenv, vlo, vhi int, c []int) {
	c[0], c[1], c[2], c[3], c[4] = 3, vlo, vhi, math.MaxInt, math.MinInt
	first := true
	var f0, f1 int
	for i := range h.guards {
		g := &h.guards[i]
		w, k, msk := int(g.w), int(g.k), int(g.msk)
		q, m, loose := e.bounds[g.at:], 1, false
		if g.multi {
			q, m = q[1:], 1<<q[0]-1
		}
		if k > 0 {
			if m = e.msk[msk+k]; m < 0 {
				m, loose, c[0] = ^m, true, c[0]&^1
			}
		}
		// Of the boxes inherited — bit by bit, q[o:] the box's pairs — those
		// that hold the local above (tested here when the loop above could
		// not) are sorted by their dimension k: the boxes holding all of
		// vlo..vhi, and those holding part; for the statement's own loop
		// their hull is its range.  The boxes are disjoint, so the intervals
		// are; where they leave a gap inside their hull the per-point test
		// still decides.
		in, part, lo, hi, covered := 0, 0, math.MaxInt, math.MinInt, 0
		for o, b, bit := 2*k, m, 1; b != 0; o, b, bit = o+w, b>>1, bit<<1 {
			if b&1 == 0 || loose && (e.v < q[o-2] || e.v > q[o-1]) || q[o] > q[o+1] {
			} else if g.own {
				in, lo, hi, covered = in|bit, min(lo, q[o]), max(hi, q[o+1]), covered+q[o+1]-q[o]+1
			} else if q[o] <= vlo && vhi <= q[o+1] {
				in |= bit
			} else if q[o] <= vhi && vlo <= q[o+1] {
				part |= bit
			}
		}
		if !g.own {
			if part != 0 {
				in = ^(in | part)
			}
			e.msk[msk+k+1], e.ent[5*g.x] = in, 0
			continue
		}
		r := e.rng[4*g.x : 4*g.x+4]
		r[0], r[1], r[2], r[3] = max(lo, vlo), min(hi, vhi), 0, 0
		if covered > 0 && covered != hi-lo+1 {
			r[2] = in
		}
		if r[0] <= r[1] {
			r[3] = 1
			c[3], c[4] = min(c[3], r[0]), max(c[4], r[1])
		}
		if first {
			f0, f1, first = r[0], r[1], false
		}
		if r[2] != 0 || r[0] != f0 || r[1] != f1 {
			c[0] &^= 2
		}
	}
}

// kcell is one array access as its loop's entry left it — the array's data
// (fixed per invocation) and the flat index less the loop's own term — or
// one temporary: a value the evaluator computes ahead of its use.
type kcell struct {
	data []float64
	off  int
	val  float64
}

// kins is one instruction of an expression's code, a postfix program over
// an accumulator and a small stack.  Its opcode is its operand's kind plus
// its operation, so that one dispatch reads the operand — in line unless
// it is an opFn — and applies the operation to the accumulator and the
// operand; kPush saves the accumulator and loads the operand instead.
// The operand opPop is the accumulator itself, a right operand just
// computed, the accumulator becoming the value saved before it; as a
// right operand it is never pushed.
type kins struct {
	code byte    // an operand kind plus kPush or the operation: opRead + kMul
	c    float64 // opConst, opMulRead
	i, k int     // element reads: e.cell[i], own-term coefficient k; i is also opTemp's cell and opLocal's level
	fn   kvalFn  // opFn: what no other kind reads, called
}

// The operations, kAdd on in kbinOps' order.
const (
	kPush = iota
	kAdd
	kSub
	kMul
	kDiv
	kops
)

// The operand kinds, kops apart.
const (
	opConst = kops * iota
	opTemp
	opLocal
	opRead
	opMulRead // float64(c · element)
	opFn
	opPop

	// kstackMax bounds the stack: a right operand nested deeper is computed
	// into a temporary first.
	kstackMax = 4
)

// elem reads the element of an opRead or opMulRead at the current point.
func (in *kins) elem(e *kenv) float64 {
	a := &e.cell[in.i]
	return a.data[a.off+in.k*e.v]
}

// kstmt is one lowered statement of a loop body or if arm: a nested loop
// or if to call, or an assignment.
type kstmt struct {
	fn     func(*kenv) // a loop or an if; nil for an assignment
	si     int         // e.rng[4si:]: the range its loop computed at entry
	at, w  int         // its packed boxes and ints per box, for the test where the range has a gap
	hoists []kstmt     // its subtrees hoisted to the loop's entry
	rhs    []kins
	flops  float64
	to     uint8 // where it stores
	i, k   int   // toScalar's slot, toTemp's cell, or the element stored, as in kins
}

const (
	toArray = iota
	toScalar
	// toTemp is no assignment of the unit but a value the evaluator wants
	// in a cell — a hoisted subtree, a side of a condition, an argument:
	// unguarded, no flops.
	toTemp
)

// krun runs a body at the current point.  An assignment is guard →
// evaluate → count flops → store, the emitted statement's sequence, the
// guard being the range its loop computed at entry and, where that has a
// gap, the own dimension of the boxes left.  Evaluation is one switch
// arm per instruction, its opcode's: read the operand, apply the
// operation.  Each operation's result is converted to float64 before the
// next uses it — a constant times an element too, before the operation
// takes it: one rounding per operation, never a fused multiply-add.
func krun(body []kstmt, e *kenv) {
	var st [kstackMax]float64
	for i := range body {
		s := &body[i]
		if s.fn != nil {
			s.fn(e)
			continue
		}
		if !e.free && s.to != toTemp {
			r := e.rng[4*s.si : 4*s.si+3]
			if e.v < r[0] || e.v > r[1] {
				continue
			}
			if m := r[2]; m != 0 {
				q := e.bounds[s.at:]
				for ; m != 0; m &= m - 1 {
					if p := q[bits.TrailingZeros(uint(m))*s.w+s.w-2:]; e.v >= p[0] && e.v <= p[1] {
						break
					}
				}
				if m == 0 {
					continue
				}
			}
		}
		if e.shared {
			krun(s.hoists, e)
		}
		var acc float64
		sp := 0
		for j := range s.rhs {
			switch in := &s.rhs[j]; in.code {
			case opConst + kPush:
				st[sp&(kstackMax-1)], sp, acc = acc, sp+1, in.c
			case opConst + kAdd:
				acc = float64(acc + in.c)
			case opConst + kSub:
				acc = float64(acc - in.c)
			case opConst + kMul:
				acc = float64(acc * in.c)
			case opConst + kDiv:
				acc = float64(acc / in.c)
			case opTemp + kPush:
				st[sp&(kstackMax-1)], sp, acc = acc, sp+1, e.cell[in.i].val
			case opTemp + kAdd:
				acc = float64(acc + e.cell[in.i].val)
			case opTemp + kSub:
				acc = float64(acc - e.cell[in.i].val)
			case opTemp + kMul:
				acc = float64(acc * e.cell[in.i].val)
			case opTemp + kDiv:
				acc = float64(acc / e.cell[in.i].val)
			case opLocal + kPush:
				st[sp&(kstackMax-1)], sp, acc = acc, sp+1, float64(e.loc[in.i])
			case opLocal + kAdd:
				acc = float64(acc + float64(e.loc[in.i]))
			case opLocal + kSub:
				acc = float64(acc - float64(e.loc[in.i]))
			case opLocal + kMul:
				acc = float64(acc * float64(e.loc[in.i]))
			case opLocal + kDiv:
				acc = float64(acc / float64(e.loc[in.i]))
			case opRead + kPush:
				st[sp&(kstackMax-1)], sp, acc = acc, sp+1, in.elem(e)
			case opRead + kAdd:
				acc = float64(acc + in.elem(e))
			case opRead + kSub:
				acc = float64(acc - in.elem(e))
			case opRead + kMul:
				acc = float64(acc * in.elem(e))
			case opRead + kDiv:
				acc = float64(acc / in.elem(e))
			case opMulRead + kPush:
				st[sp&(kstackMax-1)], sp, acc = acc, sp+1, float64(in.c*in.elem(e))
			case opMulRead + kAdd:
				acc = float64(acc + float64(in.c*in.elem(e)))
			case opMulRead + kSub:
				acc = float64(acc - float64(in.c*in.elem(e)))
			case opMulRead + kMul:
				acc = float64(acc * float64(in.c*in.elem(e)))
			case opMulRead + kDiv:
				acc = float64(acc / float64(in.c*in.elem(e)))
			case opFn + kPush:
				st[sp&(kstackMax-1)], sp, acc = acc, sp+1, in.fn(e)
			case opFn + kAdd:
				acc = float64(acc + in.fn(e))
			case opFn + kSub:
				acc = float64(acc - in.fn(e))
			case opFn + kMul:
				acc = float64(acc * in.fn(e))
			case opFn + kDiv:
				acc = float64(acc / in.fn(e))
			case opPop + kAdd:
				sp--
				acc = float64(st[sp&(kstackMax-1)] + acc)
			case opPop + kSub:
				sp--
				acc = float64(st[sp&(kstackMax-1)] - acc)
			case opPop + kMul:
				sp--
				acc = float64(st[sp&(kstackMax-1)] * acc)
			case opPop + kDiv:
				sp--
				acc = float64(st[sp&(kstackMax-1)] / acc)
			}
		}
		e.flops += s.flops
		switch s.to {
		case toArray:
			a := &e.cell[s.i]
			a.data[a.off+s.k*e.v] = acc
		case toScalar:
			e.floats[s.i], e.fset[s.i] = acc, true
		case toTemp:
			e.cell[s.i].val = acc
		}
	}
}

// keval is a unit's evaluator: its lowered root loop, and per cell the
// unit array of the access, whose data an invocation binds before the loop
// runs, -1 for a temporary.
type keval struct {
	root func(*kenv)
	arr  []int
}

func (ev *keval) run(e *kenv) {
	for i, arr := range ev.arr {
		if arr >= 0 {
			e.cell[i].data = e.arrays[arr]
		}
	}
	clear(e.ent)
	ev.root(e)
}

type kevalBuilder struct {
	u       *KernelUnit
	cur     *kloopBuild // the loop whose body is being lowered
	si      int         // the assignment being lowered, -1 in an if condition
	frozen  bool        // inside a hoisted subtree: it is hoisted whole
	hoists  []kstmt     // what the assignment being lowered has hoisted
	depth   int         // right operands open in the program being emitted
	arr     []int       // keval.arr: a cell per access and temporary
	hoisted int         // subtrees hoisted to a loop entry
	codes   uint64      // the opcodes emitted, a bit each
	nOff    int
	nAsg    int
	nMsk    int
}

// group returns h's group for the index part l — the terms of an index
// fixed at h's entry — adding it, and the groups of the enclosing loops it
// builds on, when l is new to h.
func (b *kevalBuilder) group(h *kloopBuild, l klin) *koffGroup {
	for i, key := range h.keys {
		if slices.Equal(key.slots, l.slots) && slices.Equal(key.locals, l.locals) {
			return &h.offs[i]
		}
	}
	h.keys = append(h.keys, l)
	g := koffGroup{from: -1, at: b.nOff, slots: l.slots}
	b.nOff++
	if h.up != nil {
		g.coef, g.slots = l.take(h.up.level), nil
		g.from = b.group(h.up, l).at
	}
	h.offs = append(h.offs, g)
	return &h.offs[len(h.offs)-1]
}

// index folds an access to its flat row-major index over the array's
// inlined Lo/Stride, registers everything but the current loop's own
// term with the loop's entry, and returns the access's cell and
// that term's coefficient.  Integer arithmetic wraps the same way folded
// or not, so the index equals the emitted code's Σ (sub−lo)·stride bit
// for bit.
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
	coef = l.take(b.cur.level)
	c := l.c
	l.c = 0
	g := b.group(b.cur, l)
	for _, m := range g.members {
		if m.c == c && b.arr[m.ai] == arr {
			return m.ai, coef
		}
	}
	ai = len(b.arr)
	b.arr = append(b.arr, arr)
	g.members = append(g.members, koffMember{ai, c})
	return ai, coef
}

func (b *kevalBuilder) stmts(body []KStmt) []kstmt {
	out := make([]kstmt, len(body))
	for i, s := range body {
		switch st := s.(type) {
		case *KLoop:
			b.cur.pure = false
			out[i].fn = b.loop(st)
		case *KAssign:
			out[i] = b.assign(st)
		case *KIf:
			out[i].fn = b.ifStmt(st)
		}
	}
	return out
}

// stores records what a loop body stores.
func (h *kloopBuild) stores(body []KStmt) {
	for _, s := range body {
		switch st := s.(type) {
		case *KLoop:
			h.stores(st.Body)
		case *KAssign:
			if st.Scalar {
				h.scalars = append(h.scalars, st.FSlot)
			} else {
				h.arrays = append(h.arrays, st.Arr)
			}
		case *KIf:
			h.stores(st.Then)
			h.stores(st.Els)
		}
	}
}

// loop lowers one level: bounds from the affine forms — slot terms read at
// loop entry, as the emitted code reads its hoisted slot locals — then the
// window the precheck packed, exactly the emitted code's clamping; then
// the entry, and for a loop of statements only the range shrinks to the
// hull of their guards' ranges — iterations on which none runs.  e.v is
// the local of the innermost loop running: a loop leaves it as it found it.
func (b *kevalBuilder) loop(kl *KLoop) func(*kenv) {
	loL, hiL, lv, w, step := klinOf(kl.Lo), klinOf(kl.Hi), kl.Level, kl.WinIdx, kl.Step
	hb := &kloopBuild{kloopEntry: &kloopEntry{level: lv, pure: true}, up: b.cur}
	hb.stores(kl.Body)
	b.cur = hb
	body := b.stmts(kl.Body)
	b.cur = hb.up
	h := hb.kloopEntry
	return func(e *kenv) {
		lo, hi := loL.val(e), hiL.val(e)
		if step < 0 {
			lo, hi = hi, lo
		}
		if lo, hi = max(lo, e.bounds[w]), min(hi, e.bounds[w+1]); lo > hi {
			return
		}
		rlo, rhi, free := h.enter(e, lo, hi)
		if h.pure {
			lo, hi = rlo, rhi
		}
		outer, outerFree := e.v, e.free
		e.free = free && rlo == lo && rhi == hi
		if step > 0 {
			for v := lo; v <= hi; v++ {
				e.loc[lv], e.v = v, v
				krun(body, e)
			}
		} else {
			for v := hi; v >= lo; v-- {
				e.loc[lv], e.v = v, v
				krun(body, e)
			}
		}
		e.v, e.free = outer, outerFree
	}
}

func (b *kevalBuilder) ifStmt(ki *KIf) func(*kenv) {
	b.si = -1
	sides := []kstmt{b.temp(ki.L), b.temp(ki.R)}
	l, r := sides[0].i, sides[1].i
	then, els := b.stmts(ki.Then), b.stmts(ki.Els)
	cmp := kcompare[ki.Op]
	return func(e *kenv) {
		if krun(sides, e); cmp(e.cell[l].val, e.cell[r].val) {
			krun(then, e)
		} else {
			krun(els, e)
		}
	}
}

// temp lowers x to a statement that leaves its value in a temporary.
func (b *kevalBuilder) temp(x KExpr) kstmt {
	s := kstmt{si: b.si, to: toTemp, i: len(b.arr)}
	b.arr = append(b.arr, -1)
	depth := b.depth
	b.depth = 0
	b.emit(x, &s.rhs)
	b.depth = depth
	return s
}

// called lowers x to an operand that computes it in a temporary of its own.
func (b *kevalBuilder) called(x KExpr) kins {
	s := []kstmt{b.temp(x)}
	return kins{code: opFn, fn: func(e *kenv) float64 {
		krun(s, e)
		return e.cell[s[0].i].val
	}}
}

// assign lowers an assignment, and registers its guard with every loop of
// its nest.
func (b *kevalBuilder) assign(ka *KAssign) kstmt {
	s := kstmt{si: b.nAsg, at: ka.BoundsIdx, w: 2 * ka.KDims, flops: ka.Flops, to: toScalar, i: ka.FSlot}
	b.nAsg++
	for k, h, x := ka.KDims-1, b.cur, s.si; h != nil; k, h, x = k-1, h.up, h.level {
		h.guards = append(h.guards, kguardStep{at: int32(s.at), msk: int32(b.nMsk), w: uint8(s.w), k: uint8(k),
			multi: ka.MaxBoxes > 1, own: h == b.cur, x: int32(x)})
	}
	b.nMsk += ka.KDims
	if ka.MaxBoxes > 1 {
		s.at++ // the per-point test starts past the box count
	}
	b.si, b.hoists = s.si, nil
	b.emit(ka.RHS, &s.rhs)
	s.hoists = b.hoists
	if !ka.Scalar {
		s.to = toArray
		s.i, s.k = b.index(ka.Arr, ka.Subs)
	}
	return s
}

// invariant says whether x's value is fixed while the current loop runs:
// it has no term in the loop's level and reads no scalar and no array the
// body stores — by name: an invocation in which two names are one array
// computes no hoisted value at entry (kenv.shared).
func (b *kevalBuilder) invariant(x KExpr) bool {
	h := b.cur
	switch x := x.(type) {
	case KLocal:
		return x.Level != h.level
	case KScalar:
		return !slices.Contains(h.scalars, x.FSlot)
	case KScalarLocal:
		return x.Level != h.level && !slices.Contains(h.scalars, x.FSlot)
	case *KARead:
		if slices.Contains(h.arrays, x.Arr) {
			return false
		}
		for _, s := range x.Subs {
			if s.HasVar && s.VarLocal && s.Level == h.level {
				return false
			}
			for _, t := range s.Off.Terms {
				if t.Local && t.Level == h.level {
					return false
				}
			}
		}
	case *KBin:
		return b.invariant(x.L) && b.invariant(x.R)
	case *KIntrin:
		for _, a := range x.Args {
			if !b.invariant(a) {
				return false
			}
		}
	}
	return true
}

// operand lowers x to an instruction's operand, op left kPush: a leaf by
// its kind; an operation hoisted to the loop's entry — a maximal invariant
// subtree of an assignment; a constant times an element; anything else
// but a binary operation a closure of its own.  It reports false for a
// binary operation that has to be computed here.
func (b *kevalBuilder) operand(x KExpr) (kins, bool) {
	switch x := x.(type) {
	case KConst:
		return kins{code: opConst, c: x.Val}, true
	case KLocal:
		return kins{code: opLocal, i: x.Level}, true
	case *KARead:
		ai, k := b.index(x.Arr, x.Subs)
		return kins{code: opRead, i: ai, k: k}, true
	case KSlotInt:
		s := x.Slot
		return kins{code: opFn, fn: func(e *kenv) float64 { return float64(e.ints[s]) }}, true
	case KScalar:
		fs, is := x.FSlot, x.ISlot
		return kins{code: opFn, fn: func(e *kenv) float64 {
			if e.fset[fs] {
				return e.floats[fs]
			}
			if e.intSet[is] {
				return float64(e.ints[is])
			}
			return 0
		}}, true
	case KScalarLocal:
		fs, lv := x.FSlot, x.Level
		return kins{code: opFn, fn: func(e *kenv) float64 {
			if e.fset[fs] {
				return e.floats[fs]
			}
			return float64(e.loc[lv])
		}}, true
	}
	if !b.frozen && b.si >= 0 && b.invariant(x) {
		b.frozen = true
		hv := b.temp(x)
		b.frozen = false
		b.cur.hoists = append(b.cur.hoists, hv)
		b.hoists = append(b.hoists, hv)
		b.hoisted++
		return kins{code: opTemp, i: hv.i}, true
	}
	switch x := x.(type) {
	case *KIntrin:
		in, args := kintrinsics[x.Name], make([]kstmt, len(x.Args))
		for i, a := range x.Args {
			args[i] = b.temp(a)
		}
		a0, a1 := args[0].i, args[len(args)-1].i
		return kins{code: opFn, fn: func(e *kenv) float64 {
			if krun(args, e); in.arity == 1 {
				return in.f1(e.cell[a0].val)
			}
			return in.f2(e.cell[a0].val, e.cell[a1].val)
		}}, true
	case *KBin:
		c, isC := x.L.(KConst)
		if r, isR := x.R.(*KARead); isC && isR && x.Op == '*' {
			o, _ := b.operand(r)
			o.code, o.c = opMulRead, c.Val
			return o, true
		}
		return kins{}, false
	}
	panic("spmd: kernel evaluator: unknown expression")
}

// emit appends the instructions that leave x's value in the accumulator,
// in the tree's evaluation order: the left operand's, then the right
// operand's — the operation's own operand when it has a kind — then the
// operation.
func (b *kevalBuilder) emit(x KExpr, prog *[]kins) {
	o, ok := b.operand(x)
	if !ok {
		bin := x.(*KBin)
		b.emit(bin.L, prog)
		if o, ok = b.operand(bin.R); !ok && b.depth < kstackMax-1 {
			b.depth++
			b.emit(bin.R, prog)
			b.depth--
			o = kins{code: opPop}
		} else if !ok {
			o = b.called(bin.R)
		}
		o.code += byte(1 + strings.IndexByte(kbinOps, bin.Op))
	}
	b.codes |= 1 << o.code
	*prog = append(*prog, o)
}
