package sched

import (
	"fmt"

	"dhpf/internal/ir"
	"dhpf/internal/iset"
)

// Ops is what a consumer supplies to fold over the schedule on one rank.
// The walker owns control: frames, the scalar binding, integer-formal
// save/restore, membership, strip-clamped iteration, and the order in
// which things fire.  Ops owns values and the machine.  The reference
// interpreter's Ops evaluate, store and communicate, the compiled
// engines' additionally claim compute nests; analysis.Predict's count.
type Ops interface {
	// Enter begins a procedure activation (main, or the callee of the
	// call whose non-integer actuals were just passed to Actual); Leave
	// ends the innermost one.
	Enter(f *Frame)
	Leave()
	// Actual binds one array or value actual of the call being entered.
	// Actuals arrive in argument order, under the caller's binding: the
	// walker binds the integer formals after the last of them.
	Actual(formal string, arg ir.Expr)
	// Scalar evaluates a condition operand or an integer actual.
	Scalar(e ir.Expr) float64
	// Assign executes one statement instance this rank owns.
	Assign(a *ir.Assign)
	// Handled lets the consumer account for the whole range of l under
	// the current binding and strip in one step; when it returns true
	// the walker does not iterate l.
	Handled(f *Frame, l *ir.Loop, depth int) bool
	// ReduceInit runs before a loop that finalizes reductions and its
	// result is handed to ReduceCombine after it.
	ReduceInit(reds []Reduction) []float64
	ReduceCombine(reds []Reduction, init []float64)
	// Send and Recv perform this rank's side of a plan under tag block
	// base (transfer i uses tag base+i); Drain ends an exchange or a
	// wavefront: nothing this rank sent may still be unread afterwards.
	Send(plan []Transfer, base int)
	Recv(plan []Transfer, base int)
	Drain()
}

// Frame is one procedure activation: the procedure's placement tables
// plus this rank's iteration sets under the entry binding, shared
// read-only with the rank's other activations that read the same
// values (Schedule.reads).  The
// walker keeps one Frame per call depth and rewrites it at every
// activation there: Ops may read it until Leave, not keep it.
type Frame struct {
	Proc *ir.Procedure
	*ProcSched
	Iters map[int]iset.Set
}

// tagBlock is the tag space of one plan firing.  Every rank advances its
// block counter at the same firings, so tags agree without negotiation.
const tagBlock = 8192

type savedInt struct {
	slot, val int
	had       bool
}

// Walker is one rank's walk of the schedule.
type Walker struct {
	S  *Schedule
	Me int
	// Strip is the active strip window, nil outside a strip-mined
	// wavefront.
	Strip *Strip
	// Plans counts this walk's firings and the forms it derived.
	Plans PlanStats

	ops    Ops
	b      binding // parameters, loop variables and integer formals, by slot
	saved  []savedInt
	tagSeq int
	point  []int
	args   []int   // a call's integer actuals, evaluated before any is bound
	strip  Strip   // what Strip points at: wavefronts do not nest their strips
	frames []Frame // per call depth, the activation running there
	depth  int     // the call depth: activations running
	// levels are what plans are evaluated on, one per plan still in use
	// (held: a wavefront chunk keeps its plan while its strip runs).
	levels []*level
	held   int
	// acts holds per procedure the iteration sets of this rank's
	// activations so far, by the values of what they read.
	acts []procActs

	// What saved, point, frames and the binding start on when the
	// schedule's sizes fit (NewWalker).
	savedBuf [8]savedInt
	pointBuf [8]int
	frameBuf [4]Frame
	valBuf   [16]int
	boundBuf [16]bool
}

// procActs are one procedure's iteration sets on the walker's rank, per
// activation whose entry values of reads (Schedule.reads, found at the
// first) differ.
type procActs struct {
	reads []int
	seen  bool
	acts  []activation
}

type activation struct {
	key   []int
	iters map[int]iset.Set
}

// PlanStats counts a walk's plan firings, the closed forms it derived
// and the firings Plan planned (General): a firing's form is derived by
// its first walk, in any execution or analysis of the schedule, and
// published once.  It is telemetry only: nothing in it feeds results or
// virtual time.
type PlanStats struct {
	Firings, Derived, General int64
}

func (p PlanStats) String() string {
	s := fmt.Sprintf("plans: %d firings, %d forms derived", p.Firings, p.Derived)
	if p.General > 0 {
		s += fmt.Sprintf(", %d general", p.General)
	}
	return s
}

// NewWalker returns rank me's walker of s, bound to the program
// parameters.
// Its scratch is sized once, from the schedule: the binding to the
// scalar names, one slot each, the save stack and the membership point
// to the deepest nest, the frames to the procedures (a chain of calls
// repeats none) — inside the walker when that fits.  Only a call can
// push the save stack past that: the caller's loops and integer formals
// stay saved under the callee's.
func NewWalker(s *Schedule, me int, ops Ops) *Walker {
	w := &Walker{S: s, Me: me, ops: ops, acts: make([]procActs, s.NumProcs())}
	n := len(s.names)
	w.b.vals = scratch(w.valBuf[:], n)[:n]
	w.b.bound = scratch(w.boundBuf[:], n)[:n]
	w.saved = scratch(w.savedBuf[:], s.deepest)
	w.point = scratch(w.pointBuf[:], s.deepest)
	w.frames = scratch(w.frameBuf[:], s.NumProcs())
	w.Reset()
	return w
}

// Reset readies the walker for another walk of its schedule: bound to
// the program parameters, outside every strip, at the first tag block,
// with nothing counted.  Its scratch and activations stay.
func (w *Walker) Reset() {
	copy(w.b.vals, w.S.params.vals)
	copy(w.b.bound, w.S.params.bound)
	w.Strip, w.Plans, w.tagSeq, w.depth, w.held = nil, PlanStats{}, 0, 0, 0
	w.saved = w.saved[:0]
}

// Value returns the value bound in slot i (Schedule.Slot) and whether
// one is; a negative slot is never bound.
func (w *Walker) Value(i int) (int, bool) {
	if i < 0 {
		return 0, false
	}
	return w.b.vals[i], w.b.bound[i]
}

// Lookup is Value by name, for readers that hold only a name: the API
// edges, never the walk itself.
func (w *Walker) Lookup(name string) (int, bool) { return w.Value(w.S.Slot(name)) }

// scratch returns buf emptied when it has room for n, else a new empty
// slice with room for n.
func scratch[T any](buf []T, n int) []T {
	if n <= cap(buf) {
		return buf[:0]
	}
	return make([]T, 0, n)
}

// Run walks the main procedure.  The schedule must pass Check.
func (w *Walker) Run() { w.proc(w.S.prog.Main()) }

func (w *Walker) proc(proc *ir.Procedure) {
	iters := w.iterSets(proc)
	if w.depth == len(w.frames) {
		// First activation this deep.  Past the room NewWalker made,
		// append moves the frames, but the enclosing activations keep
		// their old elements, which nothing rewrites until they end.
		w.frames = append(w.frames, Frame{})
	}
	f := &w.frames[w.depth]
	*f = Frame{Proc: proc, ProcSched: w.S.procs[proc], Iters: iters}
	w.depth++
	w.ops.Enter(f)
	w.stmts(f, proc.Body, 0)
	w.ops.Leave()
	w.depth--
}

// iterSets returns the running activation's iteration sets: the rank's
// earlier activation of proc that read the same values, or new ones.
func (w *Walker) iterSets(proc *ir.Procedure) map[int]iset.Set {
	pa := &w.acts[w.S.procs[proc].id]
	if !pa.seen {
		pa.reads, pa.seen = w.S.reads(proc), true
	}
next:
	for _, a := range pa.acts {
		for i, slot := range pa.reads {
			if a.key[i] != w.b.vals[slot] {
				continue next
			}
		}
		return a.iters
	}
	key := make([]int, len(pa.reads))
	for i, slot := range pa.reads {
		key[i] = w.b.vals[slot]
	}
	iters := w.S.iterSets(proc, w.Me, w.b.byName(w.S.names))
	pa.acts = append(pa.acts, activation{key: key, iters: iters})
	return iters
}

func (w *Walker) stmts(f *Frame, stmts []ir.Stmt, depth int) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.Assign:
			w.assign(f, st, depth)
		case *ir.CallStmt:
			if w.member(f, st.ID) {
				w.call(st)
			}
		case *ir.Loop:
			w.loop(f, st, depth)
		case *ir.IfStmt:
			if Compare(st.Cond.Op, w.ops.Scalar(st.Cond.L), w.ops.Scalar(st.Cond.R)) {
				w.stmts(f, st.Then, depth)
			} else {
				w.stmts(f, st.Else, depth)
			}
		}
	}
}

// Compare evaluates the comparison of a (processor-uniform) condition.
func Compare(op string, l, r float64) bool {
	switch op {
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
	panic(fmt.Sprintf("sched: unknown comparison %q", op))
}

// member reports whether this rank executes the statement at the current
// loop point: the point of its nest variables, none outside every loop,
// is in its iteration set.
func (w *Walker) member(f *Frame, id int) bool {
	pt := w.point[:0]
	for _, v := range w.S.nestSlots[id] {
		pt = append(pt, w.b.vals[v])
	}
	w.point = pt
	return f.Iters[id].Contains(pt)
}

func (w *Walker) assign(f *Frame, a *ir.Assign, depth int) {
	if depth > 0 {
		if w.member(f, a.ID) {
			w.ops.Assign(a)
		}
		return
	}
	// Top-level statement: its comm events fire around it.
	ss := f.Top[a]
	w.fire(&ss.Reads, 0)
	if w.member(f, a.ID) {
		w.ops.Assign(a)
	}
	w.fire(&ss.Writes, 0)
}

// ArgKind is how a call's actual binds to its formal.
type ArgKind int

const (
	ArgAlias ArgKind = iota // whole array: the callee aliases the caller's storage
	ArgInt                  // index, parameter or integral constant: an integer formal the walker binds
	ArgFloat                // anything else: a value formal
)

// ClassifyArg classifies one actual.
func ClassifyArg(arg ir.Expr) ArgKind {
	switch a := arg.(type) {
	case *ir.ArrayRef:
		if len(a.Subs) == 0 {
			return ArgAlias
		}
	case ir.IndexRef, ir.ParamRef:
		return ArgInt
	case ir.FloatConst:
		if float64(int(a.Val)) == a.Val {
			return ArgInt
		}
	}
	return ArgFloat
}

// call evaluates every actual under the caller's binding, then binds
// the callee's integer formals and runs it: an actual that names a
// formal of the callee reads the caller's value, not the new binding.
func (w *Walker) call(c *ir.CallStmt) {
	callee := w.S.prog.Proc(c.Callee)
	slots := w.S.procs[callee].formals
	w.args = w.args[:0]
	for k, formal := range callee.Formals {
		if arg := c.Args[k]; ClassifyArg(arg) == ArgInt {
			w.args = append(w.args, int(w.ops.Scalar(arg)))
		} else {
			w.ops.Actual(formal, arg)
		}
	}
	mark, i := w.mark(), 0
	for k := range callee.Formals {
		if ClassifyArg(c.Args[k]) == ArgInt {
			w.bindInt(slots[k], w.args[i])
			i++
		}
	}
	w.proc(callee)
	w.unbind(mark)
}

// mark, bindInt and unbind are the integer save/restore discipline of
// calls and loops: bindInt shadows a slot, unbind(mark) restores every
// slot shadowed since mark returned mark, innermost first.
func (w *Walker) mark() int { return len(w.saved) }

func (w *Walker) bindInt(slot, v int) {
	w.saved = append(w.saved, savedInt{slot, w.b.vals[slot], w.b.bound[slot]})
	w.b.vals[slot], w.b.bound[slot] = v, true
}

func (w *Walker) unbind(mark int) {
	for i := len(w.saved) - 1; i >= mark; i-- {
		s := w.saved[i]
		w.b.vals[s.slot], w.b.bound[s.slot] = s.val, s.had
	}
	w.saved = w.saved[:mark]
}

func (w *Walker) loop(f *Frame, l *ir.Loop, depth int) {
	ls := f.Loop(l)
	w.fire(&ls.Reads, depth)
	init := w.ops.ReduceInit(ls.Reds)
	if len(ls.Pipe.Events) > 0 {
		w.pipeline(f, l, ls, depth)
	} else {
		w.iterate(f, l, ls, depth)
	}
	w.ops.ReduceCombine(ls.Reds, init)
	w.fire(&ls.Writes, depth)
}

// Range evaluates the range loop l of the running activation visits
// under the current binding and strip, from its first value to its last
// in the direction of l.Step.
func (w *Walker) Range(l *ir.Loop) (lo, hi int) {
	return w.rangeOf(l, w.frames[w.depth-1].Loop(l))
}

func (w *Walker) rangeOf(l *ir.Loop, ls *LoopSched) (lo, hi int) {
	return w.Strip.Clamp(l, ls.lo.eval(w.b.vals), ls.hi.eval(w.b.vals))
}

func (w *Walker) iterate(f *Frame, l *ir.Loop, ls *LoopSched, depth int) {
	if w.ops.Handled(f, l, depth) {
		return
	}
	lo, hi := w.rangeOf(l, ls)
	mark := w.mark()
	w.bindInt(ls.slot, lo)
	if l.Step > 0 {
		for v := lo; v <= hi; v++ {
			w.b.vals[ls.slot] = v
			w.stmts(f, l.Body, depth+1)
		}
	} else {
		for v := lo; v >= hi; v-- {
			w.b.vals[ls.slot] = v
			w.stmts(f, l.Body, depth+1)
		}
	}
	w.unbind(mark)
}

// transfers evaluates the plan firing f requires under the current
// binding, with the outermost depth loop variables fixed, inside the
// strip, from its closed form — derived here at the firing's first walk
// and published once: racing ranks may both derive it, the first stored
// wins — or, where the form is general, plans it with Plan.  The plan is
// valid until the walker evaluates on its level again: the next firing,
// unless a chunk holds it.
func (w *Walker) transfers(f *Firing, depth int, strip *Strip) []Transfer {
	w.Plans.Firings++
	slot := &w.S.forms[f.ID]
	fm := slot.Load()
	if fm == nil {
		if fm = w.S.derive(f, depth, (at{strip: strip}).slotOf()); slot.CompareAndSwap(nil, fm) {
			w.Plans.Derived++
		} else {
			fm = slot.Load()
		}
	}
	if w.held == len(w.levels) {
		w.levels = append(w.levels, &level{})
	}
	lv := w.levels[w.held]
	var plan []Transfer
	if fm.general {
		w.Plans.General++
		plan = lv.general(w.S, f, Point{Bind: w.b.byName(w.S.names), Depth: depth, Strip: strip}, w.Me)
	} else {
		plan = fm.eval(lv, at{vals: w.b.vals, depth: depth, strip: strip}, w.Me)
	}
	if w.S.checking.Load() {
		w.check(f, plan, depth, strip, lv.how)
	}
	return plan
}

// fire exchanges the plan of firing f: every rank sends what it sources,
// then receives what targets it (sends are buffered, so this cannot
// deadlock).
func (w *Walker) fire(f *Firing, depth int) {
	if len(f.Events) == 0 {
		return
	}
	plan := w.transfers(f, depth, nil)
	if len(plan) == 0 {
		return
	}
	base := w.nextTags()
	w.ops.Send(plan, base)
	w.ops.Recv(plan, base)
	w.ops.Drain()
}

func (w *Walker) nextTags() int {
	base := w.tagSeq * tagBlock
	w.tagSeq++
	return base
}

// pipeline runs the wavefront loop l with coarse-grain pipelining (SC'98
// §2, §8.1): the strip loop is cut into chunks of the grain; each chunk
// receives its incoming boundary data, runs the loop body through
// iterate with Strip set to the chunk, and forwards its outgoing
// boundary data.  A wavefront without a strip loop, or one
// nested inside an enclosing wavefront's chunk (the 2-D diagonal
// wavefront of LU-class codes), does not strip again: it runs
// block-serialized, exchanging its boundary once, restricted to the
// enclosing chunk if there is one.
func (w *Walker) pipeline(f *Frame, l *ir.Loop, ls *LoopSched, depth int) {
	if w.Strip != nil || ls.Strip == nil {
		w.chunk(f, l, ls, depth, w.Strip)
	} else {
		lo := ls.strip.lo.eval(w.b.vals)
		hi := ls.strip.hi.eval(w.b.vals)
		if lo > hi {
			lo, hi = hi, lo
		}
		g := w.S.grain
		if g <= 0 {
			g = hi - lo + 1
		}
		for s := lo; s <= hi; s += g {
			w.strip = Strip{Var: ls.Strip.Var, Lo: s, Hi: min(s+g-1, hi), slot: ls.strip.slot}
			w.chunk(f, l, ls, depth, &w.strip)
		}
	}
	w.ops.Drain()
}

// chunk is one receive → compute → send step of a wavefront, with its
// own tag block.
func (w *Walker) chunk(f *Frame, l *ir.Loop, ls *LoopSched, depth int, strip *Strip) {
	plan := w.transfers(&ls.Pipe, depth, strip)
	base := w.nextTags()
	w.ops.Recv(plan, base)
	outer := w.Strip
	w.Strip = strip
	w.held++
	w.iterate(f, l, ls, depth)
	w.held--
	w.Strip = outer
	w.ops.Send(plan, base)
}
