package sched

import (
	"fmt"
	"math"
	"slices"

	"dhpf/internal/comm"
	"dhpf/internal/hpf"
	"dhpf/internal/ir"
	"dhpf/internal/iset"
)

// form is one firing's transfer plan in closed form: Plan's set
// equations with every name resolved to a slot form and every layout
// looked up, so a rank evaluates the plan anywhere in the walk from the
// walker's slot vector, the point's depth and strip, and the ranks'
// LocalBox constants.  It does not depend on the rank.  A firing's form
// is derived at its first walk and kept by the schedule
// (Walker.transfers), with the site of that walk resolved.  A form with
// an event that is not fixed is general: Plan plans each of its firings.
type form struct {
	arrays  []string // the events' arrays, sorted: the first key of the transfer order
	slots   []int    // per array, its index in the procedure's ProcSched.Arrays
	events  []eventForm
	site    site
	general bool
}

// site is where a form is evaluated — the point's depth and the strip's
// slot (-1: none) — and what that fixes of each event: the nest
// dimensions the point clamps, ascending, and the data dimensions each
// maps onto.  A firing is evaluated at one site on every walk but for a
// wavefront's firing inside a call from another wavefront's chunk; its
// form holds the site of its first walk, and a level resolves any other
// into its own.
type site struct {
	depth, strip int
	events       []siteEvent
}

type siteEvent struct {
	dims []siteDim
	maps []siteMap
}

// siteDim is nest dimension k, fixed at the point's value (fix), within
// the strip window (strip), or both.
type siteDim struct {
	k          int
	fix, strip bool
}

// siteMap is data dimension d, coef times clamped dimension ci (an index
// of siteEvent.dims) plus off.
type siteMap struct{ d, ci, coef, off int }

// resolve resolves fm's events at the site of depth and strip into st.
func (fm *form) resolve(st *site, depth, strip int) {
	st.depth, st.strip = depth, strip
	st.events = slices.Grow(st.events[:0], len(fm.events))[:len(fm.events)]
	for ei := range fm.events {
		e, se := &fm.events[ei], &st.events[ei]
		se.dims, se.maps = se.dims[:0], se.maps[:0]
		for k, v := range e.vars {
			if fix, str := k < depth, strip >= 0 && v == strip; fix || str {
				se.dims = append(se.dims, siteDim{k: k, fix: fix, strip: str})
			}
		}
		for d, rd := range e.ref {
			for ci, sd := range se.dims {
				if rd.j == sd.k && rd.coef != 0 {
					se.maps = append(se.maps, siteMap{d: d, ci: ci, coef: rd.coef, off: e.fixed.offs[d]})
				}
			}
		}
	}
}

// slotOf is the slot of the strip p is inside, -1 outside every strip.
func (p at) slotOf() int {
	if p.strip == nil {
		return -1
	}
	return p.strip.slot
}

// eventForm is one event of a form — an event of several ON_HOME terms
// is one per term, since the union of the terms' iterations maps onto
// the union of their data: what nonLocalAt computes for it on a rank t,
// the iterations t runs, with the point's clamps, mapped through the
// reference, cut to the array's space, less t's own data.
type eventForm struct {
	arr    int // index in form.arrays
	read   bool
	layout *hpf.Layout
	vars   []int     // the nest's variables, outermost first
	iter   []span    // the nest's iteration box, each range forward (until fix)
	term   *termForm // the ON_HOME term; nil: every rank runs the whole box (until fix)
	ref    []refDim  // the reference's subscripts
	// fixed is what the walk cannot change of an event that reads no
	// slot a walk rebinds and whose reference maps a box onto its image
	// (Schedule.fix); nil otherwise, and the form is general.
	fixed *fixedForm
}

// termForm is Term.ExecBox in slot form: per dimension of the term's
// array, the nest dimension j ≥ 0 it constrains, at offset lo with
// coefficient coef, or (j < 0) the range [lo, hi] that must meet the
// rank's local box.
type termForm struct {
	layout *hpf.Layout
	dims   []termDim
}

type termDim struct {
	j, coef int
	span
}

// refDim is one subscript of RefDataBox: coef times nest dimension j
// plus off, or the point off when j < 0.
type refDim struct {
	j, coef int
	off     slotAff
}

// fixedForm holds per rank t, at t·(1+2n+2r), a 1 when t has data, t's
// unclamped iterations and their data in the array's space (n and r
// dimensions, lo then hi), and every rank pair that data can join
// anywhere in the loop domain.  A point only clamps the iterations, and
// through the reference the data (level.clamp).
type fixedForm struct {
	boxes []int32
	pairs []pairForm // in transfer order
	last  []int      // per rank, its last pair (-1: none)
	offs  []int      // the reference's offsets
}

// pairForm is ranks t and p, whose local boxes do not meet, where t's
// data holds points of p's box.  allow holds per nest dimension t's
// iterations whose data lie within p's box, lo then hi.
type pairForm struct {
	t, p  int
	allow []int32
}

// at is where a form is evaluated: the slot vector, the outermost depth
// nest variables fixed at their values, inside the strip (nil: none).
type at struct {
	vals  []int
	depth int
	strip *Strip
}

// derive builds firing f's form, resolved at the site of depth and
// strip (a slot, -1: none).  The transfers it plans are Plan's box for
// box at every point (CheckForms compares them at every firing).
func (s *Schedule) derive(f *Firing, depth, strip int) *form {
	fm := &form{}
	ps := s.procs[f.Proc]
	r := carver{s: s}
	var names []string // per event form, its array
	var fixable []bool // per event form: whether fix may fix it
	for _, e := range f.Events {
		ef := eventForm{read: e.Kind == comm.ReadComm, layout: s.Ctx.Layout(f.Proc, e.Ref.Name)}
		vars := ir.NestVars(e.Nest)
		ef.vars, ef.iter = make([]int, len(vars)), make([]span, len(vars))
		for k, l := range e.Nest {
			ls := ps.Loop(l)
			ef.vars[k], ef.iter[k] = ls.slot, span{ls.lo, ls.hi}
			if l.Step < 0 {
				ef.iter[k] = span{ls.hi, ls.lo}
			}
		}
		// ok: the terms' arrays are distributed (cp's candidates are) and
		// the reference maps a box onto its image, each nest dimension to
		// at most one of the array's.
		ok := true
		var terms []termForm
		for _, t := range s.termsOf(e.Stmt.ID) {
			tl := s.Ctx.Layout(f.Proc, t.Array)
			ok = ok && tl != nil
			tf := termForm{layout: tl, dims: make([]termDim, len(t.Subs))}
			for d, h := range t.Subs {
				if j := slices.Index(vars, h.Var); j >= 0 {
					tf.dims[d] = termDim{j: j, coef: h.Coef, span: span{lo: r.aff(h.Off, "", 0)}}
				} else {
					tf.dims[d] = termDim{j: -1, span: r.span(h)}
				}
			}
			terms = append(terms, tf)
		}
		seen := make([]bool, len(vars))
		ef.ref = make([]refDim, len(e.Ref.Subs))
		for d, sub := range e.Ref.Subs {
			if j := slices.Index(vars, sub.Var); j >= 0 {
				ef.ref[d] = refDim{j: j, coef: sub.Coef, off: r.aff(sub.Off, "", 0)}
				ok = ok && sub.Coef*sub.Coef <= 1 && !(seen[j] && sub.Coef != 0)
				seen[j] = seen[j] || sub.Coef != 0
			} else {
				ef.ref[d] = refDim{j: -1, off: r.aff(sub.Off, sub.Var, sub.Coef)}
			}
		}
		if !slices.Contains(fm.arrays, e.Ref.Name) {
			fm.arrays = append(fm.arrays, e.Ref.Name)
		}
		for i := range max(1, len(terms)) {
			if terms != nil {
				ef.term = &terms[i]
			}
			fm.events, names, fixable = append(fm.events, ef), append(names, e.Ref.Name), append(fixable, ok)
		}
	}
	slices.Sort(fm.arrays)
	for _, name := range fm.arrays {
		fm.slots = append(fm.slots, slices.Index(ps.Arrays, name))
	}
	for i := range fm.events {
		e := &fm.events[i]
		e.arr = slices.Index(fm.arrays, names[i])
		fm.general = fm.general || !fixable[i] || !s.fixedSlots(e) || !s.fix(e)
	}
	if !fm.general {
		fm.resolve(&fm.site, depth, strip)
	}
	return fm
}

// fixedSlots reports whether every slot e reads is one no walk rebinds:
// a parameter that is neither a loop variable nor a formal.  Loop bounds
// read parameters only (cp refuses any other).
func (s *Schedule) fixedSlots(e *eventForm) bool {
	fixed := func(a slotAff) bool {
		for _, t := range a.terms {
			if !s.fixed[t.slot] {
				return false
			}
		}
		return true
	}
	for i := 0; e.term != nil && i < len(e.term.dims); i++ {
		if d := e.term.dims[i]; !fixed(d.lo) || !fixed(d.hi) {
			return false
		}
	}
	for _, d := range e.ref {
		if !fixed(d.off) {
			return false
		}
	}
	return true
}

// fix derives e.fixed, unless a bound leaves int32 or two ranks whose
// local boxes meet would exchange e's data, and reports whether it did.
// Every point of the walk reads e's slots as the parameter binding does
// and only clamps the iterations further, so its rank pairs are among
// those found with no clamp.
func (s *Schedule) fix(e *eventForm) bool {
	ranks, n, r := s.Grid.Size(), len(e.iter), len(e.ref)
	fx := &fixedForm{boxes: make([]int32, 0, ranks*(1+2*n+2*r))}
	for _, rd := range e.ref {
		fx.offs = append(fx.offs, rd.off.eval(s.params.vals))
	}
	for t := range ranks {
		own := e.layout.LocalBox(t)
		it, has := e.execBox(s.params.vals, t)
		d := e.refBox(s.params.vals, it)
		space := e.layout.Space()
		for k := range r {
			d.Lo[k], d.Hi[k] = max(d.Lo[k], space.Lo[k]), min(d.Hi[k], space.Hi[k])
		}
		has, box := has && !d.Empty(), len(fx.boxes)
		fx.boxes = append(fx.boxes, int32(b2i(has)))
		for _, v := range [][]int{it.Lo, it.Hi, d.Lo, d.Hi} {
			for _, x := range v {
				if int(int32(x)) != x {
					return false
				}
				fx.boxes = append(fx.boxes, int32(x))
			}
		}
		for p := 0; p < ranks && has; p++ {
			lp := e.layout.LocalBox(p)
			near := d.Intersect(lp)
			if p == t || near.Empty() || own.ContainsBox(near) {
				continue
			}
			if own.Intersects(lp) {
				return false
			}
			// allow: per mapped dimension the preimage of near, within
			// t's iterations, whose bounds fit int32.
			pr := pairForm{t: t, p: p, allow: slices.Clone(fx.boxes[box+1 : box+1+2*n])}
			for d, rd := range e.ref {
				if rd.j < 0 || rd.coef == 0 {
					continue
				}
				a, b := near.Lo[d]-fx.offs[d], near.Hi[d]-fx.offs[d]
				if rd.coef < 0 {
					a, b = -b, -a
				}
				pr.allow[rd.j], pr.allow[n+rd.j] = max(pr.allow[rd.j], int32(a)), min(pr.allow[n+rd.j], int32(b))
			}
			fx.pairs = append(fx.pairs, pr)
		}
	}
	slices.SortStableFunc(fx.pairs, func(a, b pairForm) int {
		return e.key(a.t, a.p) - e.key(b.t, b.p)
	})
	fx.last = make([]int, ranks)
	for me := range ranks {
		fx.last[me] = -1
		for i, pr := range fx.pairs {
			if pr.t == me || pr.p == me {
				fx.last[me] = i
			}
		}
	}
	e.fixed, e.iter, e.term = fx, nil, nil // what fx holds, nothing evaluates again
	return true
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// execBox is e's term's iterations on rank t (none: the whole box),
// unclamped, and whether there are any: as Term.ExecBox, a subscript
// that misses t's box leaves none, at depth 0 too.
func (e *eventForm) execBox(vals []int, t int) (iset.Box, bool) {
	b := iset.MakeBox(len(e.iter))
	for k, sp := range e.iter {
		b.Lo[k], b.Hi[k] = sp.lo.eval(vals), sp.hi.eval(vals)
	}
	tf := e.term
	if tf == nil {
		return b, !b.Empty()
	}
	local := tf.layout.LocalBox(t)
	for d, td := range tf.dims {
		dlo, dhi := local.Lo[d], local.Hi[d]
		j, off := td.j, td.lo.eval(vals)
		switch {
		case j < 0:
			if max(off, dlo) > min(td.hi.eval(vals), dhi) {
				return b, false
			}
		case td.coef == 1:
			b.Lo[j], b.Hi[j] = max(b.Lo[j], dlo-off), min(b.Hi[j], dhi-off)
		default: // coefficient -1: dlo ≤ -i+off ≤ dhi
			b.Lo[j], b.Hi[j] = max(b.Lo[j], off-dhi), min(b.Hi[j], off-dlo)
		}
	}
	return b, !b.Empty()
}

// refBox maps the iteration box through the reference.
func (e *eventForm) refBox(vals []int, iter iset.Box) iset.Box {
	b := iset.MakeBox(len(e.ref))
	for d, rd := range e.ref {
		lo := rd.off.eval(vals)
		hi := lo
		if rd.j >= 0 {
			lo, hi = rd.coef*iter.Lo[rd.j]+lo, rd.coef*iter.Hi[rd.j]+lo
		}
		b.Lo[d], b.Hi[d] = min(lo, hi), max(lo, hi)
	}
	return b
}

// level is the scratch one plan is evaluated on, valid until the level
// is evaluated on again.
type level struct {
	ar   iset.Arena
	keys []int // the plan's transfers (eventForm.key)
	// Per event of the form, its clamps (clamp) and whether they leave
	// any iteration.
	cm     []clamps
	live   []bool
	plan   []Transfer
	site   site  // a form's site other than the one it holds,
	siteOf *form // resolved for this form
	ind    induction
	how    evalHow // how the last evaluation went, for CheckForms' counts
}

// evalHow is how a level's evaluation went: in full, induced from the
// last, or in full where the last proved the form but a window left its
// safe interval (crossed an edge of some pair's allowed range).
type evalHow uint8

const (
	evalFull evalHow = iota
	evalInduced
	evalCrossed
)

// clamps are a point's clamps of one event: the nest dimensions it
// clamps and the data dimensions those clamp, each as dimension, lo, hi.
type clamps struct {
	it, data []int
}

// induction is what the level's last evaluation proved of the next,
// when it evaluated a form of one event (fast): as long as
// each clamped dimension's window stays within its safe interval (safe:
// lo, hi per site dimension), no rank pair's liveness changes, so neither
// do the plan's transfers, and each of rank me's boxes is the image of
// the windows where they map (induce).  fm nil: nothing proven.
type induction struct {
	fm   *form
	st   *site
	me   int
	safe []int
}

// clamp computes event ei's clamps at the point, at site event se, into
// cm[ei] and reports whether they leave some iteration.  Each subscript
// is monotone, so clamping a nest dimension clamps the data dimensions
// it maps to, to the image of the clamp.
func (lv *level) clamp(e *eventForm, se *siteEvent, ei int, p at) bool {
	cl := &lv.cm[ei]
	cl.it, cl.data = cl.it[:0], cl.data[:0]
	for _, sd := range se.dims {
		lo, hi, ok := sd.window(p, e.vars)
		if !ok {
			return false
		}
		cl.it = append(cl.it, sd.k, lo, hi)
	}
	for _, m := range se.maps {
		a, b := m.coef*cl.it[3*m.ci+1], m.coef*cl.it[3*m.ci+2]
		cl.data = append(cl.data, m.d, min(a, b)+m.off, max(a, b)+m.off)
	}
	return true
}

// window is what the point leaves of nest dimension sd.k of an event
// over vars, and whether it leaves any.
func (sd siteDim) window(p at, vars []int) (lo, hi int, ok bool) {
	lo, hi = math.MinInt, math.MaxInt
	if sd.fix {
		lo, hi = p.vals[vars[sd.k]], p.vals[vars[sd.k]]
	}
	if sd.strip {
		lo, hi = max(lo, p.strip.Lo), min(hi, p.strip.Hi)
	}
	return lo, hi, lo <= hi
}

// alive reports whether the clamped dimensions (clamps.it) leave the
// iterations it, n ranges lo then hi, any.
func alive(it []int32, clamped []int) bool {
	n := len(it) / 2
	for i := 0; i < len(clamped); i += 3 {
		k := clamped[i]
		if max(int(it[k]), clamped[i+1]) > min(int(it[n+k]), clamped[i+2]) {
			return false
		}
	}
	return true
}

// fast reports whether fm is one event — the form of almost
// every firing — whose transfers are read off its pairs, one box each.
func (fm *form) fast() bool {
	return len(fm.events) == 1
}

// eval evaluates the form on rank me at the point: the firing's
// transfers in Plan's order — by array, source, target — so transfer i
// is Plan's transfer i, with Boxes and Elems filled where me is its
// source or target.  It lists them at least up to me's last, and one if
// the firing has any: the rest is no rank's business but their own.
// Which rank pairs exchange data is read off the events' pairs, in
// transfer order — for a fast form only until me's last pair, or the
// first that exchanges data.  A fast form's evaluation the level's last
// one proved is induced (induce).  fm is not general.
func (fm *form) eval(lv *level, p at, me int) []Transfer {
	st := &fm.site
	if st.depth != p.depth || st.strip != p.slotOf() {
		st = &lv.site
		if lv.siteOf != fm || st.depth != p.depth || st.strip != p.slotOf() {
			fm.resolve(st, p.depth, p.slotOf())
			lv.siteOf, lv.ind.fm = fm, nil
		}
	}
	if lv.how = evalFull; fm.fast() && lv.induce(fm, st, p, me) {
		lv.how = evalInduced
		return lv.plan
	}
	lv.ar.Reset()
	lv.keys = lv.keys[:0]
	lv.cm, lv.live = slices.Grow(lv.cm, len(fm.events))[:len(fm.events)], slices.Grow(lv.live[:0], len(fm.events))[:len(fm.events)]
	for ei := range fm.events {
		e := &fm.events[ei]
		if lv.live[ei] = lv.clamp(e, &st.events[ei], ei, p); !lv.live[ei] {
			continue
		}
		cl, last := &lv.cm[ei], len(e.fixed.pairs)
		if fm.fast() {
			last = e.fixed.last[me]
		}
		for i := range e.fixed.pairs {
			if i > last && len(lv.keys) > 0 {
				break
			}
			pr := &e.fixed.pairs[i]
			if alive(pr.allow, cl.it) {
				lv.keys = append(lv.keys, e.key(pr.t, pr.p))
			}
		}
	}
	if !fm.fast() {
		slices.Sort(lv.keys)
		lv.keys = slices.Compact(lv.keys)
	}
	lv.plan = slices.Grow(lv.plan[:0], len(lv.keys))[:len(lv.keys)]
	for i, k := range lv.keys {
		tr := &lv.plan[i]
		arr := k >> 32
		tr.Array, tr.Slot, tr.From, tr.To, tr.Boxes, tr.Elems = fm.arrays[arr], fm.slots[arr], k>>16&0xffff, k&0xffff, nil, 0
		if tr.From == me || tr.To == me {
			tr.Boxes, tr.Elems = lv.transfer(fm, arr, tr.From, tr.To)
		}
	}
	lv.ind.fm = nil
	if fm.fast() && lv.live[0] {
		lv.prove(fm, st, me)
	}
	return lv.plan
}

// general plans firing f, whose form is general, with Plan at the
// point, uncached, for rank me: Boxes and Elems where me takes part,
// Slot by the procedure's arrays.
func (lv *level) general(s *Schedule, f *Firing, pt Point, me int) []Transfer {
	arrays := s.procs[f.Proc].Arrays
	want := s.Plan(f.Proc, f.Events, pt)
	lv.plan = slices.Grow(lv.plan[:0], len(want))[:len(want)]
	for i, w := range want {
		tr := &lv.plan[i]
		*tr = Transfer{Array: w.Array, Slot: slices.Index(arrays, w.Array), From: w.From, To: w.To}
		if w.From == me || w.To == me {
			tr.Boxes, tr.Elems = w.Data.Boxes(), w.Data.Card()
		}
	}
	lv.ind.fm, lv.how = nil, evalFull
	return lv.plan
}

// prove records what the fast form fm's evaluation at site st on rank me
// just made proves of the next (induction), where its event is live:
// per clamped dimension, the interval that holds its window and that no
// edge of a pair's allowed range splits — nothing, when an edge splits
// the window itself.  Each of me's transfers is one box: a live pair's
// data within the peer's box.
func (lv *level) prove(fm *form, st *site, me int) {
	e, cl := &fm.events[0], &lv.cm[0]
	n, safe := len(e.vars), lv.ind.safe[:0]
	for i := 0; i < len(cl.it); i += 3 {
		k, lo, hi := cl.it[i], cl.it[i+1], cl.it[i+2]
		from, to := math.MinInt, math.MaxInt
		for pi := range e.fixed.pairs {
			pr := &e.fixed.pairs[pi]
			for _, edge := range [2]int{int(pr.allow[k]), int(pr.allow[n+k]) + 1} {
				switch {
				case lo < edge && edge <= hi:
					return
				case edge <= lo:
					from = max(from, edge)
				default:
					to = min(to, edge-1)
				}
			}
		}
		safe = append(safe, from, to)
	}
	lv.ind = induction{fm: fm, st: st, me: me, safe: safe}
}

// induce evaluates fast form fm at the point from the level's last
// evaluation, when that proved it: with every window within its safe
// interval each pair's window lies within its allowed range or misses it
// as before, so the same pairs exchange data, and a transfer's data box,
// in a dimension a window maps onto, is the window's image.  It reports
// whether it did.
func (lv *level) induce(fm *form, st *site, p at, me int) bool {
	if lv.ind.fm != fm || lv.ind.st != st || lv.ind.me != me {
		return false
	}
	se, cl, safe, vars := &st.events[0], &lv.cm[0], lv.ind.safe, fm.events[0].vars
	for ci, sd := range se.dims {
		lo, hi, ok := sd.window(p, vars)
		if !ok || lo < safe[2*ci] || hi > safe[2*ci+1] {
			lv.ind.fm, lv.how = nil, evalCrossed
			return false
		}
		cl.it[3*ci+1], cl.it[3*ci+2] = lo, hi
	}
	for i, m := range se.maps {
		a, b := m.coef*cl.it[3*m.ci+1], m.coef*cl.it[3*m.ci+2]
		cl.data[3*i+1], cl.data[3*i+2] = min(a, b)+m.off, max(a, b)+m.off
	}
	for i := range lv.plan {
		tr := &lv.plan[i]
		if tr.From != me && tr.To != me {
			continue
		}
		b := tr.Boxes[0]
		for j := 0; j < len(cl.data); j += 3 {
			b.Lo[cl.data[j]], b.Hi[cl.data[j]] = cl.data[j+1], cl.data[j+2]
		}
		tr.Elems = b.Card()
	}
	return true
}

// key is the transfer of e's data on rank t within peer's box: its
// array, source and target, packed in transfer order.
func (e *eventForm) key(t, peer int) int {
	if e.read {
		t, peer = peer, t
	}
	return e.arr<<32 | t<<16 | peer
}

// transfer decomposes the data of transfer (arr, from, to) into Plan's
// boxes, in canonical order, and counts it: Plan's union, over the
// events of arr in order, of each one's part — its non-local data on the
// one rank within the other's local box, one box — on the arena.  The
// transfer is some event's pair, so the two ranks' boxes are apart.
func (lv *level) transfer(fm *form, arr, from, to int) ([]iset.Box, int64) {
	var acc iset.Set
	for ei := range fm.events {
		e := &fm.events[ei]
		if e.arr != arr || !lv.live[ei] {
			continue
		}
		t, peer := from, to
		if e.read {
			t, peer = to, from
		}
		if b, ok := lv.part(e, ei, t, peer); ok {
			acc = lv.ar.UnionBox(acc, b)
		}
	}
	return lv.ar.Boxes(acc), acc.Card()
}

// part is event ei's part of transfer (t, peer) at the point, on the
// arena, and whether it has one: t's data less its own, within the
// peer's box, which the pair's boxes being apart makes the one box of
// t's data within the peer's (TestApartTransferIsOneBox) — its unclamped
// data within the clamps, where they leave t any iteration.
func (lv *level) part(e *eventForm, ei, t, peer int) (iset.Box, bool) {
	n, r := len(e.vars), len(e.ref)
	bx, cl := e.fixed.boxes[t*(1+2*n+2*r):], &lv.cm[ei]
	if bx[0] == 0 || !alive(bx[1:1+2*n], cl.it) {
		return iset.Box{}, false
	}
	into, b := e.layout.LocalBox(peer), lv.ar.Box(r)
	for k := range r {
		b.Lo[k], b.Hi[k] = max(int(bx[1+2*n+k]), into.Lo[k]), min(int(bx[1+2*n+r+k]), into.Hi[k])
	}
	for i := 0; i < len(cl.data); i += 3 {
		k := cl.data[i]
		b.Lo[k], b.Hi[k] = max(b.Lo[k], cl.data[i+1]), min(b.Hi[k], cl.data[i+2])
	}
	return b, !b.Empty()
}

// FormsDerived returns how many of s's firings have their closed form.
func (s *Schedule) FormsDerived() int {
	n := 0
	for i := range s.forms {
		if s.forms[i].Load() != nil {
			n++
		}
	}
	return n
}

// CheckForms makes every walk of s plan each firing through Plan as
// well, at the same point, and panic the rank on the first transfer
// whose array, ranks, elements or boxes differ, until restore.  checked
// counts the firings compared; Inductions, of those, the ones induced
// and the ones evaluated in full where a window crossed an edge.  It is
// for tests.
func (s *Schedule) CheckForms() (checked func() int64, restore func()) {
	s.checked.Store(0)
	s.induced.Store(0)
	s.crossed.Store(0)
	s.checking.Store(true)
	return s.checked.Load, func() { s.checking.Store(false) }
}

// Inductions returns how many of the firings CheckForms compared were
// induced from their level's last evaluation (level.induce), and how
// many were evaluated in full because a window left its safe interval.
func (s *Schedule) Inductions() (induced, crossed int64) {
	return s.induced.Load(), s.crossed.Load()
}

// check panics unless plan, the walker's plan of f at the point, is
// Plan's there, box for box where the walker's rank takes part.
func (w *Walker) check(f *Firing, plan []Transfer, depth int, strip *Strip, how evalHow) {
	want := w.S.Plan(f.Proc, f.Events, Point{Bind: w.b.byName(w.S.names), Depth: depth, Strip: strip})
	if err := samePlan(plan, want, w.Me); err != nil {
		panic(fmt.Sprintf("sched: closed form is not Plan: firing %d on rank %d at depth %d, strip %v (evaluation %d): %v", f.ID, w.Me, depth, strip, how, err))
	}
	w.S.checked.Add(1)
	switch how {
	case evalInduced:
		w.S.induced.Add(1)
	case evalCrossed:
		w.S.crossed.Add(1)
	}
}

// samePlan compares rank me's plan with Plan's: the same transfers, as
// far as the plan goes, which is past me's last and not to nothing.
func samePlan(plan []Transfer, want []comm.Transfer, me int) error {
	if len(plan) > len(want) || len(plan) == 0 && len(want) > 0 {
		return fmt.Errorf("closed form plans %d transfers, Plan %d", len(plan), len(want))
	}
	for _, w := range want[len(plan):] {
		if w.From == me || w.To == me {
			return fmt.Errorf("closed form plans %d transfers, Plan %d, %s %d->%d among the rest", len(plan), len(want), w.Array, w.From, w.To)
		}
	}
	for i, tr := range plan {
		w := want[i]
		if tr.Array != w.Array || tr.From != w.From || tr.To != w.To {
			return fmt.Errorf("transfer %d: closed form %s %d->%d, Plan %s %d->%d", i, tr.Array, tr.From, tr.To, w.Array, w.From, w.To)
		}
		if tr.From != me && tr.To != me {
			continue
		}
		if got, exp := fmt.Sprint(tr.Boxes), fmt.Sprint(w.Data.Boxes()); tr.Elems != w.Data.Card() || got != exp {
			return fmt.Errorf("transfer %d, %s %d->%d: closed form %d elements %s, Plan %d %s", i, tr.Array, tr.From, tr.To, tr.Elems, got, w.Data.Card(), exp)
		}
	}
	return nil
}
