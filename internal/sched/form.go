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
// (Walker.transfers), with the site of that walk resolved.
type form struct {
	arrays []string // the events' arrays, sorted: the first key of the transfer order
	slots  []int    // per array, its index in the procedure's ProcSched.Arrays
	events []eventForm
	site   site
}

// site is where a form is evaluated — the point's depth and the strip's
// slot (-1: none) — and what that fixes of each fixed event: the nest
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
		if e.fixed == nil {
			continue
		}
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

// eventForm is one event of a form: what nonLocalAt computes for it on
// a rank t — the iterations t runs (the union of its terms' boxes), with
// the point's clamps, mapped through the reference, cut to the array's
// space, less t's own data.
type eventForm struct {
	arr    int // index in form.arrays
	read   bool
	layout *hpf.Layout
	vars   []int      // the nest's variables, outermost first
	iter   []span     // the nest's iteration box, each range forward
	terms  []termForm // the ON_HOME terms; nil: every rank runs the whole box
	ref    []refDim   // the reference's subscripts
	// fixed is what the walk cannot change of an event that reads no
	// slot a walk rebinds, whose terms' boxes, each mapped through the
	// reference, hold exactly its data, and whose data moves only
	// between ranks whose local boxes do not meet (Schedule.fix); nil for
	// any other event, which is planned by nonLocalAt's steps alone.
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
	lo, hi  slotAff
}

// refDim is one subscript of RefDataBox: coef times nest dimension j
// plus off, or the point off when j < 0.
type refDim struct {
	j, coef int
	off     slotAff
}

// fixedForm holds per rank t and term, at (t·terms + term)·(1+2n+2r),
// a 1 when they have data, the term's unclamped iterations on t and
// their data in the array's space (n and r dimensions, lo then hi), and
// every rank pair that data can join anywhere in the loop domain.  A
// point only clamps the iterations, and through the reference the data
// (level.clamp).
type fixedForm struct {
	terms int
	boxes []int32
	pairs []pairForm // in transfer order
	last  []int      // per rank, its last pair (-1: none)
	offs  []int      // the reference's offsets
	// For an event of several terms: its non-local data per rank with
	// no clamp, the nest's box, and its dimensions no term or subscript
	// reads (free).  A point that clamps only free dimensions, within the
	// box, leaves the data as it is (level.nonLocal).
	nl    []iset.Set
	whole []int
	free  []bool
}

// pairForm is ranks t and p, whose local boxes do not meet, where the
// data of box (an index of boxes) on t holds points of p's box.  allow
// holds per nest dimension the box's iterations whose data lie within
// p's box, lo then hi.
type pairForm struct {
	t, p, box int
	allow     []int32
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
	var fixable []bool // per event form: its reference maps
	for _, e := range f.Events {
		layout := s.Ctx.Layout(f.Proc, e.Ref.Name)
		if layout == nil || len(e.Ref.Subs) == 0 {
			continue
		}
		ef := eventForm{read: e.Kind == comm.ReadComm, layout: layout}
		vars := ir.NestVars(e.Nest)
		ef.vars, ef.iter = make([]int, len(vars)), make([]span, len(vars))
		for k, l := range e.Nest {
			ls := ps.Loop(l)
			ef.vars[k], ef.iter[k] = ls.slot, span{ls.lo, ls.hi}
			if l.Step < 0 {
				ef.iter[k] = span{ls.hi, ls.lo}
			}
		}
		for _, t := range s.homeTerms(e.Stmt.ID) {
			tl := s.Ctx.Layout(f.Proc, t.Array)
			if tl == nil {
				ef.terms = nil // some term's array is everywhere: so is the whole box
				break
			}
			if len(t.Subs) != tl.Rank() {
				panic(fmt.Sprintf("sched: term %v rank %d vs local box rank %d", t, len(t.Subs), tl.Rank()))
			}
			tf := termForm{layout: tl, dims: make([]termDim, len(t.Subs))}
			for d, h := range t.Subs {
				switch j := slices.Index(vars, h.Var); {
				case h.IsRange:
					tf.dims[d] = termDim{j: -1, lo: r.aff(h.Lo, "", 0), hi: r.aff(h.Hi, "", 0)}
				case j < 0:
					v := r.aff(h.Off, h.Var, h.Coef)
					tf.dims[d] = termDim{j: -1, lo: v, hi: v}
				default:
					tf.dims[d] = termDim{j: j, coef: h.Coef, lo: r.aff(h.Off, "", 0)}
				}
			}
			ef.terms = append(ef.terms, tf)
		}
		// maps: the reference maps a box onto its image, each nest
		// dimension to at most one of the array's.
		maps, seen := true, make([]bool, len(vars))
		ef.ref = make([]refDim, len(e.Ref.Subs))
		for d, sub := range e.Ref.Subs {
			if j := slices.Index(vars, sub.Var); j >= 0 {
				ef.ref[d] = refDim{j: j, coef: sub.Coef, off: r.aff(sub.Off, "", 0)}
				maps = maps && sub.Coef*sub.Coef <= 1 && !(seen[j] && sub.Coef != 0)
				seen[j] = seen[j] || sub.Coef != 0
			} else {
				ef.ref[d] = refDim{j: -1, off: r.aff(sub.Off, sub.Var, sub.Coef)}
			}
		}
		if !slices.Contains(fm.arrays, e.Ref.Name) {
			fm.arrays = append(fm.arrays, e.Ref.Name)
		}
		fm.events, names, fixable = append(fm.events, ef), append(names, e.Ref.Name), append(fixable, maps)
	}
	slices.Sort(fm.arrays)
	for _, name := range fm.arrays {
		fm.slots = append(fm.slots, slices.Index(ps.Arrays, name))
	}
	for i := range fm.events {
		e := &fm.events[i]
		e.arr = slices.Index(fm.arrays, names[i])
		if fixable[i] && s.fixedSlots(e) {
			s.fix(e)
		}
	}
	fm.resolve(&fm.site, depth, strip)
	return fm
}

// fixedSlots reports whether every slot e reads is one no walk rebinds:
// a parameter that is neither a loop variable nor a formal.
func (s *Schedule) fixedSlots(e *eventForm) bool {
	fixed := func(a slotAff) bool {
		for _, t := range a.terms {
			if !s.fixed[t.slot] {
				return false
			}
		}
		return true
	}
	for _, sp := range e.iter {
		if !fixed(sp.lo) || !fixed(sp.hi) {
			return false
		}
	}
	for _, t := range e.terms {
		for _, d := range t.dims {
			if !fixed(d.lo) || !fixed(d.hi) {
				return false
			}
		}
	}
	for _, d := range e.ref {
		if !fixed(d.off) {
			return false
		}
	}
	return true
}

// fix derives e.fixed, unless two ranks whose local boxes meet would
// exchange its data.  Every point of the walk reads e's slots as the
// parameter binding does and only clamps the iterations further, so its
// rank pairs are among those found with no clamp.  Whether a pair
// exchanges data at a point is decided on the terms' boxes one by one:
// each maps onto its data, so their data is the union's.
func (s *Schedule) fix(e *eventForm) {
	ranks, n, r := s.Grid.Size(), len(e.iter), len(e.ref)
	lo, hi := e.termRange()
	fx := &fixedForm{terms: hi - lo, boxes: make([]int32, 0, ranks*(hi-lo)*(1+2*n+2*r))}
	var ar iset.Arena
	for t := range ranks {
		own := e.layout.LocalBox(t)
		for ti := lo; ti < hi; ti++ {
			it := e.execBox(&ar, s.params.vals, ti, t)
			d := e.refBox(&ar, s.params.vals, it)
			space := e.layout.Space()
			for k := range r {
				d.Lo[k], d.Hi[k] = max(d.Lo[k], space.Lo[k]), min(d.Hi[k], space.Hi[k])
			}
			has, box := !it.Empty() && !d.Empty(), len(fx.boxes)
			fx.boxes = append(fx.boxes, int32(b2i(has)))
			for _, v := range [][]int{it.Lo, it.Hi, d.Lo, d.Hi} {
				for _, x := range v {
					if int(int32(x)) != x {
						return // beyond int32: planned by nonLocalAt's steps
					}
					fx.boxes = append(fx.boxes, int32(x))
				}
			}
			for p := 0; p < ranks && has; p++ {
				lp := e.layout.LocalBox(p)
				near := ar.Box(r)
				for k := range r {
					near.Lo[k], near.Hi[k] = max(d.Lo[k], lp.Lo[k]), min(d.Hi[k], lp.Hi[k])
				}
				if p != t && !near.Empty() && !own.ContainsBox(near) {
					if own.Intersects(lp) {
						return // boxes that meet: planned by nonLocalAt's steps
					}
					pr := pairForm{t: t, p: p, box: box}
					pr.allow = slices.Clone(fx.boxes[box+1 : box+1+2*n])
					for d, rd := range e.ref {
						if rd.j < 0 || rd.coef == 0 {
							continue
						}
						off := rd.off.eval(s.params.vals)
						a, b := near.Lo[d]-off, near.Hi[d]-off
						if rd.coef < 0 {
							a, b = -b, -a
						}
						if int(int32(a)) != a || int(int32(b)) != b {
							return
						}
						pr.allow[rd.j], pr.allow[n+rd.j] = max(pr.allow[rd.j], int32(a)), min(pr.allow[n+rd.j], int32(b))
					}
					fx.pairs = append(fx.pairs, pr)
				}
			}
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
	for _, rd := range e.ref {
		fx.offs = append(fx.offs, rd.off.eval(s.params.vals))
	}
	if fx.terms > 1 {
		fx.whole, fx.free = make([]int, 2*n), make([]bool, n)
		for k, sp := range e.iter {
			fx.whole[k], fx.whole[n+k], fx.free[k] = sp.lo.eval(s.params.vals), sp.hi.eval(s.params.vals), true
		}
		for _, tf := range e.terms {
			for _, td := range tf.dims {
				if td.j >= 0 {
					fx.free[td.j] = false
				}
			}
		}
		for _, rd := range e.ref {
			if rd.j >= 0 {
				fx.free[rd.j] = false
			}
		}
		for t := range ranks {
			fx.nl = append(fx.nl, e.nonLocal(nil, at{vals: s.params.vals}, t))
		}
	}
	e.fixed = fx
	if fx.terms == 1 {
		// What the fixed boxes hold, nothing evaluates again.
		e.iter, e.terms = nil, nil
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// termRange is the execBox terms: each term, or -1 for the whole box.
func (e *eventForm) termRange() (lo, hi int) {
	if e.terms == nil {
		return -1, 0
	}
	return 0, len(e.terms)
}

// execBox is term ti's iterations on rank t (ti < 0: the whole box),
// unclamped, made on ar.
func (e *eventForm) execBox(ar *iset.Arena, vals []int, ti, t int) iset.Box {
	b := ar.Box(len(e.iter))
	for k, sp := range e.iter {
		b.Lo[k], b.Hi[k] = sp.lo.eval(vals), sp.hi.eval(vals)
	}
	if ti < 0 {
		return b
	}
	tf := &e.terms[ti]
	local := tf.layout.LocalBox(t)
	for d, td := range tf.dims {
		dlo, dhi := local.Lo[d], local.Hi[d]
		j, off := td.j, td.lo.eval(vals)
		switch {
		case j < 0:
			if max(off, dlo) > min(td.hi.eval(vals), dhi) {
				for k := range b.Lo { // a box of no dimension stays whole
					b.Lo[k], b.Hi[k] = 1, 0
				}
				return b
			}
		case td.coef == 1:
			b.Lo[j], b.Hi[j] = max(b.Lo[j], dlo-off), min(b.Hi[j], dhi-off)
		default: // coefficient -1: dlo ≤ -i+off ≤ dhi
			b.Lo[j], b.Hi[j] = max(b.Lo[j], off-dhi), min(b.Hi[j], off-dlo)
		}
	}
	return b
}

// refBox maps the iteration box through the reference, made on ar.
func (e *eventForm) refBox(ar *iset.Arena, vals []int, iter iset.Box) iset.Box {
	b := ar.Box(len(e.ref))
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

// nonLocal is nonLocalAt's steps on the arena.
func (e *eventForm) nonLocal(ar *iset.Arena, p at, t int) iset.Set {
	iters := iset.EmptySet(len(e.iter))
	for ti, hi := e.termRange(); ti < hi; ti++ {
		iters = ar.UnionBox(iters, e.execBox(ar, p.vals, ti, t))
	}
	for k := 0; k < p.depth && k < len(e.vars); k++ {
		v := p.vals[e.vars[k]]
		iters = ar.ClampDim(iters, k, v, v)
	}
	if p.strip != nil {
		for k, v := range e.vars {
			if v == p.strip.slot {
				iters = ar.ClampDim(iters, k, p.strip.Lo, p.strip.Hi)
			}
		}
	}
	if iters.IsEmpty() {
		return iters
	}
	its := iters.SharedBoxes()
	if len(its) > 1 {
		its = ar.Boxes(iters) // RefDataSet's order
	}
	data := iset.EmptySet(len(e.ref))
	for _, b := range its {
		data = ar.UnionBox(data, e.refBox(ar, p.vals, b))
	}
	return ar.SubtractBox(ar.IntersectBox(data, e.layout.Space()), e.layout.LocalBox(t))
}

// level is the scratch one plan is evaluated on, valid until the level
// is evaluated on again.
type level struct {
	ar   iset.Arena
	tmp  *iset.Arena // the walker's, shared by its levels: what one nonLocal makes and drops
	keys []int       // the plan's transfers (eventForm.key)
	// Per event of the form, its clamps (clamp) and whether they leave
	// any iteration; per (event, rank), the non-local data nl holds
	// where have says so.
	cm     []clamps
	live   []bool
	nl     []iset.Set
	have   []bool
	d      []int      // a fixed event's data on a rank (fixedData)
	out    []iset.Box // the plan's one-box transfers' boxes
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

// clamps are a point's clamps of one fixed event: the nest dimensions
// it clamps and the data dimensions those clamp, each as dimension, lo,
// hi.
type clamps struct {
	it, data []int
}

// induction is what the level's last evaluation proved of the next,
// when it evaluated a form of one fixed event of one term (fast): as
// long as each clamped dimension's window stays within its safe
// interval (safe: lo, hi per site dimension), no rank pair's liveness
// changes, so neither do the plan's transfers, and each of rank me's
// boxes is the image of the windows where they map (induce).  fm nil:
// nothing proven.
type induction struct {
	fm   *form
	st   *site
	me   int
	safe []int
}

// clamp computes fixed event ei's clamps at the point, at site event se,
// into cm[ei] and reports whether they leave some iteration.  Each
// subscript is monotone, so clamping a nest dimension clamps the data
// dimensions it maps to, to the image of the clamp.
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

// fixedData computes into d the data of fixed event ei of one term (or
// none) on rank t at the point: its unclamped data within the clamps
// (clamp), and reports whether there is any.
func (lv *level) fixedData(e *eventForm, ei, t int) bool {
	n, r := len(e.vars), len(e.ref)
	b := e.fixed.boxes[t*e.fixed.terms*(1+2*n+2*r):]
	cl := &lv.cm[ei]
	if !lv.live[ei] || b[0] == 0 || !alive(b[1:1+2*n], cl.it) {
		return false
	}
	d := slices.Grow(lv.d[:0], 2*r)[:2*r]
	lv.d = d
	for k := range 2 * r {
		d[k] = int(b[1+2*n+k])
	}
	for i := 0; i < len(cl.data); i += 3 {
		k := cl.data[i]
		if d[k], d[r+k] = max(d[k], cl.data[i+1]), min(d[r+k], cl.data[i+2]); d[k] > d[r+k] {
			return false
		}
	}
	return true
}

// clampsFree reports whether the clamps of fixed event ei (clamp) leave
// its data as with none: each of a free dimension, within the nest's
// box.  Every term box spans the free dimension whole, so every box of
// the union does, and each is clamped alike: the union's pieces, their
// canonical order and their data stay.
func (lv *level) clampsFree(e *eventForm, ei int) bool {
	fx, cl, n := e.fixed, &lv.cm[ei], len(e.vars)
	for i := 0; i < len(cl.it) && lv.live[ei]; i += 3 {
		k := cl.it[i]
		if !fx.free[k] || max(fx.whole[k], cl.it[i+1]) > min(fx.whole[n+k], cl.it[i+2]) {
			return false
		}
	}
	return lv.live[ei]
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

// nonLocal is event ei's non-local data on rank t at the point, computed
// once per evaluation by nonLocalAt's set operations in their order, so
// in its boxes: for a fixed event, its one data box less t's own.
func (lv *level) nonLocal(fm *form, ei int, p at, t, ranks int) iset.Set {
	i := ei*ranks + t
	if lv.have[i] {
		return lv.nl[i]
	}
	e, ar := &fm.events[ei], &lv.ar
	set := iset.EmptySet(len(e.ref))
	switch {
	case e.fixed != nil && e.fixed.terms > 1 && lv.clampsFree(e, ei):
		set = e.fixed.nl[t]
	case e.fixed == nil || e.fixed.terms > 1:
		// nonLocalAt's steps make many sets to keep one: they are made on
		// tmp, and the one is copied — in its own boxes and order, which
		// a union of a coalesced set's boxes one by one keeps.
		lv.tmp.Reset()
		for _, b := range e.nonLocal(lv.tmp, p, t).SharedBoxes() {
			set = ar.UnionBox(set, ar.Clone(b))
		}
	case lv.fixedData(e, ei, t):
		r := len(e.ref)
		b := ar.Box(r)
		copy(b.Lo, lv.d[:r])
		copy(b.Hi, lv.d[r:])
		set = ar.SubtractBox(ar.UnionBox(set, b), e.layout.LocalBox(t))
	}
	lv.nl[i], lv.have[i] = set, true
	return set
}

// fast reports whether fm is one fixed event of one term — the form of
// almost every firing — whose transfers are read off its pairs, one box
// each.
func (fm *form) fast() bool {
	return len(fm.events) == 1 && fm.events[0].fixed != nil && fm.events[0].fixed.terms == 1
}

// eval evaluates the form on rank me at the point: the firing's
// transfers in Plan's order — by array, source, target — so transfer i
// is Plan's transfer i, with Boxes and Elems filled where me is its
// source or target.  It lists them at least up to me's last, and one if
// the firing has any: the rest is no rank's business but their own.
// Which rank pairs of a fixed event exchange data is read off its pairs,
// in transfer order — for a fast form only until me's last pair, or the
// first that exchanges data; any other event's, off nonLocalAt's sets.
// A fast form's evaluation the level's last one proved is induced
// (induce).
func (fm *form) eval(lv *level, p at, me, ranks int) []Transfer {
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
	cells := len(fm.events) * ranks
	lv.nl, lv.have = slices.Grow(lv.nl[:0], cells)[:cells], slices.Grow(lv.have[:0], cells)[:cells]
	clear(lv.have)
	lv.cm, lv.live = slices.Grow(lv.cm, len(fm.events))[:len(fm.events)], slices.Grow(lv.live[:0], len(fm.events))[:len(fm.events)]
	lv.out = lv.out[:0]
	for ei := range fm.events {
		e := &fm.events[ei]
		if e.fixed == nil {
			for t := range ranks {
				if nl := lv.nonLocal(fm, ei, p, t, ranks); !nl.IsEmpty() {
					for q := range ranks {
						if q != t && meets(nl, e.layout.LocalBox(q)) {
							lv.keys = append(lv.keys, e.key(t, q))
						}
					}
				}
			}
			continue
		}
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
			tr.Boxes, tr.Elems = lv.transfer(fm, arr, tr.From, tr.To, p, ranks)
		}
	}
	lv.ind.fm = nil
	if fm.fast() {
		lv.prove(fm, st, me)
	}
	return lv.plan
}

// prove records what the fast form fm's evaluation at site st on rank me
// just made proves of the next (induction): per clamped dimension, the
// interval that holds its window and that no edge of a pair's allowed
// range splits — nothing, when an edge splits the window itself or a
// transfer of me's is not one box.
func (lv *level) prove(fm *form, st *site, me int) {
	e, cl := &fm.events[0], &lv.cm[0]
	if !lv.live[0] {
		return
	}
	for _, tr := range lv.plan {
		if (tr.From == me || tr.To == me) && len(tr.Boxes) != 1 {
			return
		}
	}
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
// boxes, in canonical order, and counts it: Plan's union over the
// events of arr of their non-local data on the one rank within the
// other's local box, by Plan's set operations on the arena — but where
// one fixed event of one box makes the transfer, as at almost every
// firing, that is one box.
func (lv *level) transfer(fm *form, arr, from, to int, p at, ranks int) ([]iset.Box, int64) {
	n := 0
	for ei := range fm.events {
		n += b2i(fm.events[ei].arr == arr)
	}
	var acc iset.Set
	for ei := range fm.events {
		e := &fm.events[ei]
		if e.arr != arr {
			continue
		}
		t, peer := from, to
		if e.read {
			t, peer = to, from
		}
		if into := e.layout.LocalBox(peer); n == 1 && e.fixed != nil && e.fixed.terms == 1 {
			// The pair's boxes are apart, so the data less own, within the
			// peer's box, is one box: the data within the peer's
			// (TestApartTransferIsOneBox), which the pass over the pairs
			// found clamped to some.
			nv, r := len(e.vars), len(e.ref)
			d, b := e.fixed.boxes[t*(1+2*nv+2*r)+1+2*nv:], lv.ar.Box(r)
			for k := range r {
				b.Lo[k], b.Hi[k] = max(int(d[k]), into.Lo[k]), min(int(d[r+k]), into.Hi[k])
			}
			data := lv.cm[ei].data
			for i := 0; i < len(data); i += 3 {
				k := data[i]
				b.Lo[k], b.Hi[k] = max(b.Lo[k], data[i+1]), min(b.Hi[k], data[i+2])
			}
			if b.Empty() {
				break
			}
			lv.out = append(lv.out, b)
			return lv.out[len(lv.out)-1 : len(lv.out) : len(lv.out)], b.Card()
		}
		part := lv.ar.IntersectBox(lv.nonLocal(fm, ei, p, t, ranks), e.layout.LocalBox(peer))
		for _, b := range part.SharedBoxes() {
			acc = lv.ar.UnionBox(acc, b)
		}
	}
	return lv.ar.Boxes(acc), acc.Card()
}

// meets reports whether some box of s meets b.
func meets(s iset.Set, b iset.Box) bool {
	for _, have := range s.SharedBoxes() {
		if have.Intersects(b) {
			return true
		}
	}
	return false
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
