package sched

import (
	"slices"

	"dhpf/internal/cp"
	"dhpf/internal/ir"
)

// A slot is a scalar name's index in Schedule.names.  New resolves
// everything the walk reads by name — each loop's variable and bounds,
// each statement's nest variables, each procedure's integer formals — to
// slots once, so a walk binds, evaluates bounds and plans (form.go)
// without touching a name.  Names stay at the API edges: Lookup, the planner, a
// rank's first activation under a binding, Point.Bind.

// Slot returns name's slot, or -1 for a name the program never binds.
func (s *Schedule) Slot(name string) int {
	if i, ok := slices.BinarySearch(s.names, name); ok {
		return i
	}
	return -1
}

// binding is a scalar binding in slot form: vals[i] is names[i]'s value
// when bound[i], and 0 when not, so a slot form reads an unbound name as
// zero, as AffExpr.EvalOr(bind, 0) does.
type binding struct {
	vals  []int
	bound []bool
	m     map[string]int // what byName last returned
}

// byName returns the binding as a name map for the API edges that take
// one: the planner and the iteration sets.  The map is the binding's
// own, valid until the next call.
func (b *binding) byName(names []string) map[string]int {
	if b.m == nil {
		b.m = make(map[string]int, len(names))
	} else {
		clear(b.m)
	}
	for i, ok := range b.bound {
		if ok {
			b.m[names[i]] = b.vals[i]
		}
	}
	return b.m
}

// slotAff is an affine form in slot form: c plus each term's coefficient
// times its slot's value.  A name the program never binds reads as zero
// and has no term.
type slotAff struct {
	c     int
	terms []slotTerm
}

type slotTerm struct{ slot, coef int }

func (a slotAff) eval(vals []int) int {
	v := a.c
	for _, t := range a.terms {
		v += t.coef * vals[t.slot]
	}
	return v
}

// span is the range lo:hi in slot form.
type span struct{ lo, hi slotAff }

// number resolves the schedule's reads by name to slots: the parameter
// binding Reset copies, every loop's variable, bounds and strip loop,
// every statement's nest variables, and every procedure's formals.  The
// slot forms of one schedule are carved from one block per kind.
func (s *Schedule) number(params map[string]int) {
	nInts, nTerms := 0, 0
	for proc, ps := range s.procs {
		nInts += len(proc.Formals)
		for _, ls := range ps.own {
			nTerms += len(ls.loop.Lo.Terms) + len(ls.loop.Hi.Terms)
		}
		for _, nest := range ps.Nest {
			nInts += len(nest)
		}
	}
	r := carver{
		s:     s,
		ints:  make([]int, len(s.names)+nInts),
		terms: make([]slotTerm, 0, nTerms),
	}
	s.params = binding{vals: r.take(len(s.names)), bound: make([]bool, len(s.names))}
	s.fixed = make([]bool, len(s.names))
	for name, v := range params {
		if i := s.Slot(name); i >= 0 {
			s.params.vals[i], s.params.bound[i], s.fixed[i] = v, true, true
		}
	}
	s.nestSlots = make([][]int, s.prog.MaxStmtID())
	for proc, ps := range s.procs { // each form is carved apart: the order does not show
		ps.formals = r.take(len(proc.Formals))
		for k, formal := range proc.Formals {
			if ps.formals[k] = s.Slot(formal); ps.formals[k] >= 0 {
				s.fixed[ps.formals[k]] = false
			}
		}
		for _, ls := range ps.own {
			l := ls.loop
			ls.slot, ls.lo, ls.hi = s.Slot(l.Var), r.aff(l.Lo, "", 0), r.aff(l.Hi, "", 0)
			ls.strip = ps.find(ls.Strip)
			s.fixed[ls.slot] = false
		}
		for id, nest := range ps.Nest {
			vars := r.take(len(nest))
			for k, l := range nest {
				vars[k] = s.Slot(l.Var)
			}
			s.nestSlots[id] = vars
		}
	}
}

// carver hands out number's slot forms from its blocks.
type carver struct {
	s     *Schedule
	ints  []int
	terms []slotTerm
}

func (r *carver) take(n int) []int {
	out := r.ints[:n:n]
	r.ints = r.ints[n:]
	return out
}

// aff resolves a + coef·v (v "" for none) against the schedule's slots.
func (r *carver) aff(a ir.AffExpr, v string, coef int) slotAff {
	from := len(r.terms)
	for _, t := range a.Terms {
		if i := r.s.Slot(t.Name); i >= 0 {
			r.terms = append(r.terms, slotTerm{i, t.Coef})
		}
	}
	if i := r.s.Slot(v); i >= 0 {
		r.terms = append(r.terms, slotTerm{i, coef})
	}
	return slotAff{c: a.Const, terms: r.terms[from:len(r.terms):len(r.terms)]}
}

// termsOf returns the ON_HOME terms of statement id's CP, none when it is
// replicated.
func (s *Schedule) termsOf(id int) []cp.Term {
	if c := s.Sel.CPs[id]; c != nil {
		return c.Terms
	}
	return nil
}

// span resolves an ON_HOME subscript to the range it spans, a point v as
// v:v.
func (r *carver) span(h cp.HomeSub) span {
	if h.IsRange {
		return span{r.aff(h.Lo, "", 0), r.aff(h.Hi, "", 0)}
	}
	at := r.aff(h.Off, h.Var, h.Coef)
	return span{at, at}
}
