// Package cp implements dhpf's computation partitioning (CP) model and
// the four CP optimizations of the SC'98 paper:
//
//   - the general CP representation ON_HOME A1(f1(i)) ∪ … ∪ An(fn(i)),
//     a strict generalization of owner-computes (§2);
//   - local CP selection: enumerate candidate CPs per statement, evaluate
//     the communication each combination induces, pick the cheapest (§2);
//   - CP propagation for privatizable (NEW) arrays and LOCALIZE partial
//     replication: translate each use's CP back to the definition through
//     a 1-1 linear subscript mapping, vectorizing untranslated subscripts
//     through the loops that enclose the use but not the definition
//     (§4.1, §4.2);
//   - communication-sensitive loop distribution: union-find grouping of
//     statements connected by loop-independent dependences, restricting
//     the groups' CP choice sets to common choices, then *selective* SCC
//     distribution for the pairs that could not be aligned (§5);
//   - interprocedural CP selection, bottom-up on the call graph, with the
//     callee's entry CP translated to each call site (§6).
package cp

import (
	"fmt"
	"sort"
	"strings"

	"dhpf/internal/hpf"
	"dhpf/internal/ir"
	"dhpf/internal/iset"
)

// HomeSub is one subscript of an ON_HOME term.  It is either an affine
// function of a loop index variable (like ir.Subscript) or a vectorized
// range [Lo:Hi] produced when CP translation expands an untranslated
// subscript through a loop surrounding the use (§4.1).
type HomeSub struct {
	// Affine form: Coef*Var + Off (Var == "" ⇒ the constant Off).
	Var  string
	Coef int
	Off  ir.AffExpr
	// Range form (IsRange == true): the closed interval [Lo:Hi].
	IsRange bool
	Lo, Hi  ir.AffExpr
}

// FromSubscript converts an ir.Subscript into a HomeSub.
func FromSubscript(s ir.Subscript) HomeSub {
	return HomeSub{Var: s.Var, Coef: s.Coef, Off: s.Off}
}

// RangeSub builds a vectorized range subscript.
func RangeSub(lo, hi ir.AffExpr) HomeSub {
	return HomeSub{IsRange: true, Lo: lo, Hi: hi}
}

// Eq reports structural equality.
func (h HomeSub) Eq(o HomeSub) bool {
	if h.IsRange != o.IsRange {
		return false
	}
	if h.IsRange {
		return h.Lo.Eq(o.Lo) && h.Hi.Eq(o.Hi)
	}
	if h.Var != o.Var {
		return false
	}
	if h.Var != "" && h.Coef != o.Coef {
		return false
	}
	return h.Off.Eq(o.Off)
}

func (h HomeSub) appendText(dst []byte) []byte {
	if h.IsRange {
		dst = append(h.Lo.AppendText(dst), ':')
		return h.Hi.AppendText(dst)
	}
	return ir.Subscript{Var: h.Var, Coef: h.Coef, Off: h.Off}.AppendText(dst)
}

func (h HomeSub) String() string { return string(h.appendText(nil)) }

// Term is one ON_HOME term: the owner set of Array(Subs...).
type Term struct {
	Array string
	Subs  []HomeSub
}

// TermOf builds a term from an array reference.
func TermOf(r *ir.ArrayRef) Term {
	t := Term{Array: r.Name, Subs: make([]HomeSub, len(r.Subs))}
	for k, s := range r.Subs {
		t.Subs[k] = FromSubscript(s)
	}
	return t
}

// Eq reports structural equality of terms.
func (t Term) Eq(o Term) bool {
	if t.Array != o.Array || len(t.Subs) != len(o.Subs) {
		return false
	}
	for k := range t.Subs {
		if !t.Subs[k].Eq(o.Subs[k]) {
			return false
		}
	}
	return true
}

func (t Term) appendText(dst []byte) []byte {
	dst = append(append(dst, t.Array...), '(')
	for k, s := range t.Subs {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = s.appendText(dst)
	}
	return append(dst, ')')
}

func (t Term) String() string { return string(t.appendText(nil)) }

// CP is a computation partitioning: the union of the owner sets of its
// ON_HOME terms.  A nil/empty CP means replicated execution (every
// processor runs the statement) — used for statements touching only
// undistributed data.
type CP struct {
	Terms []Term
}

// OnHome builds a CP from array references.
func OnHome(refs ...*ir.ArrayRef) *CP {
	c := &CP{}
	for _, r := range refs {
		c.AddTerm(TermOf(r))
	}
	return c
}

// Replicated reports whether the CP means "execute everywhere".
func (c *CP) Replicated() bool { return c == nil || len(c.Terms) == 0 }

// AddTerm unions a term in, dropping structural duplicates.
func (c *CP) AddTerm(t Term) {
	for _, have := range c.Terms {
		if have.Eq(t) {
			return
		}
	}
	c.Terms = append(c.Terms, t)
}

// Union returns the union of two CPs.  Union with a replicated CP is
// replicated (everyone already executes).
func (c *CP) Union(o *CP) *CP {
	if c.Replicated() || o.Replicated() {
		return &CP{}
	}
	out := &CP{}
	for _, t := range c.Terms {
		out.AddTerm(t)
	}
	for _, t := range o.Terms {
		out.AddTerm(t)
	}
	return out
}

// Eq reports structural equality (as unordered term sets).
func (c *CP) Eq(o *CP) bool {
	if c.Replicated() || o.Replicated() {
		return c.Replicated() == o.Replicated()
	}
	if len(c.Terms) != len(o.Terms) {
		return false
	}
	for _, t := range c.Terms {
		found := false
		for _, u := range o.Terms {
			if t.Eq(u) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func (c *CP) String() string {
	if c.Replicated() {
		return "ON_HOME <all>"
	}
	parts := make([]string, len(c.Terms))
	for i, t := range c.Terms {
		parts[i] = t.String()
	}
	sort.Strings(parts)
	return "ON_HOME " + strings.Join(parts, " u ")
}

// ---------------------------------------------------------------------------
// Iteration-set evaluation
// ---------------------------------------------------------------------------

// IterBox evaluates the rectangular iteration space of a loop nest
// (outermost first) under the parameter binding, normalizing backward
// loops to forward intervals.
func IterBox(nest []*ir.Loop, bind map[string]int) iset.Box {
	box := iset.MakeBox(len(nest))
	for i, l := range nest {
		a, b := l.Lo.Eval(bind), l.Hi.Eval(bind)
		if l.Step < 0 {
			a, b = b, a
		}
		box.Lo[i], box.Hi[i] = a, b
	}
	return box
}

// ExecBox computes the iterations of iterBox (whose dimensions are the
// nest variables, outermost first) that the term assigns to a processor
// owning exactly the array box local, and whether there are any.  A
// range subscript constrains no iteration variable; it only gates the
// whole box on whether the range intersects the local box in that
// dimension (∃-semantics).  A subscript that misses the local box leaves
// none, also at depth 0, where the box has no dimension to make empty.
func (t Term) ExecBox(nestVars []string, iterBox iset.Box, local iset.Box, bind map[string]int) (iset.Box, bool) {
	if len(t.Subs) != local.Rank() {
		panic(fmt.Sprintf("cp: term %v rank %d vs local box rank %d", t, len(t.Subs), local.Rank()))
	}
	out := iset.NewBox(iterBox.Lo, iterBox.Hi)
	for d, s := range t.Subs {
		dlo, dhi := local.Lo[d], local.Hi[d]
		if s.IsRange {
			if max(s.Lo.EvalOr(bind, 0), dlo) > min(s.Hi.EvalOr(bind, 0), dhi) {
				return out, false
			}
			continue
		}
		off := s.Off.EvalOr(bind, 0)
		j := indexOf(nestVars, s.Var)
		switch {
		case j < 0:
			// A constant, or a variable that is not a nest variable
			// (e.g. an integer formal bound at run time): a symbolic
			// parameter.  bind[""] is 0.
			if v := s.Coef*bind[s.Var] + off; v < dlo || v > dhi {
				return out, false
			}
		case s.Coef == 1:
			out.Lo[j] = max(out.Lo[j], dlo-off)
			out.Hi[j] = min(out.Hi[j], dhi-off)
		default: // Coef == -1: dlo ≤ -i+off ≤ dhi
			out.Lo[j] = max(out.Lo[j], off-dhi)
			out.Hi[j] = min(out.Hi[j], off-dlo)
		}
	}
	return out, !out.Empty()
}

// emptied makes every dimension of a box still being built empty.
func emptied(b iset.Box) iset.Box {
	for k := range b.Lo {
		b.Lo[k], b.Hi[k] = 1, 0
	}
	return b
}

// IterSet computes the set of iterations of the nest a processor with the
// given local ownership boxes executes under this CP: the union of its
// terms' ExecBoxes, empty (of rank 0 at depth 0) where no term has any.
// localOf maps an array name to the processor's local box for it (nil
// layout arrays — replicated — make the term cover the whole iteration
// space).
func (c *CP) IterSet(nest []*ir.Loop, bind map[string]int, localOf func(array string) (iset.Box, bool)) iset.Set {
	iterBox := IterBox(nest, bind)
	if c.Replicated() {
		return iset.FromBox(iterBox)
	}
	vars := ir.NestVars(nest)
	out := iset.EmptySet(iterBox.Rank())
	for _, t := range c.Terms {
		local, distributed := localOf(t.Array)
		if !distributed {
			return iset.FromBox(iterBox)
		}
		if b, ok := t.ExecBox(vars, iterBox, local, bind); ok {
			out = out.UnionBox(b)
		}
	}
	return out
}

// RefDataBox computes the box of array elements a reference touches over
// an iteration box (dimensions = nestVars).
func RefDataBox(ref *ir.ArrayRef, nestVars []string, iter iset.Box, bind map[string]int) iset.Box {
	box := iset.MakeBox(len(ref.Subs))
	if iter.Empty() {
		return emptied(box)
	}
	for d, s := range ref.Subs {
		off := s.Off.EvalOr(bind, 0)
		a := s.Coef*bind[s.Var] + off // no nest variable: a point (bind[""] is 0)
		b := a
		if j := indexOf(nestVars, s.Var); j >= 0 {
			a, b = s.Coef*iter.Lo[j]+off, s.Coef*iter.Hi[j]+off
		}
		box.Lo[d], box.Hi[d] = min(a, b), max(a, b)
	}
	return box
}

// RefDataSet maps an iteration set through a reference.  A one-box set is
// read in place; a larger one in canonical order, because UnionBox's
// decomposition of the result depends on the order its boxes arrive in.
func RefDataSet(ref *ir.ArrayRef, nestVars []string, iters iset.Set, bind map[string]int) iset.Set {
	out := iset.EmptySet(len(ref.Subs))
	boxes := iters.SharedBoxes()
	if len(boxes) > 1 {
		boxes = iters.Boxes()
	}
	for _, b := range boxes {
		out = out.UnionBox(RefDataBox(ref, nestVars, b, bind))
	}
	return out
}

func indexOf(xs []string, v string) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// LocalBoxFunc builds the localOf callback for a rank from a binding.
func LocalBoxFunc(b *hpf.Binding, rank int) func(string) (iset.Box, bool) {
	return func(array string) (iset.Box, bool) {
		l := b.LayoutOf(array)
		if l == nil {
			return iset.Box{}, false
		}
		return l.LocalBox(rank), true
	}
}
