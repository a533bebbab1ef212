package cp

import (
	"slices"

	"dhpf/internal/dep"
	"dhpf/internal/hpf"
	"dhpf/internal/ir"
)

// DistributeLoops applies §5's *selective* loop distribution: for every
// statement pair marked during CP selection (no common CP choice), split
// the loop that is their lowest common ancestor so the pair lands in
// different loops — into the *minimum* number of new loops, by fusing
// the SCCs of the dependence graph that do not need to be separated.
// Pairs whose endpoints share an SCC cannot legally be split; they are
// left in place (their communication stays at that loop level) and
// reported in the selection notes.
//
// Statement objects are reused, so CPs recorded by statement ID remain
// valid; only Loop nodes are re-created (with fresh IDs).  When it
// rewrites the body it drops proc's dependences from ctx: the next reader
// derives them from the body as it stands.
func DistributeLoops(ctx *Context, proc *ir.Procedure, sel *Selection) {
	// Distribution notes come after every selection note, grouped by the
	// procedure's program order (the order compile calls us in).
	sel.cur = noteKey{late: 1}
	for i, p := range ctx.Prog.Procs {
		if p == proc {
			sel.cur.proc = i
			break
		}
	}
	pairs := sel.Marked[proc]
	if len(pairs) == 0 {
		return
	}

	changed := false
	// Process repeatedly: splitting an outer loop can expose the next
	// pair's LCA.  Each pass resolves at least one pair or stops.
	for iter := 0; iter < len(pairs)+1; iter++ {
		var unresolved [][2]*ir.Assign
		progressed := false
		for _, pair := range pairs {
			lca, parentBody := lcaLoop(proc, pair[0], pair[1])
			if lca == nil || parentBody == nil {
				continue // endpoints no longer share a loop: resolved
			}
			if splitLoop(ctx, proc, lca, parentBody, pair, sel) {
				changed = true
				progressed = true
			} else {
				unresolved = append(unresolved, pair)
			}
		}
		pairs = unresolved
		if !progressed || len(pairs) == 0 {
			break
		}
	}
	for _, pair := range pairs {
		sel.notef("proc %s: pair (stmt %d, stmt %d) not distributable (shared SCC); communication stays inner",
			proc.Name, pair[0].ID, pair[1].ID)
	}
	if changed {
		ctx.dropDeps(proc)
	}
}

// lcaLoop finds the innermost loop containing both statements, and the
// body slice holding that loop (for replacement).  Returns nils when the
// statements no longer share a loop.
func lcaLoop(proc *ir.Procedure, a, b *ir.Assign) (*ir.Loop, *[]ir.Stmt) {
	pa := pathTo(proc.Body, a)
	pb := pathTo(proc.Body, b)
	if pa == nil || pb == nil {
		return nil, nil
	}
	var lca *ir.Loop
	n := min(len(pa), len(pb))
	k := 0
	for ; k < n; k++ {
		if pa[k] != pb[k] {
			break
		}
		lca = pa[k]
	}
	if lca == nil {
		return nil, nil
	}
	// Parent body of lca: body of the loop above it, or the proc body.
	if k >= 2 && pa[k-2] != nil {
		return lca, &pa[k-2].Body
	}
	return lca, &proc.Body
}

// pathTo returns the chain of loops from the top of body down to the
// statement (outermost first), or nil if absent.
func pathTo(body []ir.Stmt, target *ir.Assign) []*ir.Loop {
	var found []*ir.Loop
	ir.Walk(body, func(s ir.Stmt, loops []*ir.Loop) bool {
		if found != nil {
			return false
		}
		if s == ir.Stmt(target) {
			found = make([]*ir.Loop, len(loops))
			copy(found, loops)
			if found == nil {
				found = []*ir.Loop{}
			}
			return false
		}
		return true
	})
	return found
}

// splitLoop distributes loop l (found inside *parent) so that the two
// statements of pair end up in different loops.  Returns false when the
// pair shares an SCC of l's dependence graph (split illegal).
func splitLoop(ctx *Context, proc *ir.Procedure, l *ir.Loop, parent *[]ir.Stmt, pair [2]*ir.Assign, sel *Selection) bool {
	units := l.Body
	if len(units) < 2 {
		return false
	}
	unitOf := func(a *ir.Assign) int {
		for i, u := range units {
			if u == ir.Stmt(a) {
				return i
			}
			if lu, ok := u.(*ir.Loop); ok && containsAssign(lu, a) {
				return i
			}
		}
		return -1
	}
	u1, u2 := unitOf(pair[0]), unitOf(pair[1])
	if u1 < 0 || u2 < 0 || u1 == u2 {
		return false
	}

	// Dependence graph over units: any dependence between statements in
	// different units whose common nest includes l constrains order; a
	// backward (textually) dependence edge creates a cycle with the
	// forward program order, placing both units in one SCC.
	n := len(units)
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	stmtUnit := map[int]int{}
	for i, u := range units {
		ir.Walk([]ir.Stmt{u}, func(s ir.Stmt, _ []*ir.Loop) bool {
			if a, ok := s.(*ir.Assign); ok {
				stmtUnit[a.ID] = i
			}
			return true
		})
	}
	expandable := expandableScalars(ctx, proc, l, stmtUnit)
	for _, d := range ctx.Deps(proc) {
		// Dependence endpoints must both be inside l.
		if !nestHasLoop(d.CommonNest, l) {
			continue
		}
		si, oki := stmtUnit[d.Src.ID]
		di, okj := stmtUnit[d.Dst.ID]
		if !oki || !okj || si == di {
			continue
		}
		// Carried anti/output dependences on expandable scalars are
		// satisfied by scalar expansion (performed below if the split
		// separates the scalar's def from a use), so they do not
		// constrain distribution.
		if len(d.SrcRef.Subs) == 0 && expandable[d.SrcRef.Name] && d.Kind != dep.Flow {
			continue
		}
		adj[si][di] = true
	}

	comp := sccs(adj)
	if comp[u1] == comp[u2] {
		return false
	}

	// Units in textual order already topologically order the SCC
	// condensation for forward edges; backward edges are inside SCCs.
	// Greedy fusion: sweep units in order, cut only where a marked pair
	// would otherwise share a group.  (Only the current pair is enforced
	// here; other pairs get their own splitLoop call.)
	groupOf := make([]int, n)
	g := 0
	firstUnit, secondUnit := u1, u2
	if order_of(units, pair[0]) > order_of(units, pair[1]) {
		firstUnit, secondUnit = u2, u1
	}
	for i := 0; i < n; i++ {
		groupOf[i] = g
		// Cut between i and i+1 when the first pair member's component
		// is complete and the second's has not started.
		if i+1 < n && compDone(comp, i, firstUnit) && !compStarted(comp, i, secondUnit) && groupOf[firstUnit] == g {
			g++
		}
	}
	if groupOf[firstUnit] == groupOf[secondUnit] {
		// The greedy cut failed (interleaved components); fall back to
		// maximal split between distinct components.
		g = 0
		groupOf[0] = 0
		for i := 1; i < n; i++ {
			if comp[i] != comp[i-1] {
				g++
			}
			groupOf[i] = g
		}
		if groupOf[firstUnit] == groupOf[secondUnit] {
			return false
		}
	}

	// Build replacement loops.
	var repl []ir.Stmt
	cur := -1
	var curLoop *ir.Loop
	for i, u := range units {
		if groupOf[i] != cur {
			cur = groupOf[i]
			curLoop = &ir.Loop{
				ID: ctx.Prog.NewStmtID(), Var: l.Var, Lo: l.Lo, Hi: l.Hi, Step: l.Step,
				Independent: l.Independent, New: l.New, Localize: l.Localize,
			}
			repl = append(repl, curLoop)
		}
		curLoop.Body = append(curLoop.Body, u)
	}
	if len(repl) < 2 {
		return false
	}

	at := slices.Index(*parent, ir.Stmt(l))
	if at < 0 {
		return false
	}

	// Scalar expansion: any expandable scalar whose value now flows
	// between the split loops must become a per-iteration array so each
	// new loop sees the right instance (the standard enabling transform
	// for distribution past scalar temporaries like fac1 in Figure 5.1).
	for name := range expandable {
		if scalarCrossesGroups(ctx, proc, name, stmtUnit, groupOf) {
			expandScalar(ctx, proc, l, name, repl, sel)
			sel.notef("proc %s: scalar %s expanded across distributed loops of %s", proc.Name, name, l.Var)
		}
	}

	// Replace l in its parent body.
	nb := make([]ir.Stmt, 0, len(*parent)+len(repl)-1)
	nb = append(nb, (*parent)[:at]...)
	nb = append(nb, repl...)
	nb = append(nb, (*parent)[at+1:]...)
	*parent = nb
	sel.notef("proc %s: distributed loop %s into %d loops", proc.Name, l.Var, len(repl))
	return true
}

// expandableScalars finds scalars that are privatizable on loop l: every
// read inside l is preceded (textually, within the loop body — the mini
// language has no intra-loop control flow) by a write inside l.  Such
// scalars carry no value across iterations of l, so they can be expanded
// to arrays indexed by l's variable, dissolving their carried anti/output
// (and conservatively-reported carried flow) dependences.
func expandableScalars(ctx *Context, proc *ir.Procedure, l *ir.Loop, stmtUnit map[int]int) map[string]bool {
	firstWrite := map[string]int{}
	firstRead := map[string]int{}
	hasWrite := map[string]bool{}
	order := 0
	ir.Walk(l.Body, func(s ir.Stmt, _ []*ir.Loop) bool {
		a, ok := s.(*ir.Assign)
		if !ok {
			return true
		}
		order++
		for _, name := range ir.ScalarReads(a.RHS) {
			if _, seen := firstRead[name]; !seen {
				firstRead[name] = order
			}
		}
		if len(a.LHS.Subs) == 0 {
			if _, seen := firstWrite[a.LHS.Name]; !seen {
				firstWrite[a.LHS.Name] = order
			}
			hasWrite[a.LHS.Name] = true
		}
		return true
	})
	out := map[string]bool{}
	for name := range hasWrite {
		fr, read := firstRead[name]
		if !read || firstWrite[name] < fr {
			out[name] = true
		} else if read && firstWrite[name] == fr && !selfAccumulates(l, name) {
			// Written and read by the same statement: expandable only
			// when that statement does not read its own previous value
			// (a reduction carries a genuine recurrence).
			out[name] = true
		}
	}
	return out
}

// selfAccumulates reports whether some statement in l both writes the
// scalar and reads it (an accumulation like s = s + e).
func selfAccumulates(l *ir.Loop, name string) bool {
	found := false
	ir.Walk(l.Body, func(s ir.Stmt, _ []*ir.Loop) bool {
		a, ok := s.(*ir.Assign)
		if !ok || a.LHS.Name != name || len(a.LHS.Subs) != 0 {
			return true
		}
		for _, n := range ir.ScalarReads(a.RHS) {
			if n == name {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// scalarCrossesGroups reports whether any flow dependence on the scalar
// connects statements placed in different groups.
func scalarCrossesGroups(ctx *Context, proc *ir.Procedure, name string, stmtUnit map[int]int, groupOf []int) bool {
	for _, d := range ctx.Deps(proc) {
		if d.SrcRef.Name != name || len(d.SrcRef.Subs) != 0 || d.Kind != dep.Flow {
			continue
		}
		si, oki := stmtUnit[d.Src.ID]
		di, okj := stmtUnit[d.Dst.ID]
		if oki && okj && groupOf[si] != groupOf[di] {
			return true
		}
	}
	return false
}

// expandScalar rewrites every access to the scalar inside the split loops
// into an access to a fresh array indexed by the loop variable, and
// declares that array in the procedure — its name new to the program,
// since layouts are bound by name.  The array is laid out with the
// writing statement's one ON_HOME term (expandedLayout), so each element
// lives where it is computed and communication placement moves it to
// the statements that read it elsewhere.
func expandScalar(ctx *Context, proc *ir.Procedure, l *ir.Loop, name string, newLoops []ir.Stmt, sel *Selection) {
	lo, hi := l.Lo, l.Hi
	if l.Step < 0 {
		lo, hi = hi, lo
	}
	xname := name + "__x"
	for declared(ctx.Prog, xname) || ctx.Bind.LayoutOf(xname) != nil {
		xname += "x"
	}
	proc.Decls = append(proc.Decls, &ir.Decl{Name: xname, LB: []ir.AffExpr{lo}, UB: []ir.AffExpr{hi}})
	xref := func() *ir.ArrayRef { return ir.NewRef(xname, ir.SubVar(l.Var, 0)) }
	ir.Walk(newLoops, func(s ir.Stmt, _ []*ir.Loop) bool {
		a, ok := s.(*ir.Assign)
		if !ok {
			return true
		}
		if a.LHS.Name == name && len(a.LHS.Subs) == 0 {
			a.LHS = xref()
			if layout := expandedLayout(ctx, proc, l.Var, xname, lo, hi, sel.CPOf(a.ID)); layout != nil {
				ctx.Bind.Layouts[xname] = layout
			}
		}
		a.RHS = ir.RewriteExpr(a.RHS, func(e ir.Expr) ir.Expr {
			if sr, ok := e.(ir.ScalarRef); ok && sr.Name == name {
				return xref()
			}
			return e
		})
		return true
	})
}

// declared reports whether some procedure of prog declares name.
func declared(prog *ir.Program, name string) bool {
	for _, p := range prog.Procs {
		if p.DeclOf(name) != nil {
			return true
		}
	}
	return false
}

// expandedLayout is the layout of xname(lo:hi), the expansion over loop
// variable v of a scalar written under CP c: element v sits with the
// element c's one ON_HOME term names at v, when the term's array is
// distributed in one dimension only and the term indexes it by v plus a
// constant.  nil otherwise: the expansion stays replicated.
func expandedLayout(ctx *Context, proc *ir.Procedure, v, xname string, lo, hi ir.AffExpr, c *CP) *hpf.Layout {
	if len(c.Terms) != 1 {
		return nil
	}
	t := c.Terms[0]
	of := ctx.Bind.LayoutOf(t.Array)
	if of == nil || ctx.Layout(proc, t.Array) != of {
		return nil
	}
	if !paramsOnly(lo, ctx.Bind.Params) || !paramsOnly(hi, ctx.Bind.Params) {
		return nil
	}
	l, h := lo.Eval(ctx.Bind.Params), hi.Eval(ctx.Bind.Params)
	for k, s := range t.Subs {
		off, ok := s.Off.IsConst()
		if !s.IsRange && s.Var == v && s.Coef == 1 && ok {
			return hpf.AlignedLayout(xname, of, k, l, h, off)
		}
	}
	return nil
}

// paramsOnly reports whether a reads only the program's parameters.
func paramsOnly(a ir.AffExpr, params map[string]int) bool {
	for _, t := range a.Terms {
		if _, ok := params[t.Name]; !ok {
			return false
		}
	}
	return true
}

func containsAssign(l *ir.Loop, a *ir.Assign) bool {
	found := false
	ir.Walk(l.Body, func(s ir.Stmt, _ []*ir.Loop) bool {
		if s == ir.Stmt(a) {
			found = true
			return false
		}
		return !found
	})
	return found
}

func order_of(units []ir.Stmt, a *ir.Assign) int {
	for i, u := range units {
		if u == ir.Stmt(a) {
			return i
		}
		if lu, ok := u.(*ir.Loop); ok && containsAssign(lu, a) {
			return i
		}
	}
	return -1
}

// compDone reports whether all units of unit's component appear at index
// ≤ i.
func compDone(comp []int, i, unit int) bool {
	c := comp[unit]
	for j := i + 1; j < len(comp); j++ {
		if comp[j] == c {
			return false
		}
	}
	// unit itself must already have appeared.
	return unit <= i
}

// compStarted reports whether any unit of unit's component appears at
// index ≤ i.
func compStarted(comp []int, i, unit int) bool {
	c := comp[unit]
	for j := 0; j <= i; j++ {
		if comp[j] == c {
			return true
		}
	}
	return false
}

// sccs computes strongly connected components (Tarjan), returning the
// component id per node.
func sccs(adj [][]bool) []int {
	n := len(adj)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	counter, nComp := 0, 0
	var strong func(v int)
	strong = func(v int) {
		index[v], low[v] = counter, counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for w := 0; w < n; w++ {
			if !adj[v][w] {
				continue
			}
			if index[w] < 0 {
				strong(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = nComp
				if w == v {
					break
				}
			}
			nComp++
		}
	}
	for v := 0; v < n; v++ {
		if index[v] < 0 {
			strong(v)
		}
	}
	return comp
}
