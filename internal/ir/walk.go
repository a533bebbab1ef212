package ir

// Walk calls fn for every statement in the body, pre-order, recursing into
// loop bodies.  fn returning false prunes the subtree.
//
// loops is the statement's enclosing nest, outermost first.  It is valid
// only during the call, like Box.Each's tuple: the walk keeps one loop
// stack and the next sibling loop overwrites it, so a caller that keeps
// the nest copies it.
func Walk(body []Stmt, fn func(s Stmt, loops []*Loop) bool) {
	walk(body, make([]*Loop, 0, 8), fn)
}

func walk(body []Stmt, loops []*Loop, fn func(Stmt, []*Loop) bool) {
	for _, s := range body {
		if !fn(s, loops) {
			continue
		}
		switch st := s.(type) {
		case *Loop:
			walk(st.Body, append(loops, st), fn)
		case *IfStmt:
			walk(st.Then, loops, fn)
			walk(st.Else, loops, fn)
		}
	}
}

// Assignments returns every Assign in the body (recursively), each paired
// with its enclosing loop nest from outermost to innermost.
func Assignments(body []Stmt) []AssignInNest {
	var out []AssignInNest
	Walk(body, func(s Stmt, loops []*Loop) bool {
		if a, ok := s.(*Assign); ok {
			nest := make([]*Loop, len(loops))
			copy(nest, loops)
			out = append(out, AssignInNest{Assign: a, Nest: nest})
		}
		return true
	})
	return out
}

// AssignInNest pairs an assignment with its enclosing loops.
type AssignInNest struct {
	Assign *Assign
	Nest   []*Loop
}

// Refs returns all array references in an expression tree, in evaluation
// order.  Scalar references (zero-subscript ArrayRefs are arrays passed
// whole; ScalarRef leaves are scalars) are not included.
func Refs(e Expr) []*ArrayRef {
	var out []*ArrayRef
	WalkExpr(e, func(x Expr) {
		if r, ok := x.(*ArrayRef); ok {
			out = append(out, r)
		}
	})
	return out
}

// WalkExpr visits every node of an expression tree, pre-order.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Bin:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *Intrinsic:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	}
}

// RewriteExpr rebuilds an expression tree bottom-up, replacing each node
// with fn's result.  fn receives nodes whose children are already
// rewritten; returning the argument keeps it.
func RewriteExpr(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Bin:
		l := RewriteExpr(x.L, fn)
		r := RewriteExpr(x.R, fn)
		if l != x.L || r != x.R {
			e = &Bin{Op: x.Op, L: l, R: r}
		}
	case *Intrinsic:
		args := make([]Expr, len(x.Args))
		changed := false
		for i, a := range x.Args {
			args[i] = RewriteExpr(a, fn)
			if args[i] != x.Args[i] {
				changed = true
			}
		}
		if changed {
			e = &Intrinsic{Name: x.Name, Args: args}
		}
	}
	return fn(e)
}

// ScalarReads returns the names of scalar variables read by the expression.
func ScalarReads(e Expr) []string {
	var out []string
	WalkExpr(e, func(x Expr) {
		if s, ok := x.(ScalarRef); ok {
			out = append(out, s.Name)
		}
	})
	return out
}

// LoopByVar returns the innermost loop in the nest using the given index
// variable, or nil.
func LoopByVar(nest []*Loop, v string) *Loop {
	for i := len(nest) - 1; i >= 0; i-- {
		if nest[i].Var == v {
			return nest[i]
		}
	}
	return nil
}

// NestVars returns the index variables of a loop nest, outermost first.
func NestVars(nest []*Loop) []string {
	out := make([]string, len(nest))
	for i, l := range nest {
		out[i] = l.Var
	}
	return out
}

// CommonPrefix returns the loops shared by both nests (outermost-in): a
// capacity-clipped prefix of a, to read and not to write.
func CommonPrefix(a, b []*Loop) []*Loop {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	if n == 0 {
		return nil
	}
	return a[:n:n]
}
