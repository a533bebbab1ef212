package passes

import (
	"dhpf/internal/cp"
	"dhpf/internal/dep"
	"dhpf/internal/ir"
	"dhpf/internal/sched"
)

// ReductionPlan is one recognized parallel reduction: the rank
// schedule's reduction entry, which this pass produces.
type ReductionPlan = sched.Reduction

// planReductions recognizes scalar reductions in each outermost loop:
// statements of the shape s = s ⊕ e whose scalar is touched nowhere else
// inside the loop and whose CP partitions the iterations.  Supported ⊕
// (sum, min, max) become ReductionPlans — each rank accumulates its
// partial and the loop exit combines them collectively.  A recognized
// reduction with an unsupported operator (product) is forced to
// replicated execution instead, preserving correctness.
func planReductions(ctx *cp.Context, proc *ir.Procedure, sel *cp.Selection) []ReductionPlan {
	var out []ReductionPlan
	for _, s := range proc.Body {
		l, ok := s.(*ir.Loop)
		if !ok {
			continue
		}
		reds := dep.FindReductions([]ir.Stmt{l})
		for _, r := range reds {
			if !scalarOnlyInReduction(l, r) {
				continue
			}
			c := sel.CPOf(r.Stmt.ID)
			if c.Replicated() {
				continue // every rank runs every iteration: already global
			}
			switch r.Op {
			case '+', '<', '>':
				out = append(out, ReductionPlan{Loop: l, Stmt: r.Stmt, Var: r.Var, Op: r.Op})
			default:
				// Unsupported combine: replicate the accumulation.
				sel.CPs[r.Stmt.ID] = &cp.CP{}
			}
		}
	}
	return out
}

// scalarOnlyInReduction checks that the reduction variable is read and
// written only by the reduction statement inside the loop.
func scalarOnlyInReduction(l *ir.Loop, r dep.Reduction) bool {
	ok := true
	ir.Walk([]ir.Stmt{l}, func(s ir.Stmt, _ []*ir.Loop) bool {
		a, isA := s.(*ir.Assign)
		if !isA || a == r.Stmt {
			return true
		}
		if a.LHS.Name == r.Var && len(a.LHS.Subs) == 0 {
			ok = false
			return false
		}
		for _, n := range ir.ScalarReads(a.RHS) {
			if n == r.Var {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}
