package cp

import (
	"fmt"

	"dhpf/internal/hpf"
	"dhpf/internal/ir"
	"dhpf/internal/iset"
)

// Context carries everything CP selection needs for one program: the
// bound layouts, layouts propagated onto procedure formals, the entry CPs
// of already-processed callees (the bottom-up interprocedural state of
// §6), and what the passes derive once — each body's dependences (Deps),
// iteration sets and non-local sets.
type Context struct {
	Prog *ir.Program
	Bind *hpf.Binding

	// Overlay maps a procedure's formal array names to the layouts of the
	// actuals bound to them — the mini-language stand-in for the paper's
	// CP translation through HPF templates (our directive-named arrays
	// are program-global, so only formals need translation).
	Overlay map[*ir.Procedure]map[string]*hpf.Layout

	// EntryCPs holds, per processed procedure, the CP of its entry point
	// expressed over its formals with callee-loop subscripts vectorized,
	// or nil when the procedure has no uniform CP.
	EntryCPs map[string]*CP

	// sets is the derived table behind Deps, IterSet and NonLocal.
	sets derived
	// callees is the bottom-up call-graph order Callees returns, fixed at
	// construction: no pass adds or removes a call.
	callees    []*ir.Procedure
	calleesErr error
}

// NewContext builds a context, propagating formal layouts through call
// sites.  It derives no dependences: Deps does, per procedure, when a
// pass first asks.
func NewContext(prog *ir.Program, bind *hpf.Binding) (*Context, error) {
	ctx := &Context{
		Prog:     prog,
		Bind:     bind,
		Overlay:  map[*ir.Procedure]map[string]*hpf.Layout{},
		EntryCPs: map[string]*CP{},
	}
	for _, l := range bind.Layouts {
		for _, d := range l.Dims {
			if d.Kind == hpf.Cyclic {
				return nil, fmt.Errorf("cp: CYCLIC distribution of %q is not supported by the set-based analyses", l.Name)
			}
		}
	}
	for _, proc := range prog.Procs {
		if err := checkLoopBounds(proc, bind.Params); err != nil {
			return nil, err
		}
	}
	if err := ctx.propagateFormalLayouts(); err != nil {
		return nil, err
	}
	ctx.callees, ctx.calleesErr = ctx.calleeOrder()
	return ctx, nil
}

// checkLoopBounds rejects a loop bound that names anything but a program
// parameter.  Every analysis evaluates bounds under the parameter
// binding alone (IterBox), so a bound over an enclosing loop variable (a
// triangular nest) or an integer formal has no compile-time value.
func checkLoopBounds(proc *ir.Procedure, params map[string]int) error {
	var err error
	ir.Walk(proc.Body, func(s ir.Stmt, _ []*ir.Loop) bool {
		l, ok := s.(*ir.Loop)
		if !ok || err != nil {
			return err == nil
		}
		for _, bound := range []ir.AffExpr{l.Lo, l.Hi} {
			for _, t := range bound.Terms {
				if _, ok := params[t.Name]; !ok {
					err = fmt.Errorf("cp: proc %s: loop %s: bound %s names %q, which is not a program parameter (bounds over loop variables or formals are not supported)",
						proc.Name, l.Var, bound, t.Name)
					return false
				}
			}
		}
		return true
	})
	return err
}

// Layout resolves the layout of an array name inside a procedure:
// formal overlays first, then the global binding.  nil ⇒ replicated.
func (ctx *Context) Layout(proc *ir.Procedure, array string) *hpf.Layout {
	if ov := ctx.Overlay[proc]; ov != nil {
		if l, ok := ov[array]; ok {
			return l
		}
	}
	return ctx.Bind.LayoutOf(array)
}

// LocalOf builds the per-rank ownership callback for CP.IterSet.
func (ctx *Context) LocalOf(proc *ir.Procedure, rank int) func(string) (iset.Box, bool) {
	return func(array string) (iset.Box, bool) {
		l := ctx.Layout(proc, array)
		if l == nil {
			return iset.Box{}, false
		}
		return l.LocalBox(rank), true
	}
}

// Grid returns the (single) processor grid of the program.  The paper's
// codes use one PROCESSORS arrangement; we require the same.
func (ctx *Context) Grid() (*hpf.Grid, error) {
	if len(ctx.Bind.Grids) != 1 {
		return nil, fmt.Errorf("cp: expected exactly one PROCESSORS arrangement, found %d", len(ctx.Bind.Grids))
	}
	for _, g := range ctx.Bind.Grids {
		return g, nil
	}
	panic("unreachable")
}

// propagateFormalLayouts walks every call site and binds each whole-array
// actual's layout to the callee's formal.  Conflicting bindings from
// different call sites are rejected (the paper's compiler would clone).
func (ctx *Context) propagateFormalLayouts() error {
	// Iterate to a fixed point so chains main→a→b propagate.
	for pass := 0; pass < len(ctx.Prog.Procs)+1; pass++ {
		changed := false
		for _, caller := range ctx.Prog.Procs {
			var err error
			ir.Walk(caller.Body, func(s ir.Stmt, _ []*ir.Loop) bool {
				call, ok := s.(*ir.CallStmt)
				if !ok || err != nil {
					return true
				}
				callee := ctx.Prog.Proc(call.Callee)
				if callee == nil {
					err = fmt.Errorf("cp: call to undefined procedure %q", call.Callee)
					return false
				}
				if len(call.Args) != len(callee.Formals) {
					err = fmt.Errorf("cp: call to %q passes %d args, wants %d", call.Callee, len(call.Args), len(callee.Formals))
					return false
				}
				for k, arg := range call.Args {
					ref, ok := arg.(*ir.ArrayRef)
					if !ok || len(ref.Subs) != 0 {
						continue
					}
					l := ctx.Layout(caller, ref.Name)
					if l == nil {
						continue
					}
					formal := callee.Formals[k]
					ov := ctx.Overlay[callee]
					if ov == nil {
						ov = map[string]*hpf.Layout{}
						ctx.Overlay[callee] = ov
					}
					if have, ok := ov[formal]; ok {
						if have != l {
							err = fmt.Errorf("cp: formal %s of %q bound to conflicting layouts at different call sites", formal, call.Callee)
							return false
						}
						continue
					}
					ov[formal] = l
					changed = true
				}
				return true
			})
			if err != nil {
				return err
			}
		}
		if !changed {
			return nil
		}
	}
	return nil
}

// Callees returns procedures in bottom-up call-graph order (callees
// before callers).  It rejects recursion, which the mini language (like
// Fortran 77) does not support.  The slice is shared: callers must not
// modify it.
func (ctx *Context) Callees() ([]*ir.Procedure, error) {
	return ctx.callees, ctx.calleesErr
}

func (ctx *Context) calleeOrder() ([]*ir.Procedure, error) {
	const (
		white = iota
		grey
		black
	)
	color := map[string]int{}
	var order []*ir.Procedure
	var visit func(p *ir.Procedure) error
	visit = func(p *ir.Procedure) error {
		switch color[p.Name] {
		case grey:
			return fmt.Errorf("cp: recursive call cycle through %q", p.Name)
		case black:
			return nil
		}
		color[p.Name] = grey
		var err error
		ir.Walk(p.Body, func(s ir.Stmt, _ []*ir.Loop) bool {
			if err != nil {
				return false
			}
			if call, ok := s.(*ir.CallStmt); ok {
				callee := ctx.Prog.Proc(call.Callee)
				if callee == nil {
					err = fmt.Errorf("cp: call to undefined procedure %q", call.Callee)
					return false
				}
				err = visit(callee)
			}
			return true
		})
		if err != nil {
			return err
		}
		color[p.Name] = black
		order = append(order, p)
		return nil
	}
	for _, p := range ctx.Prog.Procs {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}
