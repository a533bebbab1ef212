package spmd

import (
	"fmt"
	"sort"

	"dhpf/internal/ir"
	"dhpf/internal/sched"
)

// SerialResult holds the arrays of a sequential reference execution.
type SerialResult struct {
	arrays map[string]*array
}

// Array returns the named main-procedure array's data and bounds.
func (sr *SerialResult) Array(name string) ([]float64, []int, []int, error) {
	a := sr.arrays[name]
	if a == nil {
		return nil, nil, nil, fmt.Errorf("spmd: serial run has no array %q", name)
	}
	return a.data, a.lo, a.hi, nil
}

// Names lists the main-procedure arrays of the run, sorted — the
// default verification set when a caller doesn't name specific arrays.
func (sr *SerialResult) Names() []string {
	names := make([]string, 0, len(sr.arrays))
	for n := range sr.arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RunSerial executes the program sequentially, ignoring all HPF
// directives — the reference semantics every compiled SPMD execution is
// validated against (the mini-language analogue of running the
// NPB2.3-serial code).
func RunSerial(prog *ir.Program, params map[string]int) (*SerialResult, error) {
	bind := map[string]int{}
	for k, v := range prog.Params {
		bind[k] = v
	}
	for k, v := range params {
		bind[k] = v
	}
	se := &serialExec{prog: prog, bind: bind}
	var err error
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("spmd: serial execution: %v", rec)
			}
		}()
		se.enter(prog.Main(), nil, nil)
	}()
	if err != nil {
		return nil, err
	}
	return &SerialResult{arrays: se.mainArrays}, nil
}

type serialExec struct {
	prog       *ir.Program
	bind       map[string]int
	frames     []*frame
	mainArrays map[string]*array
	// rx is eval's shim, kept: the provenance seam passes it to an
	// interface method, so a shim per eval would escape to the heap.
	rx rankExec
}

func (se *serialExec) top() *frame { return se.frames[len(se.frames)-1] }

// enter runs proc in a fresh frame; the layout is the SPMD executor's,
// the walk below is this file's own.
func (se *serialExec) enter(proc *ir.Procedure, actualArrays map[string]*array, floatFormals map[string]float64) {
	f := newFrame(proc, nameBinding(se.bind), actualArrays, floatFormals)
	se.frames = append(se.frames, f)
	if se.mainArrays == nil {
		se.mainArrays = f.arrays
	}
	se.execStmts(proc, proc.Body)
	se.frames = se.frames[:len(se.frames)-1]
}

func (se *serialExec) execStmts(proc *ir.Procedure, stmts []ir.Stmt) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.Assign:
			se.assign(st)
		case *ir.CallStmt:
			se.call(proc, st)
		case *ir.IfStmt:
			if sched.Compare(st.Cond.Op, se.eval(st.Cond.L), se.eval(st.Cond.R)) {
				se.execStmts(proc, st.Then)
			} else {
				se.execStmts(proc, st.Else)
			}
		case *ir.Loop:
			lo := st.Lo.EvalOr(se.bind, 0)
			hi := st.Hi.EvalOr(se.bind, 0)
			old, had := se.bind[st.Var]
			if st.Step > 0 {
				for v := lo; v <= hi; v++ {
					se.bind[st.Var] = v
					se.execStmts(proc, st.Body)
				}
			} else {
				for v := lo; v >= hi; v-- {
					se.bind[st.Var] = v
					se.execStmts(proc, st.Body)
				}
			}
			if had {
				se.bind[st.Var] = old
			} else {
				delete(se.bind, st.Var)
			}
		}
	}
}

func (se *serialExec) assign(a *ir.Assign) {
	v := se.eval(a.RHS)
	f := se.top()
	if len(a.LHS.Subs) == 0 {
		f.fenv[a.LHS.Name] = v
		return
	}
	f.arrays[a.LHS.Name].set(se.subVals(a.LHS), v)
}

func (se *serialExec) subVals(r *ir.ArrayRef) []int {
	p := make([]int, len(r.Subs))
	for k, s := range r.Subs {
		if s.Var == "" {
			p[k] = s.Off.EvalOr(se.bind, 0)
		} else {
			p[k] = s.Coef*se.bind[s.Var] + s.Off.EvalOr(se.bind, 0)
		}
	}
	return p
}

func (se *serialExec) call(proc *ir.Procedure, call *ir.CallStmt) {
	callee := se.prog.Proc(call.Callee)
	if callee == nil {
		panic(fmt.Sprintf("call to undefined %q", call.Callee))
	}
	// Every actual is evaluated under the caller's binding before the
	// callee's integer formals are bound.
	f := se.top()
	actualArrays := map[string]*array{}
	floatFormals := map[string]float64{}
	intFormals := map[string]int{}
	for k, formal := range callee.Formals {
		switch arg := call.Args[k]; sched.ClassifyArg(arg) {
		case sched.ArgAlias:
			actualArrays[formal] = f.arrays[arg.(*ir.ArrayRef).Name]
		case sched.ArgInt:
			intFormals[formal] = int(se.eval(arg))
		default:
			floatFormals[formal] = se.eval(arg)
		}
	}
	type savedInt struct {
		val int
		had bool
	}
	saved := map[string]savedInt{}
	for formal, v := range intFormals {
		old, had := se.bind[formal]
		saved[formal] = savedInt{old, had}
		se.bind[formal] = v
	}
	se.enter(callee, actualArrays, floatFormals)
	for formal, s := range saved {
		if s.had {
			se.bind[formal] = s.val
		} else {
			delete(se.bind, formal)
		}
	}
}

func (se *serialExec) eval(e ir.Expr) float64 {
	// Reuse the rank evaluator's logic through a lightweight shim.
	se.rx.sc, se.rx.frames = nameBinding(se.bind), se.frames
	return se.rx.eval(e)
}
