// Package sched owns the one compile-time decision every consumer of a
// compiled program derives node behaviour from: where communication is
// placed (§7), how it is vectorized and coalesced, and how a wavefront is
// strip-mined (§2, §8.1).  A Schedule is built once per program from the
// IR, the CP selection, the communication events, the reduction loops and
// the pipeline grain; every execution engine and analysis.Predict are
// folds over it through the Walker (walk.go) — the compiled engines being
// the reference interpreter's fold with the compute nests it marks
// claimed through Ops.Handled — and the report and node-program printers
// call its planner (plan.go) at the zero point.
package sched

import (
	"fmt"

	"dhpf/internal/comm"
	"dhpf/internal/cp"
	"dhpf/internal/hpf"
	"dhpf/internal/ir"
	"dhpf/internal/iset"
)

// Reduction is one recognized parallel reduction: every rank accumulates
// a partial over its iterations of Loop, finalized by a collective
// combine at the loop's exit.
type Reduction struct {
	Loop *ir.Loop
	Stmt *ir.Assign
	Var  string
	Op   byte // '+', '<' (min), '>' (max)
}

// Input is what a schedule is built from.
type Input struct {
	IR         *ir.Program
	Ctx        *cp.Context
	Sel        *cp.Selection
	Comm       map[string]*comm.Analysis // per procedure; a missing entry places nothing
	Reductions map[string][]Reduction    // per procedure
	Grid       *hpf.Grid
	Grain      int // pipeline strip width; ≤ 0 means the whole strip range
}

// LoopSched is what fires at one loop's boundary, in firing order: Reads,
// reduction init, the loop itself (a wavefront carrying Pipe when that is
// non-empty), reduction combine, Writes.
type LoopSched struct {
	Reads, Writes []*comm.Event
	// Pipe are the live pipelined events the loop carries; Strip is the
	// loop their wavefront is strip-mined over (nil: block-serialized).
	Pipe  []*comm.Event
	Strip *ir.Loop
	Reds  []Reduction
	// ComputeNest marks a loop whose strict interior needs no walker: no
	// loop below it has events, a pipeline or a reduction at its boundary
	// and no statement below it is a call.  Whatever fires at the loop's
	// own boundary fires outside its iteration, so a consumer may run the
	// whole range in one step (Ops.Handled) with its own representation.
	ComputeNest bool
}

// StmtSched is the communication around one top-level assignment.
type StmtSched struct {
	Reads, Writes []*comm.Event
}

// ProcSched is one procedure's placement tables.  Every loop has a
// LoopSched, every assignment outside all loops a StmtSched, and every
// assignment or call an entry in Nest and Vars.
type ProcSched struct {
	Loops map[*ir.Loop]*LoopSched
	Top   map[*ir.Assign]*StmtSched
	Nest  map[int][]*ir.Loop // enclosing loops per statement id, outermost first
	Vars  map[int][]string   // their variables
}

// Schedule is the immutable per-program rank schedule.  It is shared
// read-only by every rank of every execution and analysis; the embedded
// planner's memo is its only mutable state.
type Schedule struct {
	Planner

	prog    *ir.Program
	grain   int
	procs   map[*ir.Procedure]*ProcSched
	invalid error
}

// New builds the schedule.  It is total: a program the walker cannot run
// (no main procedure, a call that does not resolve) still gets its
// placement tables and planner, and Check reports why it cannot be walked.
func New(in Input) *Schedule {
	s := &Schedule{
		Planner: Planner{Ctx: in.Ctx, Sel: in.Sel, Grid: in.Grid},
		prog:    in.IR,
		grain:   in.Grain,
		procs:   map[*ir.Procedure]*ProcSched{},
	}
	if in.IR.Main() == nil {
		s.invalid = fmt.Errorf("program has no main procedure")
	}
	for _, proc := range in.IR.Procs {
		s.procs[proc] = s.buildProc(proc, in.Comm[proc.Name], in.Reductions[proc.Name])
	}
	return s
}

// Check reports why the program cannot be walked, or nil.
func (s *Schedule) Check() error { return s.invalid }

// Proc returns a procedure's placement tables.
func (s *Schedule) Proc(proc *ir.Procedure) *ProcSched { return s.procs[proc] }

func (s *Schedule) buildProc(proc *ir.Procedure, an *comm.Analysis, reds []Reduction) *ProcSched {
	ps := &ProcSched{
		Loops: map[*ir.Loop]*LoopSched{},
		Top:   map[*ir.Assign]*StmtSched{},
		Nest:  map[int][]*ir.Loop{},
		Vars:  map[int][]string{},
	}
	ir.Walk(proc.Body, func(st ir.Stmt, loops []*ir.Loop) bool {
		switch x := st.(type) {
		case *ir.Assign:
			if len(loops) == 0 {
				ps.Top[x] = &StmtSched{}
			}
		case *ir.CallStmt:
			if s.invalid == nil {
				s.invalid = s.checkCall(x)
			}
		case *ir.Loop:
			ps.Loops[x] = &LoopSched{}
			return true
		default:
			return true
		}
		nest := append([]*ir.Loop(nil), loops...)
		ps.Nest[st.StmtID()] = nest
		ps.Vars[st.StmtID()] = ir.NestVars(nest)
		return true
	})
	for _, r := range reds {
		if ls := ps.Loops[r.Loop]; ls != nil {
			ls.Reds = append(ls.Reds, r)
		}
	}
	var events []*comm.Event
	if an != nil {
		events = an.Events
	}
	for _, e := range events {
		switch {
		case e.Eliminated:
		case e.Pipelined:
			if ls := ps.Loops[e.CarriedBy]; ls != nil {
				ls.Pipe = append(ls.Pipe, e)
			}
		case len(e.Nest) == 0:
			if ss := ps.Top[e.Stmt]; ss != nil {
				place(e, &ss.Reads, &ss.Writes)
			}
		default:
			// The event executes inside Nest[0:Depth] and is vectorized
			// across the rest: it fires at the boundary of Nest[d].
			d := min(e.Depth, len(e.Nest)-1)
			if ls := ps.Loops[e.Nest[d]]; ls != nil {
				place(e, &ls.Reads, &ls.Writes)
			}
		}
	}
	for l, ls := range ps.Loops {
		ls.Strip = chooseStrip(l, ls.Pipe)
	}
	ps.markNests(proc.Body)
	return ps
}

// markNests sets ComputeNest on every loop under stmts and reports
// whether they hold a call or a loop with something at its boundary.
func (ps *ProcSched) markNests(stmts []ir.Stmt) bool {
	busy := false
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.CallStmt:
			busy = true
		case *ir.IfStmt:
			then, els := ps.markNests(st.Then), ps.markNests(st.Else)
			busy = busy || then || els
		case *ir.Loop:
			ls := ps.Loops[st]
			ls.ComputeNest = !ps.markNests(st.Body)
			busy = busy || !ls.ComputeNest || len(ls.Reads)+len(ls.Writes)+len(ls.Pipe)+len(ls.Reds) > 0
		}
	}
	return busy
}

func (s *Schedule) checkCall(c *ir.CallStmt) error {
	callee := s.prog.Proc(c.Callee)
	if callee == nil {
		return fmt.Errorf("call to unknown procedure %q", c.Callee)
	}
	if len(c.Args) != len(callee.Formals) {
		return fmt.Errorf("call to %q has %d args for %d formals", c.Callee, len(c.Args), len(callee.Formals))
	}
	return nil
}

func place(e *comm.Event, reads, writes *[]*comm.Event) {
	if e.Kind == comm.ReadComm {
		*reads = append(*reads, e)
	} else {
		*writes = append(*writes, e)
	}
}

// chooseStrip picks the strip-mining loop of a wavefront: the innermost
// loop enclosing the pipelined statements that is not the carrier itself.
func chooseStrip(l *ir.Loop, events []*comm.Event) *ir.Loop {
	for _, e := range events {
		for i := len(e.Nest) - 1; i >= 0; i-- {
			if e.Nest[i] != l {
				return e.Nest[i]
			}
		}
	}
	return nil
}

// IterSets computes one activation's iteration sets: for every assignment
// and call of proc, the points of its full nest this rank executes under
// the entry binding (parameters plus integer formals).
func (s *Schedule) IterSets(proc *ir.Procedure, rank int, bind map[string]int) map[int]iset.Set {
	ps := s.procs[proc]
	localOf := s.Ctx.LocalOf(proc, rank)
	out := make(map[int]iset.Set, len(ps.Nest))
	for id, nest := range ps.Nest {
		out[id] = s.Sel.CPOf(id).IterSet(nest, bind, localOf)
	}
	return out
}

// OwnsTopLevel guards a statement outside any loop: the rank executes it
// when the CP is replicated or when it owns the data of some ON_HOME term
// (subscripts are loop-invariant at depth 0).
func (s *Schedule) OwnsTopLevel(proc *ir.Procedure, id, rank int, bind map[string]int) bool {
	c := s.Sel.CPOf(id)
	if c.Replicated() {
		return true
	}
	for _, t := range c.Terms {
		layout := s.Ctx.Layout(proc, t.Array)
		if layout == nil {
			return true
		}
		local := layout.LocalBox(rank)
		owns := true
		for k, sub := range t.Subs {
			if sub.IsRange {
				lo := sub.Lo.EvalOr(bind, 0)
				hi := sub.Hi.EvalOr(bind, 0)
				if max(lo, local.Lo[k]) > min(hi, local.Hi[k]) {
					owns = false
					break
				}
				continue
			}
			v := sub.Off.EvalOr(bind, 0)
			if sub.Var != "" {
				v += sub.Coef * bind[sub.Var]
			}
			if v < local.Lo[k] || v > local.Hi[k] {
				owns = false
				break
			}
		}
		if owns {
			return true
		}
	}
	return false
}
